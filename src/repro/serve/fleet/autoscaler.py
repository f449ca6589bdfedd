"""Queue-wait-driven replica autoscaling.

The scaling signal is the fleet's recent **p95 queue wait**
(:meth:`~repro.serve.stats.ServingStats.recent_queue_wait_p95`), not
raw throughput: queue wait is the component of latency that adding a
replica can actually remove, and it rises *before* deadlines are blown,
which gives the scaler lead time the tail percentiles themselves don't.

Policy (all knobs on :class:`AutoscalePolicy`):

* **scale out** when p95 queue wait exceeds ``scale_out_wait_s`` and
  the fleet is below ``max_replicas``;
* **scale in** (drain-and-retire one replica) when the fleet has been
  *idle* — zero outstanding requests — for at least ``idle_grace_s``
  and is above ``min_replicas``;
* both directions respect a shared ``cooldown_s`` so one burst cannot
  flap the fleet.

The decision function is pure (time and gauges are passed in), so the
whole policy unit-tests with a fake clock; the
:class:`~repro.serve.fleet.router.FleetRouter` feeds it real readings
from its ``tick()``.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class AutoscalePolicy:
    """Knobs for :class:`FleetAutoscaler` (see module docstring)."""

    min_replicas: int = 1
    max_replicas: int = 4
    #: scale out when fleet p95 queue wait exceeds this (seconds)
    scale_out_wait_s: float = 0.05
    #: retire one replica after this long with zero outstanding work
    idle_grace_s: float = 2.0
    #: minimum interval between any two scaling actions
    cooldown_s: float = 1.0

    def __post_init__(self):
        if self.min_replicas < 1:
            raise ValueError(
                f"min_replicas must be >= 1, got {self.min_replicas}"
            )
        if self.max_replicas < self.min_replicas:
            raise ValueError(
                f"max_replicas ({self.max_replicas}) < min_replicas "
                f"({self.min_replicas})"
            )
        if self.scale_out_wait_s <= 0:
            raise ValueError(
                f"scale_out_wait_s must be > 0, got {self.scale_out_wait_s}"
            )
        if self.idle_grace_s < 0 or self.cooldown_s < 0:
            raise ValueError("idle_grace_s / cooldown_s must be >= 0")


class FleetAutoscaler:
    """Stateful wrapper around one :class:`AutoscalePolicy`.

    Holds only the minimal memory the policy needs — when the fleet
    last went idle and when the last action fired — and exposes a pure
    :meth:`decide` driven entirely by caller-supplied readings.
    """

    def __init__(self, policy: AutoscalePolicy | None = None):
        self.policy = policy if policy is not None else AutoscalePolicy()
        self._idle_since: float | None = None
        self._last_action_t: float | None = None
        #: decision log, newest last: (t, action, reason)
        self.events: list[tuple[float, str, str]] = []

    def decide(
        self,
        now: float,
        ready_replicas: int,
        queue_wait_p95: float | None,
        outstanding: int,
    ) -> str | None:
        """Return ``"out"`` (add a replica), ``"in"`` (drain-and-retire
        one), or ``None`` (hold), given the fleet's current readings.

        The caller is responsible for acting on the verdict; this
        method only tracks idle/cooldown state and logs its decisions.
        """
        pol = self.policy

        if outstanding > 0:
            self._idle_since = None
        elif self._idle_since is None:
            self._idle_since = now

        if self._last_action_t is not None:
            if now - self._last_action_t < pol.cooldown_s:
                return None

        if (
            queue_wait_p95 is not None
            and queue_wait_p95 > pol.scale_out_wait_s
            and ready_replicas < pol.max_replicas
        ):
            self._last_action_t = now
            self._idle_since = None
            reason = (
                f"p95 queue wait {queue_wait_p95 * 1e3:.1f} ms > "
                f"{pol.scale_out_wait_s * 1e3:.1f} ms"
            )
            self.events.append((now, "out", reason))
            return "out"

        if (
            self._idle_since is not None
            and now - self._idle_since >= pol.idle_grace_s
            and ready_replicas > pol.min_replicas
        ):
            idle_for = now - self._idle_since
            self._last_action_t = now
            self._idle_since = now  # restart the grace clock per retire
            reason = (
                f"idle for {idle_for:.2f}s "
                f"(grace {pol.idle_grace_s:.2f}s)"
            )
            self.events.append((now, "in", reason))
            return "in"

        return None
