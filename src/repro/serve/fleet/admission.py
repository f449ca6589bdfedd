"""SLO classes and fleet-level admission control.

The fleet serves two kinds of traffic with one queueing fabric:

``interactive``
    Tight end-to-end deadline.  Queueing an interactive request deeply
    is useless — by the time it dispatches its deadline is blown — so
    the right overload response is **fast pushback**: reject with
    :class:`~repro.serve.batcher.Overloaded` the moment the measured
    queue wait approaches the deadline, and let the client retry or
    shed.  Interactive requests also carry ``max_wait = 0`` into the
    :class:`~repro.serve.batcher.DynamicBatcher`.  That matters only
    while a packet is in flight (an idle batcher releases any request
    at once): then they never sit in the coalescing window, they flush
    the next packet immediately.

``batch``
    Loose deadline, throughput-oriented.  Batch requests tolerate the
    batcher's full coalescing slack (wide packets amortize per-op
    overhead) and deep queues; they are only pushed back when the
    aggregate queue capacity is genuinely exhausted.  The slack is only
    ever spent behind a packet in flight — the batcher never holds a
    request while the pipeline is idle.

That ordering — *interactive gets Overloaded pushback before batch
does* — is the admission pricing: each class is admitted only while the
fleet's recent queue wait fits inside its own deadline, so the class
with the tightest deadline hits its ceiling first, and the class with
slack yields its coalescing window whenever an interactive request is
queued behind it.

Both knobs are priced against the existing
:class:`~repro.serve.batcher.DynamicBatcher` configuration: a class's
structural queue allowance is a share of the *aggregate* ``max_queue``
over ready replicas, and its coalescing slack is an override of the
batcher's ``max_wait``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.serve.batcher import Overloaded


@dataclass(frozen=True)
class SLOClass:
    """One admission class (see module docstring).

    Parameters
    ----------
    name:
        Wire tag; requests carry it end to end (loadgen -> router ->
        batcher -> stats).
    deadline_s:
        The end-to-end latency objective this class is served under.
        Admission rejects the class when the fleet's recent p95 queue
        wait exceeds ``deadline_s * deadline_headroom`` — pushing back
        *before* the deadline is blown rather than after.
    max_wait_s:
        Coalescing slack this class's requests grant the batcher
        (per-request ``max_wait`` override).  ``0`` = flush
        immediately.
    queue_share:
        Fraction of the fleet's aggregate admission queue
        (``sum(max_queue)`` over ready replicas) this class may occupy
        on its own.  ``1.0`` = may fill the whole queue.
    """

    name: str
    deadline_s: float
    max_wait_s: float
    queue_share: float = 1.0

    def __post_init__(self):
        if self.deadline_s <= 0:
            raise ValueError(
                f"{self.name}: deadline_s must be > 0, got {self.deadline_s}"
            )
        if self.max_wait_s < 0:
            raise ValueError(
                f"{self.name}: max_wait_s must be >= 0, got {self.max_wait_s}"
            )
        if not 0.0 < self.queue_share <= 1.0:
            raise ValueError(
                f"{self.name}: queue_share must be in (0, 1], "
                f"got {self.queue_share}"
            )


def default_slo_classes(
    interactive_deadline_s: float = 0.25,
    batch_deadline_s: float = 5.0,
    batch_max_wait_s: float = 0.004,
) -> dict[str, SLOClass]:
    """The stock two-class fleet: tight-deadline zero-slack
    ``interactive`` capped at half the queue, loose ``batch`` with the
    full coalescing window and the full queue."""
    return {
        "interactive": SLOClass(
            "interactive",
            deadline_s=interactive_deadline_s,
            max_wait_s=0.0,
            queue_share=0.5,
        ),
        "batch": SLOClass(
            "batch",
            deadline_s=batch_deadline_s,
            max_wait_s=batch_max_wait_s,
            queue_share=1.0,
        ),
    }


class AdmissionController:
    """Decide, per request, whether the fleet admits it (module
    docstring).  Pure bookkeeping-free logic: the router owns the
    outstanding counters and gauges and passes them in, so the
    controller unit-tests without any fleet running.

    ``deadline_headroom`` scales every class's deadline into its
    pushback threshold (0.5 = reject once measured p95 queue wait
    passes half the deadline — the other half is budget for the
    pipeline itself and for measurement lag).
    """

    def __init__(
        self,
        classes: dict[str, SLOClass] | None = None,
        deadline_headroom: float = 0.5,
    ):
        if not 0.0 < deadline_headroom <= 1.0:
            raise ValueError(
                "deadline_headroom must be in (0, 1], "
                f"got {deadline_headroom}"
            )
        self.classes = dict(
            default_slo_classes() if classes is None else classes
        )
        if not self.classes:
            raise ValueError("at least one SLO class is required")
        for name, slo in self.classes.items():
            if name != slo.name:
                raise ValueError(
                    f"class key {name!r} does not match its "
                    f"SLOClass.name {slo.name!r}"
                )
        self.deadline_headroom = float(deadline_headroom)

    def resolve(self, name: str | None) -> SLOClass:
        """Look up a class by wire tag (``None`` -> ``interactive`` if
        defined, else the first class)."""
        if name is None:
            if "interactive" in self.classes:
                return self.classes["interactive"]
            return next(iter(self.classes.values()))
        try:
            return self.classes[name]
        except KeyError:
            raise ValueError(
                f"unknown SLO class {name!r}; fleet serves "
                f"{sorted(self.classes)}"
            ) from None

    def admit(
        self,
        slo: SLOClass,
        outstanding: dict[str, int],
        capacity: int,
        queue_wait_p95: float | None,
    ) -> None:
        """Raise :class:`Overloaded` if the fleet should push this
        request back; return silently to admit.

        ``outstanding`` maps class name -> requests admitted by the
        router and not yet resolved; ``capacity`` is the aggregate
        ``max_queue`` over *ready* replicas; ``queue_wait_p95`` the
        fleet's recent measured p95 queue wait (``None`` = no signal
        yet, admit on structure alone).
        """
        total = sum(outstanding.values())
        if total >= capacity:
            raise Overloaded(
                f"fleet queue exhausted ({total}/{capacity} outstanding)"
            )
        own_limit = max(1, int(slo.queue_share * capacity))
        if outstanding.get(slo.name, 0) >= own_limit:
            raise Overloaded(
                f"class {slo.name!r} at its queue share "
                f"({own_limit}/{capacity})"
            )
        # Deadline pressure is a *trailing* signal (p95 over recently
        # completed requests), so it is only trusted while the fleet is
        # also *currently* at least half occupied: a wait spike left by
        # a transient hiccup — e.g. the compute stall of a rolling
        # weight swap — over already-drained queues is turbulence, not
        # sustained overload, and rejecting on it would starve the
        # tight-deadline class for the length of the measurement
        # window even though its requests would now dispatch instantly.
        if queue_wait_p95 is not None and total >= max(1, capacity // 2):
            threshold = slo.deadline_s * self.deadline_headroom
            if queue_wait_p95 > threshold:
                raise Overloaded(
                    f"class {slo.name!r} deadline pressure: p95 queue "
                    f"wait {queue_wait_p95 * 1e3:.1f} ms > "
                    f"{threshold * 1e3:.1f} ms budget"
                )
