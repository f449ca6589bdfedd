"""Rolling zero-downtime weight hot-swap across a fleet.

:func:`rolling_reload` swaps every replica onto a new PR-4 checkpoint
**one replica at a time**: drain one, rebuild it on the new weights
(fingerprint-verified), swap it back in, then move to the next.  At
every instant at least ``fleet size - 1`` replicas admit traffic, so a
fleet of two or more never refuses service during the swap — the
serving-availability analogue of the paper's "no pipeline flush"
training claim: weights change underneath continuous work without
stopping the work.

The :class:`ReloadReport` carries the per-replica swap events and the
minimum ready-replica count actually *observed while each replica was
draining* (``min_ready_observed``), which is what the fleet smoke test
asserts stayed positive.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.pipeline.checkpoint import checkpoint_fingerprint
from repro.serve.fleet.router import FleetRouter


@dataclass
class ReloadReport:
    """Outcome of one :func:`rolling_reload` sweep."""

    checkpoint: str
    #: fingerprint every replica must serve after the sweep
    fingerprint: str
    #: per-replica swap events, in sweep order (see ``Replica.reload``)
    events: list[dict] = field(default_factory=list)
    #: fewest ready replicas observed while any replica was draining
    min_ready_observed: int = 0

    @property
    def replicas_swapped(self) -> int:
        return len(self.events)

    def as_dict(self) -> dict:
        return {
            "checkpoint": self.checkpoint,
            "fingerprint": self.fingerprint,
            "replicas_swapped": self.replicas_swapped,
            "min_ready_observed": self.min_ready_observed,
            "events": list(self.events),
        }


def rolling_reload(
    router: FleetRouter, checkpoint: str, verify: bool = True
) -> ReloadReport:
    """Hot-swap the whole fleet onto ``checkpoint``, one replica at a
    time (module docstring).  Synchronous: returns once every replica
    serves the new weights.  If one replica's swap fails (bad
    checkpoint, fingerprint mismatch) that replica keeps serving its
    old weights, the sweep aborts, and the exception propagates — the
    report's ``events`` tell how far it got.
    """
    report = ReloadReport(
        checkpoint=checkpoint,
        fingerprint=checkpoint_fingerprint(checkpoint),
        min_ready_observed=router.num_ready,
    )

    def observe_drain(_) -> None:
        report.min_ready_observed = min(
            report.min_ready_observed, router.num_ready
        )

    for name in sorted(router.replicas):
        event = router.reload_replica(
            name, checkpoint, verify=verify, on_draining=observe_drain
        )
        report.events.append(event)
        report.min_ready_observed = min(
            report.min_ready_observed, router.num_ready
        )
    return report
