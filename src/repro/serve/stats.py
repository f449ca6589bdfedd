"""Per-request latency accounting for the serving front-end.

Every completed request contributes three measured intervals:

``queue_wait``
    admission -> dispatch into a micro-batch packet (the batcher's
    coalescing delay plus any backpressure stall);
``pipeline_time``
    dispatch -> logits out of the pipeline;
``latency``
    admission -> response (the end-to-end number an SLO is written
    against; ``latency = queue_wait + pipeline_time`` up to clock
    reads).

:class:`ServingStats` aggregates them into the usual tail percentiles
(p50/p95/p99) plus counters that make dropped work impossible to miss:
``completed + rejected + failed`` must account for every admission
attempt, and the serving smoke test asserts exactly that.

For the fleet router two more surfaces ride on the snapshot:

* **gauges** — the *current* batcher ``pending`` and in-flight request
  count (wired by the owning server via :meth:`set_gauge_source`), the
  queue-depth signal least-loaded dispatch and the autoscaler read;
* **per-class accounting** — timings and rejections tagged with an SLO
  class aggregate into per-class percentiles and
  ``completed/rejected_by_class`` counters, which is what a per-class
  deadline is asserted against.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from itertools import islice
from typing import Callable

import numpy as np


def _percentiles(values: list[float]) -> dict:
    if not values:
        return {"p50": None, "p95": None, "p99": None, "mean": None}
    arr = np.asarray(values, dtype=np.float64)
    p50, p95, p99 = np.percentile(arr, [50.0, 95.0, 99.0])
    return {
        "p50": float(p50),
        "p95": float(p95),
        "p99": float(p99),
        "mean": float(arr.mean()),
    }


@dataclass
class RequestTiming:
    """Measured intervals of one completed request (seconds)."""

    request_id: int
    queue_wait: float
    pipeline_time: float
    latency: float
    batch_size: int = 1
    #: SLO class tag (``None`` for untagged single-server traffic)
    slo_class: str | None = None
    #: monotonic completion time, stamped by :meth:`ServingStats.record`
    #: (lets pressure signals expire stale readings by wall clock)
    t_done: float = 0.0


class ServingStats:
    """Thread-safe accumulator of serving outcomes.

    ``record`` is called by the server's collector thread per completed
    request; ``snapshot`` renders percentiles and counters at any point
    (cheap enough to serve from the ``/stats`` HTTP endpoint).

    Counters (``completed``/``rejected``/``failed``) are cumulative for
    the server's lifetime, but per-request timings are kept in a
    **bounded sliding window** of the most recent ``window`` requests —
    a long-lived server must not grow without bound, and recent-window
    percentiles are what an SLO dashboard wants anyway.  The window size
    is reported in every snapshot so truncation is never silent.
    """

    def __init__(self, window: int = 65536) -> None:
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        from collections import deque

        self._lock = threading.Lock()
        self._timings: "deque[RequestTiming]" = deque(maxlen=int(window))
        self.window = int(window)
        self._completed = 0
        self.rejected = 0
        self.failed = 0
        self._completed_by_class: dict[str, int] = {}
        self._rejected_by_class: dict[str, int] = {}
        self._gauge_source: Callable[[], dict] | None = None
        self._t_first: float | None = None
        self._t_last: float | None = None

    # -- recording ----------------------------------------------------------

    def record(self, timing: RequestTiming, t_now: float) -> None:
        with self._lock:
            timing.t_done = t_now
            self._timings.append(timing)
            self._completed += 1
            if timing.slo_class is not None:
                self._completed_by_class[timing.slo_class] = (
                    self._completed_by_class.get(timing.slo_class, 0) + 1
                )
            if self._t_first is None:
                self._t_first = t_now - timing.latency
            self._t_last = t_now

    def record_rejected(self, slo_class: str | None = None) -> None:
        with self._lock:
            self.rejected += 1
            if slo_class is not None:
                self._rejected_by_class[slo_class] = (
                    self._rejected_by_class.get(slo_class, 0) + 1
                )

    def record_failed(self) -> None:
        with self._lock:
            self.failed += 1

    def set_gauge_source(self, source: Callable[[], dict] | None) -> None:
        """Register the callable that reports the owner's *current*
        queue gauges (``{"pending": int, "in_flight": int}``).  Called
        by :class:`~repro.serve.server.PipelineServer` at construction;
        a stats object without one snapshots ``None`` gauges."""
        with self._lock:
            self._gauge_source = source

    # -- reading ------------------------------------------------------------

    @property
    def completed(self) -> int:
        with self._lock:
            return self._completed

    def timings(self) -> list[RequestTiming]:
        """The retained sliding window, oldest first (the full history
        only while fewer than ``window`` requests have completed)."""
        with self._lock:
            return list(self._timings)

    def recent_queue_wait_p95(
        self, last: int = 256, horizon_s: float | None = 2.0
    ) -> float | None:
        """p95 queue-wait over the most recent ``last`` completed
        requests — the autoscaler's scale-out signal and the admission
        controller's deadline-pressure estimate.  ``None`` until
        anything has completed.

        Readings older than ``horizon_s`` (by completion wall clock)
        are **expired**: a pressure signal must decay when traffic
        stops completing, otherwise one turbulent burst — e.g. the
        compute hiccup of a rolling weight swap — latches the p95 above
        an admission threshold forever and starves the very class the
        threshold protects (rejected requests produce no completions,
        so the window would never refresh).  Pass ``horizon_s=None``
        for the raw completion-count window."""
        import time as _time

        cutoff = (
            _time.monotonic() - horizon_s if horizon_s is not None else None
        )
        with self._lock:
            # newest first, and only the newest ``last``: the fleet
            # router calls this per request, under the lock ``record``
            # takes, so its cost must not grow with the window
            waits = [
                t.queue_wait
                for t in islice(reversed(self._timings), last)
                if cutoff is None or t.t_done >= cutoff
            ]
        if not waits:
            return None
        return float(np.percentile(np.asarray(waits), 95.0))

    def snapshot(self) -> dict:
        """Percentiles + counters as one JSON-ready dict (seconds).
        ``completed`` is cumulative; the percentile fields cover the
        most recent ``min(completed, window)`` requests.  ``pending`` /
        ``in_flight`` are *instantaneous* gauges from the owning
        server's queue (``None`` when no gauge source is wired);
        ``per_class`` breaks the window's percentiles down by SLO
        class for tagged traffic."""
        with self._lock:
            timings = list(self._timings)
            completed = self._completed
            rejected = self.rejected
            failed = self.failed
            completed_by_class = dict(self._completed_by_class)
            rejected_by_class = dict(self._rejected_by_class)
            gauge_source = self._gauge_source
            span = (
                (self._t_last - self._t_first)
                if self._t_first is not None and self._t_last is not None
                else 0.0
            )
        gauges = {"pending": None, "in_flight": None}
        if gauge_source is not None:
            gauges.update(gauge_source())
        latency = _percentiles([t.latency for t in timings])
        queue_wait = _percentiles([t.queue_wait for t in timings])
        pipeline = _percentiles([t.pipeline_time for t in timings])
        batch_sizes = [t.batch_size for t in timings]
        per_class: dict[str, dict] = {}
        for cls in sorted(
            {t.slo_class for t in timings if t.slo_class is not None}
        ):
            cls_t = [t for t in timings if t.slo_class == cls]
            per_class[cls] = {
                "window_filled": len(cls_t),
                "latency_s": _percentiles([t.latency for t in cls_t]),
                "queue_wait_s": _percentiles(
                    [t.queue_wait for t in cls_t]
                ),
            }
        return {
            "completed": completed,
            "window": self.window,
            "window_filled": len(timings),
            "rejected": rejected,
            "failed": failed,
            "pending": gauges["pending"],
            "in_flight": gauges["in_flight"],
            "completed_by_class": completed_by_class,
            "rejected_by_class": rejected_by_class,
            "per_class": per_class,
            "latency_s": latency,
            "queue_wait_s": queue_wait,
            "pipeline_s": pipeline,
            "mean_batch_size": (
                float(np.mean(batch_sizes)) if batch_sizes else None
            ),
            "span_s": span,
            "throughput_rps": (
                completed / span if span > 0 else None
            ),
        }
