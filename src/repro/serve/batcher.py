"""Dynamic micro-batching with bounded admission and explicit backpressure.

The paper's serving story is the training story transposed: a pipeline
keeps every stage busy on *small* packets, so a server does not need to
hoard requests into large batches to be efficient — but a little
coalescing is still free throughput, because one vectorized ``(B, ...)``
op amortizes per-op overhead across ``B`` requests.  The
:class:`DynamicBatcher` makes exactly that trade, under two SLO knobs:

``max_batch``
    Cap on requests per packet (the pipeline's micro-batch width).  A
    full batch dispatches the moment it is full, on an idle server and
    on a saturated one alike: a saturated server runs at the pipeline's
    speed (the dispatcher blocks on the stream's bounded in-flight
    window, not on a clock).
``max_wait``
    The longest a request waits to coalesce *behind a packet in
    flight*.  The batcher is **work-conserving** (Nagle's rule, RFC
    896): it counts the packets it has handed out and not had back
    (:meth:`DynamicBatcher.next_batch` adds one,
    :meth:`DynamicBatcher.done` subtracts one), and a partial packet
    leaves at whichever comes first — the moment nothing is in flight,
    or the earliest deadline among its requests.  A lone request on an
    idle server therefore never waits; under load, requests coalesce
    for up to ``max_wait`` while the pipeline is busy anyway.  ``0``
    means the batcher never waits on purpose — but requests that have
    *already* queued up (e.g. while the pipeline was busy) still
    coalesce up to ``max_batch``; packet width is therefore always
    load-dependent, which matters to bit-level reproducibility because
    BLAS rounding varies with packet width (see
    :mod:`repro.pipeline.inference`).  For guaranteed single-request
    packets use ``max_batch=1``.

``max_wait`` is also overridable **per request** (``submit(x,
max_wait=...)``), which is how the fleet's SLO classes price their
coalescing slack: a batch-class request tolerates the full deadline
behind a packet in flight, an interactive one passes ``0`` and forces
whatever is queued (including batch requests — they yield their slack)
to dispatch with it immediately.  The flush point is therefore the
*minimum* deadline over the queued requests, not the oldest request's
age.

Admission is **bounded and loud**: at most ``max_queue`` requests may be
pending, and a submit beyond that raises :class:`Overloaded` — the
explicit-backpressure contract (reject, never grow without bound, never
silently drop).  Request ids are monotone, assigned at admission, and
every admitted request is dispatched exactly once (or failed loudly at
close); the serving smoke test pins all three properties.

Shutdown comes in two strengths: :meth:`set_draining` stops admission
(new submits raise :class:`Overloaded`) while the consumer keeps
dispatching what was admitted — the state a replica sits in while the
fleet router hot-swaps its weights — and :meth:`close` is terminal
(stops admission for good *and* releases a blocked consumer so the
queue can drain to empty).
"""

from __future__ import annotations

import itertools
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field

import numpy as np


class Overloaded(RuntimeError):
    """The server's admission queue is full (or it is shutting down) —
    the caller should back off and retry, exactly like an HTTP 429."""


@dataclass
class PendingRequest:
    """One admitted request travelling batcher -> pipeline -> future."""

    request_id: int
    x: np.ndarray
    future: Future = field(default_factory=Future)
    #: monotonic seconds at admission (queue-wait accounting starts here)
    t_submit: float = 0.0
    #: monotonic seconds when the batcher dispatched it into a packet
    t_dispatch: float = 0.0
    #: monotonic seconds by which this request wants out of the queue
    #: (``t_submit`` + its effective ``max_wait``)
    t_deadline: float = 0.0
    #: SLO class tag (``None`` for untagged single-server traffic)
    slo_class: str | None = None


class DynamicBatcher:
    """Coalesce individual requests into micro-batch packets (module
    docstring).  One producer side (``submit``, any thread) and one
    consumer side: ``next_batch`` (the server's dispatcher thread) and
    one ``done`` per packet it returned, once that packet is back."""

    def __init__(
        self,
        max_batch: int = 8,
        max_wait: float = 0.002,
        max_queue: int = 64,
    ):
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_wait < 0:
            raise ValueError(f"max_wait must be >= 0, got {max_wait}")
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        self.max_batch = int(max_batch)
        self.max_wait = float(max_wait)
        self.max_queue = int(max_queue)
        self._in_flight = 0  # packets next_batch returned, not yet done()
        self._cond = threading.Condition()
        self._queue: list[PendingRequest] = []
        self._ids = itertools.count()
        self._closed = False
        self._draining = False
        self.rejected = 0
        self.admitted = 0

    # -- producer side ------------------------------------------------------

    def submit(
        self,
        x: np.ndarray,
        max_wait: float | None = None,
        slo_class: str | None = None,
    ) -> PendingRequest:
        """Admit one request; raises :class:`Overloaded` when the queue
        is full or the batcher is closed/draining.

        ``max_wait`` overrides the batcher-level coalescing deadline for
        this request only (``0`` = dispatch the next packet immediately,
        pulling any already-queued requests along); ``slo_class`` rides
        on the :class:`PendingRequest` for per-class accounting.

        ``x`` is copied here: a caller may reuse its buffer the moment
        ``submit`` returns."""
        if max_wait is not None and max_wait < 0:
            raise ValueError(f"max_wait must be >= 0, got {max_wait}")
        x = np.array(x)
        with self._cond:
            if self._closed:
                self.rejected += 1
                raise Overloaded("server is shutting down")
            if self._draining:
                self.rejected += 1
                raise Overloaded("server is draining")
            if len(self._queue) >= self.max_queue:
                self.rejected += 1
                raise Overloaded(
                    f"admission queue full ({self.max_queue} pending)"
                )
            now = time.monotonic()
            wait = self.max_wait if max_wait is None else float(max_wait)
            req = PendingRequest(
                request_id=next(self._ids),
                x=x,
                t_submit=now,
                t_deadline=now + wait,
                slo_class=slo_class,
            )
            self._queue.append(req)
            self.admitted += 1
            self._cond.notify_all()
            return req

    @property
    def pending(self) -> int:
        with self._cond:
            return len(self._queue)

    # -- consumer side ------------------------------------------------------

    def next_batch(self, timeout: float = 0.1) -> list[PendingRequest]:
        """Block until a packet is ready (full batch; partial with
        nothing in flight or some queued request's coalescing deadline
        expired), then return it — ``[]`` on timeout or when closed
        with nothing queued.  A returned packet counts as in flight
        until :meth:`done`.

        Dispatch order is FIFO: packets are consecutive admission-order
        slices, so request ids inside and across packets are monotone —
        a tight per-request deadline never reorders, it only flushes
        everything admitted before it sooner.
        """
        deadline = time.monotonic() + timeout
        with self._cond:
            while True:
                now = time.monotonic()
                if self._queue:
                    if len(self._queue) < self.max_batch and self._in_flight:
                        ready_at = min(r.t_deadline for r in self._queue)
                    else:
                        # full, or waiting would idle the pipeline
                        ready_at = now
                    if now >= ready_at or self._closed:
                        batch = self._queue[: self.max_batch]
                        del self._queue[: len(batch)]
                        for req in batch:
                            req.t_dispatch = now
                        self._in_flight += 1
                        return batch
                    # wake at whichever comes first: the packet's
                    # deadline or the caller's timeout
                    wait = min(ready_at - now, deadline - now)
                else:
                    if self._closed or now >= deadline:
                        return []
                    wait = deadline - now
                if wait <= 0:
                    # not ready and the caller's timeout has expired
                    return []
                self._cond.wait(wait)

    def done(self) -> None:
        """One packet returned by :meth:`next_batch` has come back out of
        the pipeline.  When none is left in flight, a queued partial
        packet is released at once instead of at its deadline."""
        with self._cond:
            if not self._in_flight:
                raise RuntimeError("done() with no packet in flight")
            self._in_flight -= 1
            if not self._in_flight:
                self._cond.notify_all()

    def set_draining(self, draining: bool = True) -> None:
        """Toggle the draining state: while draining, ``submit`` raises
        :class:`Overloaded` but ``next_batch`` keeps dispatching what
        was already admitted (nothing is dropped).  Reversible — a
        replica that finished a weight reload re-opens admission."""
        with self._cond:
            self._draining = bool(draining)
            self._cond.notify_all()

    @property
    def draining(self) -> bool:
        return self._draining

    def close(self) -> None:
        """Stop admitting; wake the consumer so it can drain what's
        left (queued requests still dispatch — closing never drops)."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    @property
    def closed(self) -> bool:
        return self._closed
