"""Load from ONE generator thread: windowed closed loop, Poisson open loop.

``repro.serve.loadgen.run_closed_loop`` spawns a thread per client,
which on a 2-core box measures the scheduler as much as the server.
Here a single thread submits and ``Future`` done-callbacks (run on the
server's collector thread) stamp completions, so the load side costs
one thread whatever the window or rate.

* **closed loop** — keep ``window`` requests in flight: the next one is
  sent when a completion frees a slot.  Offered load follows the
  server, so this measures capacity.
* **open loop** — Poisson arrivals at a fixed rate drawn from the
  workload seed, sent whether or not earlier requests have finished.
  Each request is timed from the instant it was **due**, so a stall
  charges the requests queued behind it, and the generator's own
  lateness (``sent - due``) is reported.

A refused (``Overloaded``), failed or never-answered request keeps an
infinite latency: it misses every limit.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.serve.batcher import Overloaded

from benchmarks.perf.summary import percentile

#: seconds the run waits for the last answers before counting them lost
DRAIN_TIMEOUT = 60.0


@dataclass
class LoadRun:
    """Per-request stamps of one loop (monotonic seconds, index = id)."""

    due: np.ndarray
    sent: np.ndarray
    done: np.ndarray  # nan until answered
    futures: list = field(default_factory=list)  # None where refused
    classes: list = field(default_factory=list)
    #: set by ``settle``: which requests were answered
    ok: np.ndarray | None = None

    @property
    def n(self) -> int:
        return int(self.due.shape[0])

    def settle(self) -> dict:
        """Once the loop has drained: note which requests were answered,
        let go of the futures (a run keeps thousands, and what the parent
        holds every forked worker holds too) and hand back request id ->
        logits row for every answered request."""
        outputs = {
            i: fut.result()
            for i, fut in enumerate(self.futures)
            if fut is not None and fut.done() and fut.exception() is None
        }
        self.ok = np.zeros(self.n, dtype=bool)
        self.ok[np.fromiter(outputs, dtype=np.int64, count=len(outputs))] = True
        self.futures = []
        return outputs

    def latencies_ms(self) -> np.ndarray:
        """``done - due`` in ms; ``inf`` where no answer came back."""
        lat = (self.done - self.due) * 1e3
        lat[~(self.ok & np.isfinite(lat))] = math.inf
        return lat

    def lost(self) -> int:
        """Requests refused, failed or never answered."""
        return int(self.n - np.count_nonzero(self.ok))

    def late_ms(self) -> np.ndarray:
        """How late the generator sent each request (open loop)."""
        return (self.sent - self.due) * 1e3

    def span_s(self) -> float:
        """First send to last answer (0 for a loop that ran empty)."""
        if not self.n:
            return 0.0
        return float(np.nanmax(self.done) - self.sent[0])

    def part_rates(self, parts: int) -> list[float]:
        """Completions per second of each of ``parts`` equal groups of
        consecutive completions."""
        done = np.sort(self.done[np.isfinite(self.done)])
        edges = np.linspace(0, done.size, parts + 1).astype(int)
        rates, t_prev = [], float(self.sent[0])
        for a, b in zip(edges[:-1], edges[1:]):
            if b <= a:
                continue
            rates.append((b - a) / max(done[b - 1] - t_prev, 1e-9))
            t_prev = float(done[b - 1])
        return rates

    def part_percentiles(
        self, pct: float, parts: int, only_class: str | None = None
    ) -> list[float]:
        """``pct``-th latency percentile of each of ``parts`` equal
        groups of consecutive request ids, over the requests of
        ``only_class`` when given."""
        lat = self.latencies_ms()
        if only_class is not None:
            lat = lat[np.array(self.classes) == only_class]
        return [
            percentile(part, pct)
            for part in np.array_split(lat, parts)
            if part.size
        ]


def _submit_one(run: LoadRun, i: int, submit, x, on_done) -> bool:
    try:
        fut = submit(x, run.classes[i])
    except Overloaded:
        return False  # refused: no future, infinite latency
    run.futures[i] = fut
    fut.add_done_callback(lambda _f, i=i: on_done(i))
    return True


def _drain(run: LoadRun) -> None:
    deadline = time.monotonic() + DRAIN_TIMEOUT
    for fut in run.futures:
        if fut is None:
            continue
        try:
            fut.exception(timeout=max(0.0, deadline - time.monotonic()))
        except TimeoutError:
            break  # the rest stay infinite: counted as lost


def _new_run(n: int, classes: Sequence | None) -> LoadRun:
    return LoadRun(
        due=np.full(n, np.nan),
        sent=np.full(n, np.nan),
        done=np.full(n, np.nan),
        futures=[None] * n,
        classes=list(classes) if classes is not None else [None] * n,
    )


def closed_loop(
    submit: Callable,
    x_pool: np.ndarray,
    n: int,
    window: int,
    classes: Sequence | None = None,
) -> LoadRun:
    """``n`` requests with ``window`` in flight; ``submit(x, cls)``
    returns a Future.  Request ``i`` carries ``x_pool[i % len]``."""
    run = _new_run(n, classes)
    slots = threading.Semaphore(window)
    pool = x_pool.shape[0]

    def on_done(i: int) -> None:
        run.done[i] = time.monotonic()
        slots.release()

    def generate() -> None:
        for i in range(n):
            if not slots.acquire(timeout=DRAIN_TIMEOUT):
                return  # server stalled: the rest are lost
            run.due[i] = run.sent[i] = time.monotonic()
            if not _submit_one(run, i, submit, x_pool[i % pool], on_done):
                slots.release()

    thread = threading.Thread(target=generate, name="perf-loadgen")
    thread.start()
    thread.join()
    _drain(run)
    return run


def open_loop(
    submit: Callable,
    x_pool: np.ndarray,
    n: int,
    rate: float,
    rng: np.random.Generator,
    classes: Sequence | None = None,
    started: Callable[[float], None] | None = None,
) -> LoadRun:
    """``n`` Poisson arrivals at ``rate`` per second (gaps drawn from
    ``rng``).  ``started(t0)`` is told the loop's zero instant."""
    run = _new_run(n, classes)
    offsets = np.cumsum(rng.exponential(1.0 / rate, size=n))
    pool = x_pool.shape[0]

    def on_done(i: int) -> None:
        run.done[i] = time.monotonic()

    def generate() -> None:
        t0 = time.monotonic() + 0.01
        if started is not None:
            started(t0)
        for i in range(n):
            run.due[i] = t0 + offsets[i]
            delay = run.due[i] - time.monotonic()
            if delay > 0:
                time.sleep(delay)
            run.sent[i] = time.monotonic()
            _submit_one(run, i, submit, x_pool[i % pool], on_done)

    thread = threading.Thread(target=generate, name="perf-loadgen")
    thread.start()
    thread.join()
    _drain(run)
    return run


def count_bad(outputs: dict, *references: np.ndarray) -> int:
    """Answers that match none of ``references`` (each indexed by
    ``request id % pool``) — the criteria of
    ``repro.serve.loadgen.count_bad_outputs`` (same argmax, logits
    within rtol 1e-9 / atol 1e-12), vectorised, and with more than one
    acceptable reference so a fleet answer may come from checkpoint A
    or B."""
    if not outputs:
        return 0
    ids = np.fromiter(outputs, dtype=np.int64)
    got = np.stack([outputs[i] for i in ids])
    ok = np.zeros(ids.size, dtype=bool)
    for ref in references:
        want = ref[ids % ref.shape[0]]
        ok |= (got.argmax(axis=1) == want.argmax(axis=1)) & np.isclose(
            got, want, rtol=1e-9, atol=1e-12
        ).all(axis=1)
    return int(np.count_nonzero(~ok))
