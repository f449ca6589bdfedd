"""Closed-loop load from one generator thread, and the sequential baseline.

The serving question is the paper's question at inference time: does
pipelining + micro-batching beat one-request-at-a-time forward
execution under load?  :func:`closed_loop` answers it with a **closed
loop** driven from the calling thread: it keeps ``window`` requests in
flight and sends the next one when a completion frees a slot.  Offered
load therefore follows the server (the closed-loop property), and
sweeping ``window`` sweeps offered load.  Each Future's done-callback,
run on the server's collector thread, stamps the completion, so the
load side adds no thread however wide the window: a thread per client
would measure the OS scheduler as much as the server on a small host.

A refused request (:class:`~repro.serve.batcher.Overloaded`) is retried
after a capped exponential backoff, and the retry is counted against
its id.  A closed loop abandons nothing: a run returns exactly ``n``
answers, or raises on a request still refused after :data:`STARVE_S`
and on a failed Future (the first error chained).

With ``classes`` (e.g. :func:`assign_classes`, a deterministic
id -> SLO-class map) every request carries its class, and
:meth:`LoadRun.row` splits any class out of the same run, so the
combined and per-class rows describe identical traffic.

The baseline (:class:`SequentialServer`) is the no-pipeline strawman
``examples/serving_demo.py`` compares against: one worker thread runs
single-request forwards one at a time.  It is driven by the same loop,
so its p99 includes the queueing that sequential execution imposes on
a window of concurrent requests.
"""

from __future__ import annotations

import time
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from threading import Semaphore
from typing import Callable, Sequence

import numpy as np

from repro.nn.module import modules_eval_mode
from repro.serve.batcher import Overloaded
from repro.tensor.tensor import Tensor, no_grad

#: first backoff after an ``Overloaded`` refusal; doubles per retry
RETRY_START_S = 1e-4
#: the backoff never exceeds this
RETRY_CAP_S = 0.05
#: a request refused this long, or a full window unanswered this long,
#: fails the run
STARVE_S = 120.0


@dataclass
class LoadRun:
    """Per-request record of one closed loop (index = request id,
    monotonic seconds)."""

    window: int
    sent: np.ndarray  # first submit attempt
    done: np.ndarray  # stamped by the Future's done-callback
    retries: np.ndarray  # Overloaded refusals before admission
    classes: list
    #: request id -> logits row
    outputs: dict = field(default_factory=dict)

    def row(self, label: str, only_class: str | None = None) -> dict:
        """Throughput, latency percentiles and retries of the run, or of
        the requests of ``only_class``; throughput is over the whole
        run's span (first send to last answer)."""
        mask = np.array(
            [only_class is None or c == only_class for c in self.classes]
        )
        requests = int(np.count_nonzero(mask))
        p50, p95, p99 = np.percentile(
            (self.done - self.sent)[mask], [50.0, 95.0, 99.0]
        )
        span = float(self.done.max() - self.sent.min())
        return {
            "label": label,
            "requests": requests,
            "concurrency": self.window,
            "throughput_rps": round(requests / span if span > 0 else 0.0, 2),
            "p50_ms": round(p50 * 1e3, 3),
            "p95_ms": round(p95 * 1e3, 3),
            "p99_ms": round(p99 * 1e3, 3),
            "rejected_retries": int(self.retries[mask].sum()),
        }


def closed_loop(
    submit: Callable[..., Future],
    x_pool: np.ndarray,
    n: int,
    window: int,
    classes: Sequence | None = None,
) -> LoadRun:
    """Send ``n`` requests from the calling thread, at most ``window``
    in flight; request ``i`` carries ``x_pool[i % len(x_pool)]``.

    ``submit(x) -> Future`` (:meth:`PipelineServer.submit`,
    :meth:`SequentialServer.submit`), or ``submit(x, classes[i])`` when
    ``classes`` is given (``lambda x, c: router.submit(x, c).future``).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    run = LoadRun(
        window=min(window, n),
        sent=np.full(n, np.nan),
        done=np.full(n, np.nan),
        retries=np.zeros(n, dtype=np.int64),
        classes=[None if classes is None else classes[i] for i in range(n)],
    )
    slots = Semaphore(run.window)
    errors: list[BaseException] = []

    def on_done(i: int, fut: Future) -> None:
        run.done[i] = time.monotonic()
        try:
            run.outputs[i] = fut.result()
        except BaseException as exc:
            errors.append(exc)
        finally:
            slots.release()

    def take_slot() -> None:
        if not slots.acquire(timeout=STARVE_S):
            raise TimeoutError(
                f"no answer in {STARVE_S}s with {run.window} requests "
                "in flight"
            )
        if errors:
            raise RuntimeError(
                f"load generator saw {len(errors)} failed requests; "
                f"first: {errors[0]!r}"
            ) from errors[0]

    for i in range(n):
        take_slot()
        x = x_pool[i % len(x_pool)]
        args = (x,) if classes is None else (x, run.classes[i])
        run.sent[i] = time.monotonic()
        backoff = RETRY_START_S
        while True:
            try:
                fut = submit(*args)
                break
            except Overloaded:
                run.retries[i] += 1
                if time.monotonic() - run.sent[i] >= STARVE_S:
                    raise TimeoutError(
                        f"request {i} still refused after {STARVE_S}s"
                    ) from None
                # capped exponential backoff: a flat delay would hammer
                # the server, burning the CPU its pipeline needs to
                # drain the very queue that refused the request
                time.sleep(backoff)
                backoff = min(2 * backoff, RETRY_CAP_S)
        fut.add_done_callback(partial(on_done, i))
    for _ in range(run.window):
        take_slot()
    return run


class SequentialServer:
    """The no-pipeline baseline: one worker thread runs single-request
    ``model.forward`` calls (eval mode, no grad) one at a time, so
    requests in flight queue behind a single forward."""

    def __init__(self, model):
        self.model = model
        self._worker = ThreadPoolExecutor(1, thread_name_prefix="sequential")
        self._eval_guard = modules_eval_mode([model])
        self._eval_guard.__enter__()

    def _forward(self, x: np.ndarray) -> np.ndarray:
        with no_grad():
            return self.model(Tensor(x[None])).data[0]

    def submit(self, x: np.ndarray) -> Future:
        # copied now: the caller may reuse its buffer before the forward
        return self._worker.submit(self._forward, np.array(x))

    def close(self) -> None:
        self._worker.shutdown()
        if self._eval_guard is not None:
            self._eval_guard.__exit__(None, None, None)
            self._eval_guard = None


def assign_classes(num_requests: int, mix: "dict[str, float]") -> dict:
    """Deterministic request id -> class map, proportionally
    *interleaved* (largest-deficit rule over ``rid % 100``): e.g.
    ``{"interactive": 0.7, "batch": 0.3}`` scatters 30 batch ids
    through every hundred instead of blocking them, so even short runs
    see the mix — stable across runs and sweep points."""
    if not mix:
        raise ValueError("mix must name at least one class")
    total = float(sum(mix.values()))
    if total <= 0:
        raise ValueError(f"mix weights must sum > 0, got {mix}")
    names = sorted(mix)
    counts = {name: 0 for name in names}
    table = {}
    for rid in range(100):
        # the class whose assigned share lags its target the most
        name = max(
            names,
            key=lambda n: mix[n] / total * (rid + 1) - counts[n],
        )
        table[rid] = name
        counts[name] += 1
    return {rid: table[rid % 100] for rid in range(num_requests)}
