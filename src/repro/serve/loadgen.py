"""Closed-loop load generation and the sequential-forward baseline.

The serving question is the paper's question at inference time: does
pipelining + micro-batching beat one-request-at-a-time forward
execution under real load?  The harness here answers it with a
**closed-loop** generator: ``concurrency`` client threads, each holding
exactly one request in flight — submit, wait for the logits, submit the
next.  Offered load therefore adapts to the server (the classic
closed-loop property), and sweeping ``concurrency`` sweeps offered load.

Rejections (:class:`~repro.serve.batcher.Overloaded`) are counted and
**retried after a backoff** — a closed-loop client never abandons its
request, so a run completes exactly ``num_requests`` responses or fails
loudly; silent drops are structurally impossible.

The baseline (:class:`SequentialServer`) is the no-pipeline strawman
``examples/serving_demo.py`` compares against: a lock around a
single-request ``model.forward``.  It is measured through the *same*
closed-loop harness, so its p99 honestly includes the queueing delay
sequential execution imposes on concurrent clients.

For the serving fleet, :func:`run_classed_loop` drives the same
closed-loop discipline with a **deterministic SLO-class mix**: each
request id maps to a class (``interactive`` / ``batch`` / whatever the
mix names) by its id modulo 100, so a run's id -> class assignment is
reproducible and per-class latency percentiles are comparable across
sweeps.  Per-class results come back as ordinary
:class:`LoadGenResult` rows inside a :class:`ClassedLoadResult`.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.serve.batcher import Overloaded
from repro.tensor.tensor import Tensor, no_grad


@dataclass
class LoadGenResult:
    """Outcome of one closed-loop run (seconds unless suffixed)."""

    label: str
    num_requests: int
    concurrency: int
    duration_s: float
    throughput_rps: float
    latency_p50: float
    latency_p95: float
    latency_p99: float
    rejected_retries: int
    #: request_id -> logits row, for response-correctness checks
    outputs: dict = field(default_factory=dict)
    #: request_id -> end-to-end latency (seconds), for per-class splits
    latency_of: dict = field(default_factory=dict)
    #: request_id -> Overloaded retries that request burned
    retries_of: dict = field(default_factory=dict)

    def as_row(self) -> dict:
        return {
            "label": self.label,
            "requests": self.num_requests,
            "concurrency": self.concurrency,
            "throughput_rps": round(self.throughput_rps, 2),
            "p50_ms": round(self.latency_p50 * 1e3, 3),
            "p95_ms": round(self.latency_p95 * 1e3, 3),
            "p99_ms": round(self.latency_p99 * 1e3, 3),
            "rejected_retries": self.rejected_retries,
        }


def count_bad_outputs(
    outputs: dict,
    reference: np.ndarray,
    pool_size: int,
    rtol: float = 1e-9,
    atol: float = 1e-12,
) -> int:
    """Responses from a :class:`LoadGenResult` that disagree with the
    offline reference: wrong argmax (prediction-level, zero tolerance)
    or logits outside ``rtol/atol`` of ``reference[rid % pool_size]``.

    Dynamic batch composition varies with timing while BLAS rounding
    varies with GEMM width, so loadgen-level checks use this
    tolerance-based form; the *bit-level* contract (same packets ->
    same bits) is pinned separately in ``tests/test_serve_session.py``.
    """
    bad = 0
    for rid, logits in outputs.items():
        want = reference[rid % pool_size]
        if np.argmax(logits) != np.argmax(want) or not np.allclose(
            logits, want, rtol=rtol, atol=atol
        ):
            bad += 1
    return bad


class SequentialServer:
    """The no-pipeline baseline: one request at a time through
    ``model.forward`` (eval mode, no grad), serialized by a lock —
    submit blocks until the logits are ready."""

    def __init__(self, model):
        from repro.pipeline.inference import modules_eval_mode

        self.model = model
        self._lock = threading.Lock()
        self._eval_guard = modules_eval_mode([model])
        self._eval_guard.__enter__()

    def infer_one(self, x: np.ndarray) -> np.ndarray:
        with self._lock:
            with no_grad():
                return self.model(Tensor(np.asarray(x)[None])).data[0]

    def close(self) -> None:
        if self._eval_guard is not None:
            self._eval_guard.__exit__(None, None, None)
            self._eval_guard = None


@dataclass
class ClassedLoadResult:
    """Outcome of one mixed SLO-class closed-loop run."""

    combined: LoadGenResult
    per_class: "dict[str, LoadGenResult]"
    #: request_id -> class name, the run's deterministic assignment
    class_of: dict = field(default_factory=dict)


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


def run_classed_loop(
    submit_fn,
    x_pool: np.ndarray,
    num_requests: int,
    concurrency: int = 4,
    mix: "dict[str, float] | None" = None,
    label: str = "classed",
    retry_backoff: float = 1e-4,
    timeout: float = 120.0,
) -> ClassedLoadResult:
    """Closed-loop run with a deterministic SLO-class mix.

    ``submit_fn(x, slo_class) -> logits`` must block until the response
    is ready (:meth:`FleetRouter.infer_one`); ``mix`` weights classes
    by share of requests (default 70% interactive / 30% batch).
    Per-class latencies split out of the same run, so the combined and
    per-class rows describe identical traffic.
    """
    mix = {"interactive": 0.7, "batch": 0.3} if mix is None else mix
    class_of = assign_classes(num_requests, mix)
    combined = run_closed_loop(
        None,
        x_pool,
        num_requests,
        concurrency=concurrency,
        label=label,
        retry_backoff=retry_backoff,
        timeout=timeout,
        submit_with_rid=lambda x, rid: submit_fn(x, class_of[rid]),
    )
    per_class: dict[str, LoadGenResult] = {}
    for cls in sorted(set(class_of.values())):
        rids = [r for r in combined.outputs if class_of[r] == cls]
        lats = [combined.latency_of[r] for r in rids]
        if not lats:
            continue
        arr = np.asarray(lats)
        p50, p95, p99 = np.percentile(arr, [50.0, 95.0, 99.0])
        per_class[cls] = LoadGenResult(
            label=f"{label}/{cls}",
            num_requests=len(rids),
            concurrency=concurrency,
            duration_s=combined.duration_s,
            throughput_rps=(
                len(rids) / combined.duration_s
                if combined.duration_s > 0
                else 0.0
            ),
            latency_p50=float(p50),
            latency_p95=float(p95),
            latency_p99=float(p99),
            rejected_retries=sum(
                combined.retries_of.get(r, 0) for r in rids
            ),
            outputs={r: combined.outputs[r] for r in rids},
            latency_of={r: combined.latency_of[r] for r in rids},
            retries_of={
                r: combined.retries_of.get(r, 0) for r in rids
            },
        )
    return ClassedLoadResult(
        combined=combined, per_class=per_class, class_of=class_of
    )


def run_closed_loop(
    submit_fn,
    x_pool: np.ndarray,
    num_requests: int,
    concurrency: int = 4,
    label: str = "run",
    retry_backoff: float = 1e-4,
    timeout: float = 120.0,
    submit_with_rid=None,
) -> LoadGenResult:
    """Drive ``num_requests`` requests through ``submit_fn`` with
    ``concurrency`` closed-loop clients.

    ``submit_fn(x) -> logits`` must block until the response is ready
    (:meth:`PipelineServer.infer_one` or
    :meth:`SequentialServer.infer_one`); an :class:`Overloaded` raise is
    counted and retried with exponential backoff starting at
    ``retry_backoff`` seconds (capped at 50 ms).  Inputs are
    drawn round-robin from ``x_pool`` by request id, so a run's request
    -> input mapping is deterministic and the outputs dict can be
    checked against an offline reference.

    ``submit_with_rid(x, rid) -> logits`` (exclusive with
    ``submit_fn``) additionally hands each client its request id — the
    hook :func:`run_classed_loop` uses to route by SLO class.
    """
    if num_requests < 1:
        raise ValueError(f"num_requests must be >= 1, got {num_requests}")
    if (submit_fn is None) == (submit_with_rid is None):
        raise ValueError(
            "pass exactly one of submit_fn / submit_with_rid"
        )
    concurrency = max(1, min(int(concurrency), num_requests))
    counter = iter(range(num_requests))
    counter_lock = threading.Lock()
    latencies: list[float] = []
    latency_of: dict[int, float] = {}
    retries_of: dict[int, int] = {}
    outputs: dict[int, np.ndarray] = {}
    results_lock = threading.Lock()
    rejected = [0]
    errors: list[BaseException] = []
    deadline = time.monotonic() + timeout

    def client() -> None:
        while True:
            with counter_lock:
                rid = next(counter, None)
            if rid is None:
                return
            x = x_pool[rid % x_pool.shape[0]]
            t0 = time.monotonic()
            attempt = 0
            while True:
                try:
                    if submit_with_rid is not None:
                        logits = submit_with_rid(x, rid)
                    else:
                        logits = submit_fn(x)
                    break
                except Overloaded:
                    with results_lock:
                        rejected[0] += 1
                        retries_of[rid] = retries_of.get(rid, 0) + 1
                    if time.monotonic() >= deadline:
                        errors.append(
                            TimeoutError(
                                f"request {rid} starved past {timeout}s of "
                                "Overloaded retries"
                            )
                        )
                        return
                    # exponential backoff (capped): a flat retry delay
                    # lets N rejected clients spin-hammer the server in
                    # lockstep, burning the CPU the pipeline needs to
                    # drain the very queue that rejected them
                    attempt += 1
                    time.sleep(
                        min(retry_backoff * (2 ** (attempt - 1)), 0.05)
                    )
                except BaseException as exc:
                    errors.append(exc)
                    return
            latency = time.monotonic() - t0
            with results_lock:
                latencies.append(latency)
                latency_of[rid] = latency
                outputs[rid] = np.asarray(logits)

    threads = [
        threading.Thread(target=client, name=f"loadgen-{i}", daemon=True)
        for i in range(concurrency)
    ]
    t_start = time.monotonic()
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout)
    duration = time.monotonic() - t_start
    if errors:
        raise RuntimeError(
            f"load generator hit {len(errors)} errors; first: {errors[0]!r}"
        ) from errors[0]
    if len(outputs) != num_requests:
        raise RuntimeError(
            f"load generator lost requests: {len(outputs)} responses for "
            f"{num_requests} requests"
        )
    arr = np.asarray(latencies)
    p50, p95, p99 = np.percentile(arr, [50.0, 95.0, 99.0])
    return LoadGenResult(
        label=label,
        num_requests=num_requests,
        concurrency=concurrency,
        duration_s=duration,
        throughput_rps=num_requests / duration if duration > 0 else 0.0,
        latency_p50=float(p50),
        latency_p95=float(p95),
        latency_p99=float(p99),
        rejected_retries=rejected[0],
        outputs=outputs,
        latency_of=latency_of,
        retries_of=retries_of,
    )
