"""Set-up and the timed phases of one workload (runs in the child).

Every layer is driven from outside: public constructors and calls, timed
here, plus the stats objects those calls return.  ``recorder`` (the
traced run only) wraps the instances built here; see ``trace.py``.
"""

from __future__ import annotations

import contextlib
import math
import os
import threading
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.data.loader import ResumableSampleStream
from repro.data.synthetic import SyntheticCifar
from repro.pipeline import (
    capture_checkpoint,
    make_pipeline_engine,
    save_checkpoint,
)
from repro.serve import (
    FleetRouter,
    InferenceSession,
    PipelineServer,
    ReplicaSpec,
    SLOClass,
    assign_classes,
    rolling_reload,
)

from benchmarks.perf import loadgen
from benchmarks.perf.summary import (
    LATENCY_PCT,
    LOOP_RATE_PCT,
    TRAIN_RATE_PCT,
    percentile,
    summarize,
)
from benchmarks.perf.workloads import (
    E2E_RUNTIMES,
    POOL_SAMPLES,
    POOL_SEED,
    REQUEST_POOL,
    RUNTIMES,
    SERVE_BACKENDS,
    Workload,
    scaled,
)

#: samples the two served checkpoints are trained for (B trains on, so
#: the reload swaps genuinely different weights)
CKPT_SAMPLES = {"a": 64, "b": 128}
#: the interactive limit of the fleet SLO (the deadline of its class)
INTERACTIVE_LIMIT_MS = 50.0
#: the single-server p95 limit
SERVE_LIMIT_MS = 25.0
#: The timed phases run ``PASSES`` times round-robin, each pass a tenth
#: of every phase, so each metric samples ten windows spread over the
#: whole run.  The host slows down by a quarter for seconds to tens of
#: seconds at a time; a slowdown then taints one or two windows of every
#: metric instead of all of one metric's, and the estimators
#: (``summary.summarize``) look for the windows it spared.
PASSES = 10
#: open-loop requests per timed part (consecutive request ids): enough
#: for a 95th percentile to have two requests beyond it.  Closed-loop
#: parts and ``train()`` calls are sized per workload (``workloads.py``).
OPEN_PART = 40
#: range the ratio of a free-running pb tail loss to the simulator's
#: must stay in.  Free-running workers see *less* staleness than the
#: simulator's full eq.-5 delay, so this early in training (loss still
#: falling fast) they run up to 20 % ahead of it — 5 % either way would
#: only hold on much longer streams.  Behind it by a quarter, or ahead
#: by half, is a runtime that no longer trains the same model.
PB_TAIL_RATIO = (0.5, 1.25)
#: shortest stream on which the pb loss-trend checks run: below it
#: (smoke runs, the quarter-size layered pass of the big CNN) the
#: quarter-stream means are too noisy to be a correctness check
MIN_TREND_SAMPLES = 400


def slo_classes() -> dict:
    """The two classes ``benchmarks/bench_fleet.py`` serves (copied, not
    imported: that file is a pytest module)."""
    return {
        "interactive": SLOClass(
            "interactive", deadline_s=INTERACTIVE_LIMIT_MS / 1e3,
            max_wait_s=0.0, queue_share=0.5,
        ),
        "batch": SLOClass(
            "batch", deadline_s=1.0, max_wait_s=0.002, queue_share=1.0
        ),
    }


@dataclass
class Inputs:
    """What set-up generated from the seed; the program sees only this."""

    wl: Workload
    seed: int
    scale: float
    factory: Callable
    x_train: np.ndarray
    y_train: np.ndarray
    x_req: np.ndarray
    ckpt: dict  # "a"/"b" -> path
    ref: dict  # "a"/"b" -> reference logits of x_req
    rng: np.random.Generator
    stream: ResumableSampleStream

    def train_kwargs(self) -> dict:
        t = self.wl.train
        return dict(
            momentum=t.momentum, mode=t.mode, update_size=t.update_size,
            micro_batch_size=t.micro_batch,
        )

    def pass_calls(self, runtime: str) -> int:
        """``train()`` calls of ``runtime`` per pass (each is one part:
        the run's size changes their number, never their length)."""
        t = self.wl.train
        return scaled(
            t.samples[runtime], self.scale / (PASSES * t.call[runtime])
        )

    def stream_samples(self, runtime: str) -> int:
        """The same phase as one ``train()`` call (the layered pass)."""
        t = self.wl.train
        return scaled(t.samples[runtime], self.scale, t.update_size)


@contextlib.contextmanager
def one_cpu(turn: int = 0):
    """Pin this thread, and every thread it starts, to one CPU for the
    block; ``turn`` rotates through the CPUs the process may use, so the
    passes of a run do not all bet on the same one (on the baseline VM
    one vCPU is at times several times noisier than the other).

    Thread-backed phases run under it.  The GIL lets one thread run
    Python at a time wherever the threads sit, but left free on 2 CPUs
    the kernel's placement decides whether every GIL hand-off crosses
    cores, and the same code then runs in one of two modes (measured on
    the baseline box: threaded training 280-350 vs 600-900 samples/s,
    fleet closed loop 850-1000 vs 1600-2000 req/s) — a number that
    cannot gate anything.  One CPU is the steady mode, and the fast
    one.  Process-backed phases are never pinned: forked workers
    inherit the affinity, and using the other cores is their point."""
    if not hasattr(os, "sched_setaffinity"):
        yield
        return
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {sorted(allowed)[turn % len(allowed)]})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def placement(backend: str, turn: int = 0):
    """``one_cpu(turn)`` for thread-per-stage work; the single-threaded
    simulator and the process backends float (the kernel may move them
    off a disturbed CPU)."""
    if backend == "threaded":
        return one_cpu(turn)
    return contextlib.nullcontext()


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def build_inputs(wl: Workload, seed: int, scale: float, tmpdir: str) -> Inputs:
    """Synthesize the data pool, draw this seed's sample and request
    order from it, and train + save the two served checkpoints."""
    factory = wl.model_factory()
    # the longest stream any phase takes: the end-to-end pass's calls
    # (whole calls per pass) or the layered pass's single call
    need = max(CKPT_SAMPLES.values())
    for runtime, n in wl.train.samples.items():
        need = max(need, scaled(n, scale, wl.train.update_size))
    for runtime, call in wl.train.call.items():
        calls = scaled(wl.train.samples[runtime], scale / (PASSES * call))
        need = max(need, PASSES * call * calls)
    # a longer stream goes round the pool again, reshuffled per epoch:
    # synthesis is memory-bound work whose cost in set-up would
    # otherwise grow with the run (and swing with the host)
    size = min(need, POOL_SAMPLES)
    pool = SyntheticCifar(
        seed=POOL_SEED, image_size=wl.image_size, train_size=size,
        val_size=REQUEST_POOL,
    )
    rng = np.random.default_rng(seed)
    stream = ResumableSampleStream(
        pool.x_train, pool.y_train, epochs=-(-need // size), rng=rng
    )
    x_train, y_train = stream.next_chunk(need)
    x_req = pool.x_val[rng.permutation(REQUEST_POOL)]

    ckpt, ref = {}, {}
    engine = make_pipeline_engine(
        "sim", factory(), wl.train.lr, momentum=wl.train.momentum, mode="pb"
    )
    done = 0
    for tag, upto in CKPT_SAMPLES.items():
        engine.train(x_train[done:upto], y_train[done:upto])
        done = upto
        ckpt[tag] = save_checkpoint(
            os.path.join(tmpdir, f"{tag}.ckpt"), capture_checkpoint(engine)
        )
        session = InferenceSession.from_checkpoint(
            ckpt[tag], factory, micro_batch=wl.serve.max_batch,
            sample_shape=wl.sample_shape,
        )
        ref[tag] = session.forward_reference(x_req)
    return Inputs(
        wl=wl, seed=seed, scale=scale, factory=factory, x_train=x_train,
        y_train=y_train, x_req=x_req, ckpt=ckpt, ref=ref, rng=rng,
        stream=stream,
    )


def warm_up(inp: Inputs, layered: bool) -> None:
    """Build, start, exercise and stop every engine and server a timed
    phase will use (for the layered pass that is all of them, the
    process trainer and the fleet too), on throwaway models: first-call
    costs (BLAS init, scratch caches, forked workers' page faults) land
    here, and here they are part of ``setup_s``."""
    t = inp.wl.train
    n = max(t.update_size, 8)
    for runtime in RUNTIMES if layered else E2E_RUNTIMES:
        engine = make_pipeline_engine(
            runtime, inp.factory(), t.lr, **inp.train_kwargs()
        )
        with placement(runtime):
            engine.train(inp.x_train[:n], inp.y_train[:n])
    for backend in SERVE_BACKENDS:
        with placement(backend), _server(inp, backend) as server:
            loadgen.closed_loop(
                lambda x, _c: server.submit(x), inp.x_req,
                2 * inp.wl.serve.window, inp.wl.serve.window,
            )
    if not layered:
        return
    with one_cpu(), _router(inp) as router:
        loadgen.closed_loop(
            lambda x, c: router.submit(x, c).future, inp.x_req,
            2 * inp.wl.fleet.window, inp.wl.fleet.window,
            classes=_classes(inp, 2 * inp.wl.fleet.window),
        )


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------


class TrainPhase:
    """One runtime's timed training: a fresh model, then ``train()``
    calls on consecutive slices of the seed's sample order, each timed
    from outside (process launch + teardown included: users pay it per
    call)."""

    def __init__(self, inp: Inputs, runtime: str, lockstep: bool = False,
                 recorder=None):
        t = inp.wl.train
        self.inp = inp
        self.runtime = runtime
        self.engine = make_pipeline_engine(
            runtime, inp.factory(), t.lr, lockstep=lockstep,
            **inp.train_kwargs(),
        )
        if recorder is not None:
            recorder.wrap_engine(self.engine)
        self.walls: list[float] = []
        self.runs: list = []
        self.consumed = 0
        self.per_call = 0

    def run(
        self, calls: int, per_call: int | None = None, turn: int = 0
    ) -> "TrainPhase":
        inp = self.inp
        self.per_call = per_call or inp.wl.train.call[self.runtime]
        with placement(self.runtime, turn):
            for _ in range(calls):
                lo, hi = self.consumed, self.consumed + self.per_call
                t0 = time.perf_counter()
                self.runs.append(
                    self.engine.train(inp.x_train[lo:hi], inp.y_train[lo:hi])
                )
                self.walls.append(time.perf_counter() - t0)
                self.consumed = hi
        return self

    def result(self) -> dict:
        runtime, engine, total = self.runtime, self.engine, self.consumed
        losses = np.concatenate([r.losses for r in self.runs])
        expected = [total // self.inp.wl.train.update_size] * engine.num_stages
        checks = (
            (
                sum(r.samples for r in self.runs) == total
                and engine.samples_completed == total,
                f"{runtime}: completed {engine.samples_completed} of "
                f"{total} samples",
            ),
            (
                list(self.runs[-1].updates_per_stage) == expected,
                f"{runtime}: updates_per_stage "
                f"{self.runs[-1].updates_per_stage} != {expected}",
            ),
            (bool(np.isfinite(losses).all()), f"{runtime}: non-finite loss"),
        )
        return {
            "runtime": runtime,
            "samples": total,
            "walls": self.walls,
            "sps": summarize(
                [self.per_call / w for w in self.walls], TRAIN_RATE_PCT
            ),
            "losses": losses,
            "runs": self.runs,
            "failed_checks": [msg for ok, msg in checks if not ok],
        }


def loss_window(phase: dict, lo: int, hi: int) -> float:
    return float(phase["losses"][lo:hi].mean())


def cross_runtime_checks(inp: Inputs, phases: dict) -> list[str]:
    """Synchronous schedules: losses bit-equal across runtimes on the
    samples all of them saw.  Asynchronous pb: the tail is below the
    head, and the ratio of each free-running tail to the simulator's
    over the same sample window stays inside ``PB_TAIL_RATIO``."""
    failed = []
    common = min(p["samples"] for p in phases.values())
    sim = phases["sim"]
    if inp.wl.train.mode in ("gpipe", "fill_drain"):
        for runtime in (rt for rt in phases if rt != "sim"):
            if not np.array_equal(
                sim["losses"][:common], phases[runtime]["losses"][:common]
            ):
                failed.append(
                    f"{runtime}: losses differ from sim on the first "
                    f"{common} samples of a synchronous schedule"
                )
        return failed
    if common < MIN_TREND_SAMPLES:
        return failed  # too short a stream for a trend to be a check
    lo = common - common // 4
    for runtime, phase in phases.items():
        n = phase["samples"]
        if not loss_window(phase, n - n // 4, n) < loss_window(
            phase, 0, n // 4
        ):
            failed.append(f"{runtime}: tail loss not below head loss")
        if runtime != "sim":
            ratio = loss_window(phase, lo, common) / loss_window(
                sim, lo, common
            )
            if not PB_TAIL_RATIO[0] <= ratio <= PB_TAIL_RATIO[1]:
                failed.append(
                    f"{runtime}: tail loss {ratio:.3f}x the simulator's "
                    f"over samples [{lo}, {common})"
                )
    return failed


# ---------------------------------------------------------------------------
# single server
# ---------------------------------------------------------------------------


def _server(inp: Inputs, backend: str, recorder=None) -> PipelineServer:
    s = inp.wl.serve
    session = InferenceSession.from_checkpoint(
        inp.ckpt["a"], inp.factory, runtime=backend,
        micro_batch=s.max_batch, sample_shape=inp.wl.sample_shape,
    )
    if recorder is not None:
        recorder.wrap_session(session)
    server = PipelineServer(
        session, max_batch=s.max_batch, max_wait=s.max_wait,
        max_queue=s.max_queue,
    )
    if recorder is not None:
        recorder.wrap_batcher(server.batcher)
    return server


def _timing_stats(timings: list, run: loadgen.LoadRun, first_id: int) -> dict:
    """Queue-wait / pipeline-time split of one loop, from the server's
    own ``RequestTiming`` records (ms).  The loop's request ``i`` is the
    server's ``first_id + i`` (one submitter, monotone ids), which also
    gives each request's **overhead**: the client's latency minus the
    server's — submit call, future and callback hop, generator lag."""
    mine = {
        t.request_id - first_id: t
        for t in timings
        if first_id <= t.request_id < first_id + run.n
    }
    if not mine:
        return {}
    client = run.latencies_ms()
    qw = [t.queue_wait * 1e3 for t in mine.values()]
    pt = [t.pipeline_time * 1e3 for t in mine.values()]
    over = [client[i] - t.latency * 1e3 for i, t in mine.items()]
    return {
        "queue_wait_p50_ms": percentile(qw, 50),
        "queue_wait_p95_ms": percentile(qw, 95),
        "pipeline_p50_ms": percentile(pt, 50),
        "pipeline_p95_ms": percentile(pt, 95),
        "overhead_p50_ms": percentile(over, 50),
        "mean_batch_size": float(
            np.mean([t.batch_size for t in mine.values()])
        ),
        "n": len(mine),
    }


def serve_phase(
    inp: Inputs, backend: str, share: float = 1.0, turn: int = 0,
    recorder=None, loops: tuple = ("closed", "open"),
) -> dict:
    """One ``PipelineServer``: warm-up, closed loop (capacity), open
    loop (latency at a fixed rate), in-process ``submit()``; ``share``
    of the workload's request counts, on CPU ``turn`` if pinned.  A
    loop not named in ``loops`` runs empty."""
    s = inp.wl.serve
    scale = inp.scale * share
    n_closed = n_open = 0
    if "closed" in loops:
        n_closed = scaled(
            s.closed_requests[backend], scale, s.closed_part[backend]
        )
    if "open" in loops:
        n_open = scaled(s.open_requests, scale, OPEN_PART)
    n_warm = 4 * s.window
    server = _server(inp, backend, recorder)

    def submit(x, _cls):
        return server.submit(x)

    with placement(backend, turn), server:
        loadgen.closed_loop(submit, inp.x_req, n_warm, s.window)
        closed = loadgen.closed_loop(submit, inp.x_req, n_closed, s.window)
        open_ = loadgen.open_loop(
            submit, inp.x_req, n_open, s.open_rate, inp.rng
        )
        timings = server.stats.timings()
        snap = server.stats.snapshot()
    bad = loadgen.count_bad(closed.settle(), inp.ref["a"]) + loadgen.count_bad(
        open_.settle(), inp.ref["a"]
    )
    return {
        "backend": backend,
        "closed": closed,
        "closed_part": s.closed_part[backend],
        "open": open_,
        "closed_timing": _timing_stats(timings, closed, n_warm),
        "open_timing": _timing_stats(timings, open_, n_warm + n_closed),
        "rejected": server.batcher.rejected,
        "attempted": n_closed + n_open,
        "lost": closed.lost() + open_.lost(),
        "bad_outputs": bad,
        "failed_checks": [
            msg
            for ok, msg in (
                (bad == 0, f"serve[{backend}]: {bad} wrong outputs"),
                (
                    snap["failed"] == 0,
                    f"serve[{backend}]: {snap['failed']} failed requests",
                ),
            )
            if not ok
        ],
    }


def merge_loops(passes: list[dict], only_class: str | None = None) -> dict:
    """Fold the per-pass results of one serve or fleet phase: rates over
    all passes' closed-loop parts, latency percentiles over all passes'
    open-loop parts (``only_class`` keeps one SLO class), counts and
    failed checks summed."""
    closed = [ph["closed"] for ph in passes if ph["closed"].n]
    opens = [ph["open"] for ph in passes if ph["open"].n]
    rates = [
        r
        for ph in passes
        if ph["closed"].n
        for r in ph["closed"].part_rates(ph["closed"].n // ph["closed_part"])
    ]

    def latency(pct: float) -> dict | None:
        if not opens:
            return None
        return summarize(
            [
                v
                for run in opens
                for v in run.part_percentiles(
                    pct, run.n // OPEN_PART, only_class
                )
            ],
            LATENCY_PCT,
        )

    return {
        "rate": summarize(rates, LOOP_RATE_PCT) if rates else None,
        "p50": latency(50),
        "p95": latency(95),
        "late_p99_ms": percentile(
            np.concatenate([run.late_ms() for run in opens]), 99
        ) if opens else math.nan,
        "closed_n": sum(run.n for run in closed),
        "closed_s": sum(run.span_s() for run in closed),
        "open_n": sum(run.n for run in opens),
        "open_s": sum(run.span_s() for run in opens),
        "attempted": sum(ph["attempted"] for ph in passes),
        "lost": sum(ph["lost"] + ph["bad_outputs"] for ph in passes),
        "failed_checks": [m for ph in passes for m in ph["failed_checks"]],
    }


# ---------------------------------------------------------------------------
# fleet
# ---------------------------------------------------------------------------


def _classes(inp: Inputs, n: int) -> list:
    by_id = assign_classes(n, inp.wl.fleet.mix)
    return [by_id[i] for i in range(n)]


def _router(inp: Inputs) -> FleetRouter:
    f = inp.wl.fleet
    spec = ReplicaSpec(
        model_factory=inp.factory, sample_shape=inp.wl.sample_shape,
        runtime="sim", micro_batch=inp.wl.serve.max_batch,
        max_queue=f.max_queue,
    )
    return FleetRouter(
        spec, f.replicas, checkpoint=inp.ckpt["a"], classes=slo_classes()
    )


def fleet_phase(inp: Inputs, reload: bool = True, recorder=None) -> dict:
    """Two sim-backend replicas from checkpoint A behind a
    ``FleetRouter``, on one CPU: closed loop, then an open loop.  With
    ``reload``, ``rolling_reload`` to checkpoint B runs on a second
    thread, ``reload_at`` of the way into the open loop — or after the
    loop where the workload says so."""
    f = inp.wl.fleet
    n_closed = scaled(f.closed_requests, inp.scale, f.closed_part)
    n_open = scaled(f.open_requests, inp.scale, OPEN_PART)
    n_warm = 4 * f.window
    swap: dict = {}
    swapper: list[threading.Thread] = []

    def do_reload(wait_until: float) -> None:
        time.sleep(max(0.0, wait_until - time.monotonic()))
        swap["t0"] = time.monotonic()
        swap["report"] = rolling_reload(router, inp.ckpt["b"])
        swap["t1"] = time.monotonic()

    def started(t0: float) -> None:
        if reload and f.reload_at is not None:
            at = t0 + f.reload_at * n_open / f.open_rate
            swapper.append(
                threading.Thread(
                    target=do_reload, args=(at,), name="perf-reload"
                )
            )
            swapper[0].start()

    with one_cpu(), _router(inp) as router:
        if recorder is not None:
            recorder.wrap_router(router)

        def submit(x, cls):
            return router.submit(x, cls).future

        loadgen.closed_loop(
            submit, inp.x_req, n_warm, f.window, _classes(inp, n_warm)
        )
        closed = loadgen.closed_loop(
            submit, inp.x_req, n_closed, f.window, _classes(inp, n_closed)
        )
        open_ = loadgen.open_loop(
            submit, inp.x_req, n_open, f.open_rate, inp.rng,
            _classes(inp, n_open), started,
        )
        for thread in swapper:
            thread.join()
        if reload and f.reload_at is None:
            do_reload(0.0)
        deadline = time.monotonic() + 10.0
        while router.outstanding and time.monotonic() < deadline:
            time.sleep(1e-3)
        snap = router.snapshot()
        timings = router.stats.timings()
        retries = sum(r.server.stats.rejected for r in router.replicas.values())
    bad = loadgen.count_bad(
        closed.settle(), inp.ref["a"]
    ) + loadgen.count_bad(open_.settle(), inp.ref["a"], inp.ref["b"])
    checks = [
        (bad == 0, f"fleet: {bad} answers match neither checkpoint"),
        (
            snap["submitted"] == snap["resolved"],
            f"fleet: submitted {snap['submitted']} != resolved "
            f"{snap['resolved']}",
        ),
        (
            snap["duplicates"] == 0,
            f"fleet: {snap['duplicates']} duplicate resolutions",
        ),
        (snap["failed"] == 0, f"fleet: {snap['failed']} failed"),
    ]
    if reload:
        report = swap["report"]
        checks.append(
            (
                report.min_ready_observed >= 1
                and report.replicas_swapped == f.replicas,
                f"fleet: reload swapped {report.replicas_swapped}, "
                f"min ready {report.min_ready_observed}",
            )
        )
    return {
        "closed": closed,
        "closed_part": f.closed_part,
        "open": open_,
        "snapshot": snap,
        "open_timing": _timing_stats(timings, open_, n_warm + n_closed),
        "reload": swap,
        "retries": retries,
        "attempted": n_closed + n_open,
        "lost": closed.lost() + open_.lost(),
        "bad_outputs": bad,
        "failed_checks": [msg for ok, msg in checks if not ok],
    }
