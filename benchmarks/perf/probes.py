"""Per-layer probes: public calls timed from outside at real shapes.

Each probe warms up, then times at least ``MIN_CALLS`` calls (fewer only
where one call costs milliseconds — the count is always reported) and
returns the median in the metric's unit plus the call count.  Tensor
probes run at two fixed reference shapes — the paper-regime conv
(``pb_cnn_b1``'s first stage at packet size 1) and the MLP GEMM
(``gpipe_mlp_mb16``'s hidden layer at packet size 16) — so they compare
across workloads; every other probe uses the running workload's model,
packet width and boundary payloads.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import statistics
import time
import tracemalloc

import numpy as np

from repro.data.loader import ResumableSampleStream
from repro.optim import SGDM
from repro.pipeline import (
    InferenceSchedule,
    build_pipeline_rings,
    capture_checkpoint,
    load_checkpoint,
    make_pipeline_engine,
    model_fingerprint,
    probe_boundary_layouts,
    restore_checkpoint,
    run_inference,
    save_checkpoint,
)
from repro.pipeline.executor import softmax_xent_grad_batch
from repro.pipeline.transport import ShmRing
from repro.serve import DynamicBatcher, InferenceSession
from repro.tensor import Tensor, conv2d, matmul

from benchmarks.perf.phases import Inputs
from benchmarks.perf.workloads import TRACE_SCALE

MIN_CALLS = 200
RING_TIMEOUT_S = 30.0


def calls_for(inp: Inputs, full: int = MIN_CALLS) -> int:
    """``full`` calls at the layered pass's normal size; proportionally
    fewer, never under 20, on a smaller run (``--smoke``) for the probes
    whose one call costs milliseconds."""
    share = min(1.0, inp.scale / TRACE_SCALE)
    return max(min(20, full), round(full * share))


def _median_us(samples_s: list[float]) -> tuple[float, int, str]:
    return statistics.median(samples_s) * 1e6, len(samples_s), "us"


def _median_ms(samples_s: list[float]) -> tuple[float, int, str]:
    return statistics.median(samples_s) * 1e3, len(samples_s), "ms"


def _time_calls(fn, calls: int = MIN_CALLS, warm: int = 10):
    """Median µs of ``calls`` calls after ``warm`` untimed ones."""
    for _ in range(warm):
        fn()
    out = []
    for _ in range(calls):
        t0 = time.perf_counter()
        fn()
        out.append(time.perf_counter() - t0)
    return _median_us(out)


# -- tensor -----------------------------------------------------------------


def _fwd_bwd(make_output, leaves: list[Tensor], grad: np.ndarray):
    """Median forward and backward µs of one op, timed separately."""
    fwd, bwd = [], []
    for k in range(MIN_CALLS + 10):
        t0 = time.perf_counter()
        y = make_output()
        t1 = time.perf_counter()
        y.backward(grad)
        t2 = time.perf_counter()
        for leaf in leaves:
            leaf.grad = None
        if k >= 10:
            fwd.append(t1 - t0)
            bwd.append(t2 - t1)
    return _median_us(fwd), _median_us(bwd)


def tensor_probes() -> dict:
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(1, 3, 16, 16)), requires_grad=True)
    w = Tensor(rng.normal(size=(32, 3, 3, 3)), requires_grad=True)
    conv_f, conv_b = _fwd_bwd(
        lambda: conv2d(x, w, padding=1), [x, w], np.ones((1, 32, 16, 16))
    )
    a = Tensor(rng.normal(size=(16, 256)), requires_grad=True)
    b = Tensor(rng.normal(size=(256, 256)), requires_grad=True)
    mm_f, mm_b = _fwd_bwd(lambda: matmul(a, b), [a, b], np.ones((16, 256)))
    p = Tensor(np.ones(1), requires_grad=True)
    q = Tensor(np.ones(1), requires_grad=True)

    def tiny() -> None:
        (p + q).backward()
        p.grad = q.grad = None

    return {
        "tensor.conv2d_fwd_us": conv_f,
        "tensor.conv2d_bwd_us": conv_b,
        "tensor.matmul_fwd_us": mm_f,
        "tensor.matmul_bwd_us": mm_b,
        # 1-element add + backward: pure Python/autograd/grad-mode cost
        "tensor.op_overhead_us": _time_calls(tiny, 1000, 50),
    }


# -- optim / data -----------------------------------------------------------


def optim_probes(inp: Inputs) -> dict:
    """``repro.optim.SGDM.step`` over the workload model's parameters
    (the pipeline stages carry their own update,
    ``pipeline.stage.update_us``; this is the optimizer the
    non-pipelined trainers use)."""
    params = list(inp.factory().parameters())
    opt = SGDM(params, lr=inp.wl.train.lr, momentum=inp.wl.train.momentum)
    rng = np.random.default_rng(0)
    grads = [rng.normal(size=p.data.shape) for p in params]

    def step() -> None:
        for p, g in zip(params, grads):
            p.grad = g
        opt.step()

    step_us = _time_calls(step)
    tracemalloc.start()
    before = tracemalloc.take_snapshot()
    steps = 50
    for _ in range(steps):
        step()
    after = tracemalloc.take_snapshot()
    tracemalloc.stop()
    grown = sum(
        s.size_diff for s in after.compare_to(before, "filename")
        if s.size_diff > 0
    )
    return {
        "optim.sgdm_step_us": step_us,
        "optim.sgdm_alloc_bytes_per_step": (grown / steps, steps, "B"),
    }


def data_probes(inp: Inputs) -> dict:
    """One epoch of ``ResumableSampleStream.next_chunk`` per call, so the
    per-epoch shuffle is in every timed call."""
    pool = inp.stream.x.shape[0]
    stream = ResumableSampleStream(
        inp.stream.x, inp.stream.y, epochs=1_000_000,
        rng=np.random.default_rng(inp.seed),
    )
    us, n, unit = _time_calls(lambda: stream.next_chunk(pool), 50, 3)
    return {"data.stream_us_per_sample": (us / pool, n, unit)}


# -- pipeline.stage ---------------------------------------------------------


def stage_probes(inp: Inputs) -> dict:
    """Every stage's ``forward`` / ``backward`` / update, driven the way
    the executor drives one update's worth of packets.  The loss stage's
    "forward" is the fused loss + gradient the executor computes there.
    Returns the per-stage medians too, for the timing model."""
    t = inp.wl.train
    engine = make_pipeline_engine(
        "sim", inp.factory(), t.lr, **inp.train_kwargs()
    )
    stages = engine.stages
    S = len(stages)
    per_update = max(1, t.update_size // t.micro_batch)
    reps = -(-calls_for(inp) // per_update)
    fwd = [[] for _ in range(S)]
    bwd = [[] for _ in range(S)]
    upd = [[] for _ in range(S)]
    pid = 0
    for rep in range(reps + 3):
        keep = rep >= 3
        for _ in range(per_update):
            lo = (pid * t.micro_batch) % (inp.x_train.shape[0] - t.micro_batch)
            payload = [inp.x_train[lo : lo + t.micro_batch]]
            labels = inp.y_train[lo : lo + t.micro_batch]
            for s, stage in enumerate(stages):
                t0 = time.perf_counter()
                if stage.spec.kind == "loss":
                    _, glogits = softmax_xent_grad_batch(payload[0], labels)
                else:
                    payload = stage.forward(pid, payload)
                if keep:
                    fwd[s].append(time.perf_counter() - t0)
            grads = [glogits]
            for s in range(S - 1, -1, -1):
                t0 = time.perf_counter()
                grads = stages[s].backward(pid, grads)
                if engine.schedule.update_after_backward(s):
                    t1 = time.perf_counter()
                    stages[s].apply_update()
                    if keep:
                        upd[s].append(time.perf_counter() - t1)
                        bwd[s].append(t1 - t0)
                elif keep:
                    bwd[s].append(time.perf_counter() - t0)
            pid += 1
        if not engine.schedule.update_after_backward(0):
            for s, stage in enumerate(stages):
                t0 = time.perf_counter()
                stage.flush_update(t.update_size)
                if keep:
                    upd[s].append(time.perf_counter() - t0)
    fwd_us = [statistics.median(v) * 1e6 for v in fwd]
    bwd_us = [statistics.median(v) * 1e6 for v in bwd]
    upd_us = [statistics.median(v) * 1e6 for v in upd]
    both = [f + b for f, b in zip(fwd_us, bwd_us)]
    n = len(fwd[0])
    return {
        "metrics": {
            "pipeline.stage.fwd_us.sum": (sum(fwd_us), n, "us"),
            "pipeline.stage.fwd_us.max": (max(fwd_us), n, "us"),
            "pipeline.stage.bwd_us.sum": (sum(bwd_us), n, "us"),
            "pipeline.stage.bwd_us.max": (max(bwd_us), n, "us"),
            "pipeline.stage.update_us.sum": (sum(upd_us), len(upd[0]), "us"),
            "pipeline.stage.imbalance": (
                max(both) / (sum(both) / S), n, "ratio"
            ),
        },
        "fwd_us": fwd_us,
        "bwd_us": bwd_us,
        "upd_us": upd_us,
        "updates_per_packet": (
            1.0 if engine.schedule.update_after_backward(0)
            else 1.0 / per_update
        ),
    }


# -- pipeline.transport -----------------------------------------------------


def _boundary(inp: Inputs):
    """Stages, the max-width packet and the boundary layouts of the
    workload's training pipeline."""
    t = inp.wl.train
    engine = make_pipeline_engine(
        "sim", inp.factory(), t.lr, **inp.train_kwargs()
    )
    packet = np.ascontiguousarray(inp.x_train[: t.micro_batch])
    return engine.stages, packet, probe_boundary_layouts(engine.stages, packet)


def _boundary_payload(layouts) -> list[np.ndarray]:
    """A payload shaped like the one entering stage 1."""
    return [np.ones(spec.shape, dtype=spec.dtype) for spec in layouts[1]]


def transport_probes(inp: Inputs) -> dict:
    stages, packet, layouts = _boundary(inp)
    width = packet.shape[0]
    # computed from the layouts, not measured: what one sample moves
    # through shared memory, forward into every stage and backward out
    # of every stage but the first
    fwd_bytes = sum(spec.nbytes for layout in layouts for spec in layout)
    bwd_bytes = sum(spec.nbytes for layout in layouts[1:] for spec in layout)
    fwd_rings, bwd_rings = build_pipeline_rings(stages, packet, layouts=layouts)
    rings = fwd_rings + [r for r in bwd_rings if r is not None]
    total = sum(r.total_bytes for r in rings)
    for ring in rings:
        ring.close()
        ring.unlink()

    payload = _boundary_payload(layouts)
    ring = ShmRing.create("perf-hop", layouts[1], 4)
    try:
        def hop() -> None:
            ring.send(0, 0, width, payload, RING_TIMEOUT_S)
            ring.recv(RING_TIMEOUT_S)
            ring.release()

        hop_us = _time_calls(hop, 1000, 50)
    finally:
        ring.close()
        ring.unlink()
    return {
        "pipeline.transport.ring_hop_us": hop_us,
        "pipeline.transport.bytes_per_sample": (
            (fwd_bytes + bwd_bytes) / width, 1, "B"
        ),
        "pipeline.transport.ring_total_bytes": (total, len(rings), "B"),
    }


def _echo(ping: ShmRing, pong: ShmRing, count: int) -> None:
    """Cross-process probe peer: bounce every packet back."""
    for _ in range(count):
        pid, start, size, views = ping.recv(RING_TIMEOUT_S)
        pong.send(pid, start, size, views, RING_TIMEOUT_S)
        ping.release()


def xproc_ring_probe(inp: Inputs) -> dict:
    """Half the ping-pong round trip between two processes.  The peer is
    spawned (not forked), so this may run whatever threads are alive."""
    _stages, packet, layouts = _boundary(inp)
    width = packet.shape[0]
    payload = _boundary_payload(layouts)
    calls, warm = calls_for(inp, 500), 50
    ping = ShmRing.create("perf-ping", layouts[1], 4)
    pong = ShmRing.create("perf-pong", layouts[1], 4)
    peer = mp.get_context("spawn").Process(
        target=_echo, args=(ping, pong, calls + warm), name="perf-echo"
    )
    peer.start()
    try:
        half_rtt = []
        for k in range(calls + warm):
            t0 = time.perf_counter()
            ping.send(k, 0, width, payload, RING_TIMEOUT_S)
            pong.recv(RING_TIMEOUT_S)
            pong.release()
            if k >= warm:
                half_rtt.append((time.perf_counter() - t0) / 2.0)
    finally:
        peer.join(RING_TIMEOUT_S)
        if peer.is_alive():
            peer.terminate()
            peer.join()
        for ring in (ping, pong):
            ring.close()
            ring.unlink()
    return {"pipeline.transport.ring_hop_xproc_us": _median_us(half_rtt)}


# -- pipeline.inference / serve.session -------------------------------------


def _session(inp: Inputs, backend: str) -> InferenceSession:
    return InferenceSession.from_checkpoint(
        inp.ckpt["a"], inp.factory, runtime=backend,
        micro_batch=inp.wl.serve.max_batch, sample_shape=inp.wl.sample_shape,
    )


def inference_probes(inp: Inputs, backend: str) -> dict:
    """One full-width packet ``submit`` -> ``poll`` through an idle
    stream, then ``run_inference`` saturating it: no batcher, no
    server."""
    width = inp.wl.serve.max_batch
    session = _session(inp, backend)
    packet = inp.x_req[:width]
    with session.open_stream() as stream:
        def one_packet() -> None:
            while not stream.submit(0, 0, packet):
                time.sleep(1e-5)
            while not stream.poll():
                time.sleep(1e-5)

        packet_us = _time_calls(one_packet, calls_for(inp), 20)
        batch = np.concatenate([inp.x_req] * 2)[: 50 * width]
        rates = []
        for _ in range(5):
            stats = run_inference(
                stream, InferenceSchedule(width), batch, session.num_stages
            )
            rates.append(batch.shape[0] / width / stats.wall_seconds)
    return {
        f"pipeline.inference.packet_us.{backend}": packet_us,
        f"pipeline.inference.stream_pps.{backend}": (
            statistics.median(rates), 5 * 50, "1/s"
        ),
    }


def session_probe(inp: Inputs, backend: str, calls: int) -> dict:
    """Constructor + ``open_stream`` (closing is not timed)."""
    out = []
    for _ in range(calls_for(inp, calls)):
        t0 = time.perf_counter()
        session = _session(inp, backend)
        stream = session.open_stream()
        out.append(time.perf_counter() - t0)
        stream.close()
    return {f"serve.session.build_open_ms.{backend}": _median_ms(out)}


# -- pipeline.checkpoint ----------------------------------------------------


def checkpoint_probes(inp: Inputs, tmpdir: str) -> tuple[dict, list]:
    t = inp.wl.train
    engine = make_pipeline_engine(
        "sim", inp.factory(), t.lr, **inp.train_kwargs()
    )
    engine.train(inp.x_train[: t.update_size], inp.y_train[: t.update_size])
    path = os.path.join(tmpdir, "probe.ckpt")
    calls = calls_for(inp, 30)
    save, load = [], []
    for _ in range(calls):
        t0 = time.perf_counter()
        save_checkpoint(path, capture_checkpoint(engine))
        save.append(time.perf_counter() - t0)
    want = model_fingerprint(engine.model)
    fresh = make_pipeline_engine(
        "sim", inp.factory(), t.lr, **inp.train_kwargs()
    )
    for _ in range(calls):
        t0 = time.perf_counter()
        restore_checkpoint(load_checkpoint(path), fresh)
        load.append(time.perf_counter() - t0)
    failed = []
    if model_fingerprint(fresh.model) != want:
        failed.append("checkpoint: restored weights differ from saved ones")
    return {
        "pipeline.checkpoint.capture_save_ms": _median_ms(save),
        "pipeline.checkpoint.load_restore_ms": _median_ms(load),
        "pipeline.checkpoint.bytes": (os.path.getsize(path), 1, "B"),
    }, failed


# -- serve.batcher ----------------------------------------------------------


def batcher_probe(inp: Inputs) -> dict:
    """``max_batch`` submits + the ``next_batch`` that takes them."""
    width = inp.wl.serve.max_batch
    batcher = DynamicBatcher(max_batch=width, max_wait=0.0, max_queue=64)
    x = inp.x_req[0]

    def cycle() -> None:
        for _ in range(width):
            batcher.submit(x)
        batcher.next_batch(timeout=0.1)

    return {"serve.batcher.submit_next_us": _time_calls(cycle, 300, 20)}
