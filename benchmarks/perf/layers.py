"""The layered pass: probes + traced phases -> every per-layer metric.

Runs in the child at quarter size with the span recorder on.  Timing of
the end-to-end kind is discarded here (those metrics come only from the
untraced pass); what this pass keeps is

* **P** — probe medians (``probes.py``),
* **S** — numbers read from the stats objects the phases return
  (``PipelineRunStats``, ``RuntimeStats``, ``RequestTiming`` records,
  ``FleetRouter.snapshot()``, ``ReloadReport``),
* **C** — numbers computed from those (timing model, overheads),
* the chrome trace, each layer's self time and
  ``trace.overhead_ratio`` (untraced ÷ traced rate of the same phase).

Order matters: everything that needs autograd or forks runs before any
server thread exists (the grad mode is a process global, and the
process runtime forks).
"""

from __future__ import annotations

import os

import numpy as np

from repro.pipeline import (
    fill_drain_occupancy,
    pb_occupancy,
    schedule_utilization,
)
from repro.tensor import grad_enabled

from benchmarks.perf import phases, probes
from benchmarks.perf.summary import percentile
from benchmarks.perf.trace import Recorder
from benchmarks.perf.workloads import SERVE_BACKENDS

#: samples of the short lockstep process run (control-plane counts)
LOCKSTEP_UPDATES = 4
#: how long after a rolling reload ends its requests still count as
#: "during" it
RELOAD_AFTERMATH_S = 0.1


def _occupancy(inp: phases.Inputs, samples: int):
    t = inp.wl.train
    stages = len(inp.factory().stage_defs)
    if t.mode == "pb":
        return pb_occupancy(stages, samples)
    return fill_drain_occupancy(
        stages, t.update_size // t.micro_batch, samples // t.update_size
    )


def _modeled_wall_s(inp: phases.Inputs, stage: dict, samples: int) -> float:
    """The paper's timing model priced with the probed op times: every
    time step costs the slowest stage's forward + backward, and no
    machine finishes sooner than all stage work spread over the workers
    it can actually run at once."""
    t = inp.wl.train
    steps = _occupancy(inp, samples).time_steps
    per_step = max(f + b for f, b in zip(stage["fwd_us"], stage["bwd_us"]))
    packets = samples / t.micro_batch
    work = packets * (
        sum(stage["fwd_us"]) + sum(stage["bwd_us"])
        + stage["updates_per_packet"] * sum(stage["upd_us"])
    )
    workers = min(os.cpu_count() or 1, len(stage["fwd_us"]))
    return max(steps * per_step, work / workers) / 1e6


def _runtime_metrics(m: dict, backend: str, phase: dict, modeled: float) -> None:
    rt = phase["runs"][0].runtime
    busy = [rt.busy_fraction(s) for s in range(rt.num_stages)]
    n = phase["samples"]
    m[f"pipeline.runtime.busy_fraction_mean.{backend}"] = (
        rt.mean_busy_fraction, n, "ratio")
    m[f"pipeline.runtime.busy_fraction_max.{backend}"] = (max(busy), n, "ratio")
    m[f"pipeline.runtime.bottleneck_idle_share.{backend}"] = (
        1.0 - max(busy), n, "ratio")
    m[f"pipeline.runtime.measured_over_modeled.{backend}"] = (
        rt.wall_seconds / modeled, n, "ratio")


def _serve_metrics(m: dict, backend: str, phase: dict) -> None:
    timing = phase["open_timing"]
    open_ = phase["open"]
    lat = open_.latencies_ms()
    for key in ("queue_wait_p50_ms", "queue_wait_p95_ms"):
        m[f"serve.batcher.{key}.{backend}"] = (timing[key], timing["n"], "ms")
    m[f"serve.batcher.mean_batch_size.{backend}"] = (
        phase["closed_timing"]["mean_batch_size"],
        phase["closed_timing"]["n"], "count")
    m[f"serve.batcher.rejected.{backend}"] = (
        phase["rejected"], phase["attempted"], "count")
    for key in ("pipeline_p50_ms", "pipeline_p95_ms"):
        m[f"serve.server.{key}.{backend}"] = (timing[key], timing["n"], "ms")
    m[f"serve.server.overhead_ms.{backend}"] = (
        timing["overhead_p50_ms"], timing["n"], "ms")
    m[f"serve.server.p99_ms.{backend}"] = (percentile(lat, 99), lat.size, "ms")
    m[f"serve.loadgen.late_p99_ms.{backend}"] = (
        percentile(open_.late_ms(), 99), open_.n, "ms")


def _fleet_metrics(m: dict, phase: dict, rec: Recorder) -> None:
    snap, open_, reload = phase["snapshot"], phase["open"], phase["reload"]
    lat = open_.latencies_ms()
    classes = np.array(open_.classes)
    interactive = lat[classes == "interactive"]
    batch = lat[classes == "batch"]
    # the swap itself takes 5-50 ms; the new generation's first packets
    # are the slow ones, so the window runs on past its end
    during = (open_.due >= reload["t0"]) & (
        open_.due <= reload["t1"] + RELOAD_AFTERMATH_S
    )
    submit_us = rec.durations_us("FleetRouter.submit")
    m["serve.fleet.router.submit_us"] = (
        percentile(submit_us, 50), len(submit_us), "us")
    # client latency minus the replica-side latency the router stamps
    # per request: admission + dispatch + future hop
    timing = phase["open_timing"]
    m["serve.fleet.router.overhead_ms"] = (
        timing["overhead_p50_ms"], timing["n"], "ms")
    m["serve.fleet.router.retries"] = (
        phase["retries"], phase["attempted"], "count")
    m["serve.fleet.router.duplicates"] = (
        snap["duplicates"], snap["submitted"], "count")
    done = [r["completed"] for r in snap["replicas"].values()]
    m["serve.fleet.router.replica_imbalance"] = (
        max(done) / max(sum(done) / len(done), 1e-9), sum(done), "ratio")
    rejected = snap["rejected_by_class"]
    m["serve.fleet.admission.rejected.interactive"] = (
        rejected.get("interactive", 0), snap["submitted"], "count")
    m["serve.fleet.admission.rejected.batch"] = (
        rejected.get("batch", 0), snap["submitted"], "count")
    m["serve.fleet.interactive_p95_ms"] = (
        percentile(interactive, 95), interactive.size, "ms")
    # a single-class mix has no batch traffic: report the class that ran
    m["serve.fleet.batch_p95_ms"] = (
        percentile(batch if batch.size else interactive, 95),
        batch.size or interactive.size, "ms")
    m["serve.fleet.reload.total_ms"] = (
        (reload["t1"] - reload["t0"]) * 1e3,
        reload["report"].replicas_swapped, "ms")
    m["serve.fleet.reload.min_ready"] = (
        reload["report"].min_ready_observed, 1, "count")
    # with the reload fired after the loop nothing was in flight during
    # it: both windows then cover the whole loop
    inside = lat[during] if during.any() else lat
    m["serve.fleet.reload.p95_during_ms"] = (
        percentile(inside, 95), inside.size, "ms")
    m["serve.fleet.reload.p95_outside_ms"] = (
        percentile(lat[~during], 95), int((~during).sum()), "ms")


def per_layer(inp: phases.Inputs, trace_out: str | None):
    """Returns ``(metrics, failed_checks, attempted, lost)``; metrics are
    ``{name: {"value", "unit", "n"}}``."""
    rec = Recorder()
    m: dict = {}  # name -> (value, n, unit)
    failed: list = []
    attempted = lost = 0
    tmpdir = os.path.dirname(inp.ckpt["a"])

    # -- single-threaded probes (autograd, forks) ----------------------------
    m.update(probes.tensor_probes())
    m.update(probes.optim_probes(inp))
    m.update(probes.data_probes(inp))
    stage = probes.stage_probes(inp)
    m.update(stage["metrics"])
    m.update(probes.transport_probes(inp))
    ckpt_metrics, ckpt_failed = probes.checkpoint_probes(inp, tmpdir)
    m.update(ckpt_metrics)
    failed += ckpt_failed
    m.update(probes.xproc_ring_probe(inp))

    # -- training: untraced + traced sim, traced threaded, process -----------
    t = inp.wl.train
    def train_once(runtime: str, **kwargs) -> dict:
        """The whole phase as one ``train()`` call: one stats object to
        read, one occupancy grid to compare it with."""
        return (
            phases.TrainPhase(inp, runtime, **kwargs)
            .run(1, inp.stream_samples(runtime))
            .result()
        )

    plain = train_once("sim")
    sim = train_once("sim", recorder=rec)
    threaded = train_once("threaded", recorder=rec)
    process = train_once("process")
    train = {"sim": sim, "threaded": threaded, "process": process}
    for phase in (plain, *train.values()):
        failed += phase["failed_checks"]
        attempted += phase["samples"]
    failed += phases.cross_runtime_checks(inp, train)
    run = sim["runs"][0]
    n = sim["samples"]
    m["pipeline.executor.time_steps"] = (run.time_steps, n, "count")
    m["pipeline.executor.utilization"] = (run.utilization, n, "ratio")
    packets = n / t.micro_batch
    modeled_packet_us = (
        sum(stage["fwd_us"]) + sum(stage["bwd_us"])
        + stage["updates_per_packet"] * sum(stage["upd_us"])
    )
    m["pipeline.executor.overhead_us_per_packet"] = (
        plain["walls"][0] * 1e6 / packets - modeled_packet_us, int(packets),
        "us")
    m["pipeline.occupancy.utilization_model"] = (
        schedule_utilization(_occupancy(inp, n)), n, "ratio")
    for backend, phase in (("threaded", threaded), ("process", process)):
        modeled = _modeled_wall_s(inp, stage, phase["samples"])
        _runtime_metrics(m, backend, phase, modeled)
        if backend == "process":
            # demoted from the end-to-end table (README): the whole
            # stream as one call, launch + teardown included
            m["pipeline.runtime.train_sps.process"] = (
                phase["samples"] / phase["walls"][0], phase["samples"],
                "samples/s")
            m["pipeline.occupancy.modeled_wall_s"] = (
                modeled, phase["samples"], "s")
            m["pipeline.runtime.launch_teardown_ms.process"] = (
                (phase["walls"][0] - phase["runs"][0].runtime.wall_seconds)
                * 1e3, 1, "ms")
    lock = (
        phases.TrainPhase(inp, "process", lockstep=True)
        .run(1, LOCKSTEP_UPDATES * max(t.update_size, 16))
        .result()
    )
    failed += lock["failed_checks"]
    attempted += lock["samples"]
    control = lock["runs"][0].runtime.control
    m["pipeline.runtime.control_msgs_per_step"] = (
        control["msgs_per_step"], control["time_steps"], "1/step")
    m["pipeline.runtime.control_acks"] = (
        control["acks_received"], control["time_steps"], "count")
    m["trace.overhead_ratio.train_sim"] = (
        sim["walls"][0] / plain["walls"][0], n, "ratio")
    # the grad mode is a process global: catch it being left off before
    # any server thread can be blamed for it
    m["tensor.grad_mode_intact"] = (1.0 if grad_enabled() else 0.0, 1, "bool")

    # -- forward-only streams and sessions (these fork: still no threads) ----
    for backend in ("process", "sim", "threaded"):
        m.update(probes.inference_probes(inp, backend))
    m.update(probes.session_probe(inp, "process", 8))
    m.update(probes.session_probe(inp, "threaded", 30))
    m.update(probes.batcher_probe(inp))

    # -- single server: untraced threaded for the ratio, then traced ---------
    plain_serve = phases.serve_phase(inp, "threaded")
    serve = {}
    for backend in SERVE_BACKENDS:
        serve[backend] = phases.serve_phase(inp, backend, recorder=rec)
    for phase in (plain_serve, *serve.values()):
        failed += phase["failed_checks"]
        attempted += phase["attempted"]
        lost += phase["lost"] + phase["bad_outputs"]
    for backend, phase in serve.items():
        _serve_metrics(m, backend, phase)
    # the threaded server's capacity: demoted from the end-to-end table
    # (README), so it is taken here, untraced
    plain_rate = phases.merge_loops([plain_serve])["rate"]
    m["serve.server.rps.threaded"] = (
        plain_rate["value"], plain_rate["n"], "req/s")
    m["trace.overhead_ratio.serve_threaded"] = (
        plain_rate["value"]
        / phases.merge_loops([serve["threaded"]])["rate"]["value"],
        serve["threaded"]["closed"].n, "ratio")

    # -- fleet: untraced without a reload for the two demoted end-to-end
    # numbers, then traced across the reload ---------------------------------
    plain_fleet = phases.fleet_phase(inp, reload=False)
    fleet = phases.fleet_phase(inp, recorder=rec)
    for phase in (plain_fleet, fleet):
        failed += phase["failed_checks"]
        attempted += phase["attempted"]
        lost += phase["lost"] + phase["bad_outputs"]
    loops = phases.merge_loops([plain_fleet], "interactive")
    m["serve.fleet.rps"] = (
        loops["rate"]["value"], loops["rate"]["n"], "req/s")
    m["serve.fleet.interactive_p50_ms"] = (
        loops["p50"]["value"], loops["p50"]["n"], "ms")
    if not loops["p95"]["value"] <= phases.INTERACTIVE_LIMIT_MS:
        failed.append(
            f"fleet interactive p95 {loops['p95']['value']:.2f} ms is over "
            f"its {phases.INTERACTIVE_LIMIT_MS:g} ms limit"
        )
    _fleet_metrics(m, fleet, rec)

    # -- the trace itself -----------------------------------------------------
    own = rec.self_times()
    for layer in (
        "pipeline.stage", "pipeline.schedule", "pipeline.inference",
        "serve.batcher", "serve.fleet.router",
    ):
        m[f"trace.self_ms.{layer}"] = (
            own["busy_ms"].get(layer, 0.0), own["spans"].get(layer, 0), "ms")
    m["trace.wait_ms.serve.batcher"] = (
        own["wait_ms"].get("serve.batcher", 0.0),
        own["spans"].get("serve.batcher", 0), "ms")
    if trace_out:
        rec.write_chrome_trace(
            trace_out,
            {"workload": inp.wl.name, "seed": inp.seed, "scale": inp.scale,
             "self_time_ms_by_span": own["by_name_ms"]},
        )
    return _finish(m), failed, attempted, lost


def _finish(m: dict) -> dict:
    return {
        name: {"value": float(value), "unit": unit, "n": int(n)}
        for name, (value, n, unit) in m.items()
    }
