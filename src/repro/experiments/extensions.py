"""Extension experiments beyond the paper's tables/figures.

The paper's discussion (§5) makes three testable side-claims that its
evaluation does not tabulate; these ablations check them:

* ``ablation_bn_vs_gn`` — "BN seems to significantly decrease the effects
  of delayed gradients compared to GN" (exploratory remark in §5).
* ``ablation_warmup`` — "a learning rate warmup may help stabilize PB
  training".
* ``ablation_gradient_shrinking`` — how the Zhuang et al. baseline
  compares against SC/LWP under identical staleness.

``schedule_comparison`` goes beyond the paper's own evaluation: it runs
the same model/stream through all four pipeline schedules (``pb``,
``fill_drain``, ``gpipe``, ``1f1b``) and tabulates the trade the paper
argues about — pipeline steps-to-loss and utilization per schedule.

``runtime_comparison`` validates the concurrent runtimes against the
discrete-time simulator: per schedule it reports wall-clock for the
simulator, the lockstep threaded and process runs (each with a
bit-exactness check) and the free-running threaded and process runs,
plus the free-running runtimes' measured per-stage busy fractions —
modeled utilization vs *measured* worker business, the ROADMAP's "runs
as fast as the hardware allows" checkpoint.
"""

from __future__ import annotations

import numpy as np

from repro.core.delayed_sgd import DelayedSGDM, delayed_train_step
from repro.core.mitigation import MitigationConfig
from repro.data.loader import iterate_batches
from repro.data.synthetic import SyntheticCifar
from repro.experiments.scale import Scale, get_scale
from repro.models.arch import StageDef, StageGraphModel
from repro.nn import (
    BatchNorm2d,
    Conv2d,
    GlobalAvgPool,
    Linear,
    ReLU,
    Sequential,
    group_norm_for,
)
from repro.optim.lr_schedule import ConstantSchedule, WarmupSchedule
from repro.train.metrics import evaluate
from repro.utils.rng import derive_seed, new_rng


def _norm_cnn(norm: str, num_classes: int, seed: int) -> StageGraphModel:
    """A small conv chain with a configurable normalizer."""
    widths = (8, 16)
    stages: list[StageDef] = []
    ch = 3
    for i, w in enumerate(widths):
        layer = [Conv2d(ch, w, 3, padding=1, bias=False,
                        rng=new_rng(derive_seed(seed, "normcnn", i)))]
        if norm == "bn":
            layer.append(BatchNorm2d(w))
        elif norm == "gn":
            layer.append(group_norm_for(w))
        layer.append(ReLU())
        stages.append(StageDef(f"conv{i}", module=Sequential(*layer)))
        ch = w
    stages.append(StageDef("pool", module=GlobalAvgPool()))
    stages.append(
        StageDef("fc", module=Linear(ch, num_classes,
                                     rng=new_rng(derive_seed(seed, "fc"))))
    )
    stages.append(StageDef("loss", kind="loss"))
    return StageGraphModel(stages, name=f"normcnn_{norm}")


def _train_delayed(
    model,
    ds,
    delay: int,
    scale: Scale,
    mitigation: MitigationConfig | None = None,
    warmup_frac: float = 0.0,
    seed: int = 0,
) -> float:
    hp = scale.reference.scaled_to(scale.sim_batch)
    opt = DelayedSGDM(
        model, lr=hp.lr, momentum=hp.momentum,
        weight_decay=hp.weight_decay, delay=delay,
        mitigation=mitigation or MitigationConfig.none(), consistent=True,
    )
    sched = (
        WarmupSchedule(
            ConstantSchedule(hp.lr),
            max(1, int(scale.sim_steps * warmup_frac)),
            warmup_frac=0.1,
        )
        if warmup_frac
        else ConstantSchedule(hp.lr)
    )
    rng = new_rng(derive_seed(seed, "ext", model.name, delay, warmup_frac))
    done = 0
    while done < scale.sim_steps:
        for xb, yb in iterate_batches(
            ds.x_train, ds.y_train, scale.sim_batch, rng=rng
        ):
            opt.lr = sched(done)
            delayed_train_step(opt, model, xb, yb)
            done += 1
            if done >= scale.sim_steps:
                break
    return evaluate(model, ds.x_val, ds.y_val)[1]


def ablation_bn_vs_gn(scale: Scale | None = None) -> dict:
    """Delay tolerance of BatchNorm vs GroupNorm (§5 exploratory claim)."""
    scale = scale or get_scale()
    ds = SyntheticCifar(seed=0, image_size=8, train_size=scale.train_size,
                        val_size=scale.val_size)
    delays = [0, 2, 4] if scale.name == "bench" else [0, 1, 2, 4, 8]
    series: dict[str, list[float]] = {}
    for norm in ("bn", "gn"):
        accs = []
        for d in delays:
            model = _norm_cnn(norm, ds.num_classes, seed=3)
            accs.append(_train_delayed(model, ds, d, scale))
        series[norm] = accs
    return {
        "delays": delays,
        "series": series,
        "meta": {
            "paper": "§5: 'BN seems to significantly decrease the effects "
            "of delayed gradients compared to GN' — BN's accuracy should "
            "fall off more slowly with delay."
        },
    }


def ablation_warmup(scale: Scale | None = None) -> dict:
    """LR warmup as a delay stabilizer (§5)."""
    scale = scale or get_scale()
    ds = SyntheticCifar(seed=0, image_size=8, train_size=scale.train_size,
                        val_size=scale.val_size)
    from repro.models.simple import small_cnn

    delay = 4
    rows = []
    for warmup_frac in (0.0, 0.3):
        for d in (0, delay):
            model = small_cnn(num_classes=ds.num_classes, widths=(8, 16),
                              seed=3)
            acc = _train_delayed(model, ds, d, scale,
                                 warmup_frac=warmup_frac)
            rows.append(
                {"warmup_frac": warmup_frac, "delay": d, "val_acc": acc}
            )
    return {
        "rows": rows,
        "meta": {
            "paper": "§5: parameters change fastest early in training, so "
            "warmup should help the delayed runs more than the baseline."
        },
    }


def ablation_gradient_shrinking(scale: Scale | None = None) -> dict:
    """Zhuang et al. gradient shrinking vs the paper's methods."""
    scale = scale or get_scale()
    ds = SyntheticCifar(seed=0, image_size=8, train_size=scale.train_size,
                        val_size=scale.val_size)
    from repro.models.simple import small_cnn

    delay = 2
    methods = {
        "delayed": MitigationConfig.none(),
        "grad_shrink": MitigationConfig.gradient_shrinking(),
        "SC_D": MitigationConfig.sc(),
        "LWP_D": MitigationConfig.lwp(),
        "LWPv_D+SC_D": MitigationConfig.lwp_plus_sc(),
    }
    rows = []
    for name, mit in methods.items():
        model = small_cnn(num_classes=ds.num_classes, widths=(8, 16), seed=3)
        acc = _train_delayed(model, ds, delay, scale, mitigation=mit)
        rows.append({"method": name, "delay": delay, "val_acc": acc})
    return {
        "rows": rows,
        "meta": {
            "paper": "Gradient shrinking scales stale gradients down "
            "(reducing both signal and harm); SC/LWP re-time them instead "
            "and should dominate it."
        },
    }


def schedule_comparison(
    scale: Scale | None = None,
    schedule: str | None = None,
    runtime: str = "sim",
) -> dict:
    """All four pipeline schedules on one model/stream, side by side.

    Reports per schedule: total pipeline steps, utilization (sample
    transformations over worker-step capacity), pipeline steps until the
    smoothed training loss first undercuts a shared target, and final
    validation accuracy.  ``schedule`` restricts the comparison to a
    single schedule (the CLI ``--schedule`` flag); ``runtime`` picks the
    engine (``sim``, ``threaded`` or ``process``, the CLI ``--runtime``
    flag — the concurrent engines run free-running here, so pb/1f1b
    numbers vary with worker timing; use ``runtime_comparison`` for the
    parity story).
    """
    from repro.data.loader import sample_stream
    from repro.models.simple import small_cnn
    from repro.pipeline.runtime import make_pipeline_engine
    from repro.pipeline.schedule import SCHEDULE_NAMES, make_schedule

    scale = scale or get_scale()
    if schedule is not None and schedule not in SCHEDULE_NAMES:
        raise ValueError(
            f"unknown schedule {schedule!r}; choose from {SCHEDULE_NAMES}"
        )
    names = [schedule] if schedule else list(SCHEDULE_NAMES)
    ds = SyntheticCifar(
        seed=0, image_size=8, train_size=min(scale.train_size, 256),
        val_size=scale.val_size,
    )
    n = min(scale.pb_samples, 512)
    update_size = min(scale.sim_batch, 8)
    micro = max(1, update_size // 2)
    window = max(8, n // 16)

    rows = []
    smoothed_first = None
    for name in names:
        sched = make_schedule(
            name, update_size=update_size, micro_batch_size=micro
        )
        hp = scale.reference.scaled_to(sched.update_size)
        from functools import partial

        model_factory = partial(
            small_cnn, num_classes=ds.num_classes, widths=(8, 16), seed=11
        )
        model = model_factory()
        engine_kwargs = (
            {"model_factory": model_factory} if runtime == "process" else {}
        )
        ex = make_pipeline_engine(
            runtime, model, lr=hp.lr, momentum=hp.momentum,
            weight_decay=hp.weight_decay, schedule=sched, **engine_kwargs,
        )
        # same seed for every schedule: the stream really is shared
        rng = new_rng(derive_seed(17, "schedcmp"))
        epochs = max(1, -(-n // ds.x_train.shape[0]))
        xs, ys = sample_stream(ds.x_train, ds.y_train, epochs, rng)
        stats = ex.train(xs[:n], ys[:n])

        kernel = np.ones(window) / window
        smoothed = np.convolve(stats.losses, kernel, mode="valid")
        if smoothed_first is None:
            # shared target: 85% of the initial smoothed loss of the
            # first schedule run, so every schedule chases the same bar
            smoothed_first = 0.85 * float(smoothed[0])
        below = np.nonzero(smoothed < smoothed_first)[0]
        k = int(below[0]) + window if below.size else None
        _, val_acc = evaluate(model, ds.x_val, ds.y_val)
        rows.append(
            {
                "schedule": name,
                "update_size": sched.update_size,
                "micro_batch": sched.micro_batch,
                "time_steps": stats.time_steps,
                "utilization": stats.utilization,
                "steps_to_loss": (
                    sched.drain_span(k, ex.num_stages)
                    if k is not None
                    else None
                ),
                "final_loss": float(stats.losses[-window:].mean()),
                "val_acc": val_acc,
            }
        )
    return {
        "rows": rows,
        "target_loss": smoothed_first,
        "samples": n,
        "runtime": runtime,
        "meta": {
            "paper": "§2 + Figure 2, extended: PB and 1F1B sustain near-"
            "full utilization (fewer pipeline steps to a target loss), "
            "fill/drain pays N/(N+2S-2) per batch, and GPipe recovers "
            "M/(M+2S-2) via micro-batching."
        },
    }


def runtime_comparison(
    scale: Scale | None = None, schedule: str | None = None
) -> dict:
    """Simulator vs threaded vs process runtime per schedule.

    For each schedule the same model/stream is trained five ways:

    * ``sim`` — the discrete-time :class:`PipelineExecutor` (modeled
      time, no concurrency);
    * ``threaded lockstep`` — one worker thread per stage with a
      per-step barrier; ``parity`` records whether its per-sample losses
      are **bit-identical** to the simulator's (they must be);
    * ``threaded free`` — no barrier; stages run as packets arrive, and
      the measured mean per-stage busy fraction plus the free/lockstep
      wall-clock speedup are reported;
    * ``process lockstep`` — one worker *process* per stage, packets
      through shared-memory rings; ``proc_parity`` is the same bit-exact
      contract across process boundaries;
    * ``process free`` — the performance backend: no barrier, no GIL;
      ``proc_free_vs_thread_free`` is the headline process-vs-thread
      wall-clock ratio (>1 needs real cores; the stored payload records
      the host's ``cpu_count`` next to it in ``BENCH_runtime.json``).

    ``schedule`` restricts the table to one schedule (CLI
    ``--schedule``).
    """
    from repro.data.loader import sample_stream
    from repro.models.simple import small_cnn
    from repro.pipeline.executor import PipelineExecutor
    from repro.pipeline.runtime import (
        ConcurrentPipelineRunner,
        ProcessPipelineRunner,
    )
    from repro.pipeline.schedule import SCHEDULE_NAMES, make_schedule

    import time as _time

    scale = scale or get_scale()
    if schedule is not None and schedule not in SCHEDULE_NAMES:
        raise ValueError(
            f"unknown schedule {schedule!r}; choose from {SCHEDULE_NAMES}"
        )
    names = [schedule] if schedule else list(SCHEDULE_NAMES)
    ds = SyntheticCifar(
        seed=0, image_size=8, train_size=min(scale.train_size, 256),
        val_size=scale.val_size,
    )
    n = min(scale.pb_samples, 256)
    update_size = min(scale.sim_batch, 8)
    micro = max(1, update_size // 2)

    rng = new_rng(derive_seed(17, "runtimecmp"))
    epochs = max(1, -(-n // ds.x_train.shape[0]))
    xs, ys = sample_stream(ds.x_train, ds.y_train, epochs, rng)
    xs, ys = xs[:n], ys[:n]

    from functools import partial

    model_factory = partial(
        small_cnn, num_classes=ds.num_classes, widths=(8, 16), seed=11
    )

    rows = []
    for name in names:
        def build():
            sched = make_schedule(
                name, update_size=update_size, micro_batch_size=micro
            )
            hp = scale.reference.scaled_to(sched.update_size)
            return model_factory(), sched, hp

        def timed(engine_cls, lockstep):
            model, sched, hp = build()
            kwargs = {}
            if engine_cls is ProcessPipelineRunner:
                # spawn-safe on non-Linux hosts, where fork is unsafe
                kwargs["model_factory"] = model_factory
            runner = engine_cls(
                model, lr=hp.lr, momentum=hp.momentum,
                weight_decay=hp.weight_decay, schedule=sched,
                lockstep=lockstep, **kwargs,
            )
            t0 = _time.perf_counter()
            stats = runner.train(xs, ys)
            return _time.perf_counter() - t0, stats

        model, sched, hp = build()
        t0 = _time.perf_counter()
        sim_stats = PipelineExecutor(
            model, lr=hp.lr, momentum=hp.momentum,
            weight_decay=hp.weight_decay, schedule=sched,
        ).train(xs, ys)
        sim_s = _time.perf_counter() - t0

        lock_s, lock_stats = timed(ConcurrentPipelineRunner, True)
        free_s, free_rt = timed(ConcurrentPipelineRunner, False)
        plock_s, plock_stats = timed(ProcessPipelineRunner, True)
        pfree_s, pfree_rt = timed(ProcessPipelineRunner, False)

        rows.append(
            {
                "schedule": name,
                "parity": bool(
                    np.array_equal(sim_stats.losses, lock_stats.losses)
                ),
                "proc_parity": bool(
                    np.array_equal(sim_stats.losses, plock_stats.losses)
                ),
                "sim_s": round(sim_s, 4),
                "lockstep_s": round(lock_s, 4),
                "free_s": round(free_s, 4),
                "proc_lockstep_s": round(plock_s, 4),
                "proc_free_s": round(pfree_s, 4),
                "free_vs_lockstep": round(lock_s / max(free_s, 1e-12), 2),
                "proc_free_vs_thread_free": round(
                    free_s / max(pfree_s, 1e-12), 2
                ),
                "mean_busy_frac": round(free_rt.mean_busy_fraction, 4),
                "proc_mean_busy_frac": round(
                    pfree_rt.mean_busy_fraction, 4
                ),
                "modeled_utilization": round(sim_stats.utilization, 4),
            }
        )
    return {
        "rows": rows,
        "samples": n,
        "meta": {
            "paper": "§2: fine-grained pipelining keeps all stages busy "
            "in wall-clock time.  Lockstep parity must be True for both "
            "concurrent backends (bit-exact contract); free-running "
            "trades reproducibility for measured concurrency, and the "
            "process backend additionally escapes the GIL."
        },
    }


def durable_training(
    scale: Scale | None = None,
    schedule: str | None = None,
    runtime: str = "process",
    checkpoint: str | None = None,
    checkpoint_every: int | None = None,
    resume: str | None = None,
) -> dict:
    """Checkpoint/resume parity demonstration for the pipeline engines.

    For each schedule, the same tiny model/stream is trained twice:

    * **golden** — straight through, with the checkpoint cadence's drain
      barriers but no files;
    * **interrupted** — a second identical run is stopped after its
      first snapshot lands on disk ("the job died"), then a *freshly
      built* engine + stream resume from that file and finish.

    ``resume_parity`` is True when the resumed run lands on the same
    SHA-256 weight fingerprint as the golden — the bit-exact durability
    contract of :mod:`repro.pipeline.checkpoint` (the CI resume-parity
    smoke job asserts it).  ``runtime`` picks the engine (default
    ``process``, lockstep for reproducibility); ``checkpoint`` redirects
    the snapshot files (default: a temp directory); ``--resume <path>``
    instead *continues* a previous run from an existing checkpoint file
    and reports its final fingerprint.
    """
    import os
    import tempfile
    from functools import partial

    from repro.data.loader import ResumableSampleStream
    from repro.models.simple import small_cnn
    from repro.pipeline.checkpoint import DurableRun, model_fingerprint
    from repro.pipeline.runtime import make_pipeline_engine
    from repro.pipeline.schedule import SCHEDULE_NAMES, make_schedule

    scale = scale or get_scale()
    if schedule is not None and schedule not in SCHEDULE_NAMES:
        raise ValueError(
            f"unknown schedule {schedule!r}; choose from {SCHEDULE_NAMES}"
        )
    names = [schedule] if schedule else list(SCHEDULE_NAMES)
    ds = SyntheticCifar(
        seed=0, image_size=8, train_size=min(scale.train_size, 128),
        val_size=min(scale.val_size, 64),
    )
    n_total = min(scale.pb_samples, 96)
    update_size = min(scale.sim_batch, 8)
    micro = max(1, update_size // 2)
    if checkpoint_every is not None and int(checkpoint_every) < 1:
        raise ValueError(
            "durable_training needs checkpoint_every >= 1 (0 would "
            "disable periodic snapshots, leaving nothing to resume from)"
        )
    every = (
        int(checkpoint_every)
        if checkpoint_every is not None
        else max(update_size, n_total // 3)
    )
    model_factory = partial(
        small_cnn, num_classes=ds.num_classes, widths=(8, 16), seed=11
    )

    def build(name):
        sched = make_schedule(
            name, update_size=update_size, micro_batch_size=micro
        )
        hp = scale.reference.scaled_to(sched.update_size)
        model = model_factory()
        engine_kwargs = (
            {"model_factory": model_factory, "max_restarts": 2}
            if runtime == "process"
            else {}
        )
        engine = make_pipeline_engine(
            runtime, model, lr=hp.lr, momentum=hp.momentum,
            weight_decay=hp.weight_decay, schedule=sched, lockstep=True,
            **engine_kwargs,
        )
        rng = new_rng(derive_seed(17, "durable"))
        epochs = max(1, -(-n_total // ds.x_train.shape[0]))
        stream = ResumableSampleStream(ds.x_train, ds.y_train, epochs, rng)
        return model, engine, stream

    if resume is not None:
        # continue a previous run from an existing checkpoint file
        name = names[0]
        model, engine, stream = build(name)
        run = DurableRun.resume(resume, engine, stream)
        result = run.run(max_samples=n_total - engine.samples_completed)
        return {
            "rows": [
                {
                    "schedule": name,
                    "resumed_from": resume,
                    "samples_after_resume": result.samples,
                    "samples_completed": engine.samples_completed,
                    "final_weight_hash": model_fingerprint(model)[:16],
                }
            ],
            "meta": {"paper": "resumed run continued from " + resume},
        }

    rows = []
    tmpdir = None
    try:
        if checkpoint is None:
            tmpdir = tempfile.TemporaryDirectory(prefix="repro-ckpt-")
            ckpt_dir = tmpdir.name
        else:
            ckpt_dir = checkpoint
            os.makedirs(ckpt_dir, exist_ok=True)
        for name in names:
            # golden: uninterrupted, cadence-matched drain barriers
            g_model, g_engine, g_stream = build(name)
            DurableRun(
                g_engine, g_stream, checkpoint_every=every
            ).run(max_samples=n_total)
            golden_hash = model_fingerprint(g_model)

            # interrupted: die right after the first snapshot.  The
            # first segment is the *rounded* cadence (DurableRun aligns
            # it to a drain barrier), capped at the golden's run length
            # — a raw --checkpoint-every here would flush a partial
            # batch or overshoot and break parity by construction.
            path = os.path.join(ckpt_dir, f"{name}.ckpt")
            i_model, i_engine, i_stream = build(name)
            i_run = DurableRun(
                i_engine, i_stream, checkpoint_path=path,
                checkpoint_every=every,
            )
            i_run.run(
                max_samples=min(i_run.checkpoint_every, n_total)
            )

            # ...and resume a fresh engine + stream from the file
            r_model, r_engine, r_stream = build(name)
            run = DurableRun.resume(path, r_engine, r_stream)
            run.run(max_samples=n_total - r_engine.samples_completed)
            resumed_hash = model_fingerprint(r_model)
            rows.append(
                {
                    "schedule": name,
                    "samples": n_total,
                    # the effective cadence (aligned to a drain barrier)
                    "checkpoint_every": i_run.checkpoint_every,
                    "resume_parity": resumed_hash == golden_hash,
                    "golden_hash": golden_hash[:16],
                    "resumed_hash": resumed_hash[:16],
                }
            )
    finally:
        if tmpdir is not None:
            tmpdir.cleanup()
    return {
        "rows": rows,
        "runtime": runtime,
        "meta": {
            "paper": "Durability extension: a killed-and-resumed run "
            "must be indistinguishable from an uninterrupted one — "
            "hex-identical weights via drain-barrier snapshots of every "
            "stage's weights/velocity/counters plus the data-stream "
            "cursor (epoch, index, rng state)."
        },
    }


def serving(
    scale: Scale | None = None,
    serve_backend: str = "sim",
    serve_requests: int | None = None,
    serve_max_batch: int = 8,
    serve_deadline_ms: float = 2.0,
    serve_concurrency: int = 8,
) -> dict:
    """Online serving extension: pipelined inference vs sequential forward.

    Trains a tiny multi-stage model a little (so the weights are not
    noise), freezes it into an
    :class:`~repro.serve.session.InferenceSession` on ``serve_backend``
    (``sim`` / ``threaded`` / ``process``), then drives the same
    closed-loop request stream through

    * the **sequential baseline** — one request at a time through
      ``model.forward`` behind a lock (what serving without a pipeline
      looks like), and
    * the **pipelined server** — dynamic micro-batching
      (``serve_max_batch`` cap, ``serve_deadline_ms`` coalescing
      deadline) feeding a persistent forward-only pipeline stream,

    and reports throughput, latency percentiles (p50/p95/p99), mean
    batch width, and the response-correctness check: every pipelined
    response must be bit-exact with the offline batched forward over
    the same packet decomposition's widths — and argmax-identical to
    the full-batch forward regardless of batching.

    CLI: ``python -m repro.experiments serving --serve-backend process
    --serve-requests 400 --serve-max-batch 8 --serve-deadline-ms 2``.
    """
    from functools import partial

    from repro.models.simple import small_cnn
    from repro.pipeline.runtime import make_pipeline_engine
    from repro.serve import (
        InferenceSession,
    )
    from repro.serve.loadgen import (
        count_bad_outputs,
        pipelined_closed_loop,
        sequential_closed_loop,
    )
    from repro.serve.session import SERVE_BACKENDS

    scale = scale or get_scale()
    if serve_backend not in SERVE_BACKENDS:
        raise ValueError(
            f"unknown serving backend {serve_backend!r}; choose from "
            f"{SERVE_BACKENDS}"
        )
    ds = SyntheticCifar(
        seed=0, image_size=8, train_size=min(scale.train_size, 128),
        val_size=min(scale.val_size, 64),
    )
    num_requests = (
        int(serve_requests)
        if serve_requests is not None
        else min(max(scale.pb_samples, 100), 400)
    )
    model_factory = partial(
        small_cnn, num_classes=ds.num_classes, widths=(8, 16), seed=11
    )
    model = model_factory()
    # a short PB training run: serving should exercise trained weights
    hp = scale.reference.scaled_to(1)
    engine = make_pipeline_engine(
        "sim", model, lr=hp.lr, momentum=hp.momentum,
        weight_decay=hp.weight_decay, mode="pb",
    )
    n_warm = min(ds.x_train.shape[0], 96)
    engine.train(ds.x_train[:n_warm], ds.y_train[:n_warm])

    x_pool = ds.x_val
    session = InferenceSession.from_engine(
        engine,
        runtime=serve_backend,
        micro_batch=int(serve_max_batch),
        sample_shape=x_pool.shape[1:],
        model_factory=model_factory,
    )

    seq_res = sequential_closed_loop(
        model, x_pool, num_requests, concurrency=int(serve_concurrency)
    )
    pipe_res, snapshot = pipelined_closed_loop(
        session, x_pool, num_requests,
        concurrency=int(serve_concurrency),
        max_batch=int(serve_max_batch),
        max_wait=float(serve_deadline_ms) / 1e3,
    )

    # response correctness against the full-batch forward (see
    # count_bad_outputs for why loadgen-level checks are tolerance-
    # based while the bit-level contract lives in the tests)
    ref_full = session.forward_reference(x_pool, micro_batch=x_pool.shape[0])
    mismatches = count_bad_outputs(
        pipe_res.outputs, ref_full, x_pool.shape[0]
    )
    rows = [seq_res.as_row(), pipe_res.as_row()]
    speedup = (
        pipe_res.throughput_rps / seq_res.throughput_rps
        if seq_res.throughput_rps > 0
        else float("nan")
    )
    return {
        "rows": rows,
        "speedup": speedup,
        "p99_ratio": (
            pipe_res.latency_p99 / seq_res.latency_p99
            if seq_res.latency_p99 > 0
            else float("nan")
        ),
        "prediction_mismatches": mismatches,
        "mean_batch_size": snapshot["mean_batch_size"],
        "queue_wait_p95_ms": (
            snapshot["queue_wait_s"]["p95"] * 1e3
            if snapshot["queue_wait_s"]["p95"] is not None
            else None
        ),
        "backend": serve_backend,
        "requests": num_requests,
        "meta": {
            "paper": "Serving extension: the paper's fill/drain "
            "argument at inference time — a forward-only pipeline with "
            "dynamic micro-batching sustains higher throughput at "
            "bounded tail latency than sequential single-request "
            "execution, without large batches."
        },
    }


def serving_fleet(
    scale: Scale | None = None,
    fleet_replicas: int = 3,
    fleet_backend: str = "sim",
    fleet_requests: int | None = None,
    fleet_interactive_pct: float = 70.0,
) -> dict:
    """Fleet serving extension: N replicas, SLO classes, live reload.

    Trains the stock serving model twice (two PR-4 checkpoints with
    different weights), boots a :class:`~repro.serve.fleet.FleetRouter`
    of ``fleet_replicas`` replicas on the first checkpoint, then drives
    a mixed interactive/batch closed loop (``fleet_interactive_pct`` %
    interactive) **through a rolling hot-swap onto the second
    checkpoint** — the serving-availability analogue of the paper's
    no-flush training claim: weights change under continuous load
    without refusing service.

    Reports per-class latency rows, the reload report (replicas
    swapped, minimum ready count observed while draining), and the
    fleet's id-accounting proof (submitted == resolved, zero
    duplicates).

    CLI: ``python -m repro.experiments serving_fleet --fleet-replicas 3
    --fleet-backend process --fleet-requests 300
    --fleet-interactive-pct 70``.
    """
    import os
    import tempfile
    import threading
    import time
    from functools import partial

    from repro.models.simple import small_cnn
    from repro.pipeline.checkpoint import (
        capture_checkpoint,
        checkpoint_fingerprint,
        save_checkpoint,
    )
    from repro.pipeline.runtime import make_pipeline_engine
    from repro.serve.fleet import FleetRouter, ReplicaSpec, rolling_reload
    from repro.serve.loadgen import run_classed_loop
    from repro.serve.session import SERVE_BACKENDS

    scale = scale or get_scale()
    if fleet_backend not in SERVE_BACKENDS:
        raise ValueError(
            f"unknown serving backend {fleet_backend!r}; choose from "
            f"{SERVE_BACKENDS}"
        )
    if fleet_replicas < 1:
        raise ValueError(
            f"fleet_replicas must be >= 1, got {fleet_replicas}"
        )
    if not 0.0 <= fleet_interactive_pct <= 100.0:
        raise ValueError(
            "fleet_interactive_pct must be in [0, 100], got "
            f"{fleet_interactive_pct}"
        )
    ds = SyntheticCifar(
        seed=0, image_size=8, train_size=min(scale.train_size, 128),
        val_size=min(scale.val_size, 64),
    )
    num_requests = (
        int(fleet_requests)
        if fleet_requests is not None
        else min(max(scale.pb_samples, 120), 360)
    )
    model_factory = partial(
        small_cnn, num_classes=ds.num_classes, widths=(8, 16), seed=11
    )
    hp = scale.reference.scaled_to(1)

    def _checkpoint(path: str, n_samples: int) -> str:
        model = model_factory()
        engine = make_pipeline_engine(
            "sim", model, lr=hp.lr, momentum=hp.momentum,
            weight_decay=hp.weight_decay, mode="pb",
        )
        n = min(ds.x_train.shape[0], n_samples)
        engine.train(ds.x_train[:n], ds.y_train[:n])
        save_checkpoint(path, capture_checkpoint(engine))
        return path

    x_pool = ds.x_val
    mix = {
        "interactive": fleet_interactive_pct / 100.0,
        "batch": 1.0 - fleet_interactive_pct / 100.0,
    }
    mix = {k: v for k, v in mix.items() if v > 0}
    with tempfile.TemporaryDirectory(prefix="repro-fleet-") as tmp:
        ck_a = _checkpoint(os.path.join(tmp, "a.ckpt"), 48)
        ck_b = _checkpoint(os.path.join(tmp, "b.ckpt"), 96)
        spec = ReplicaSpec(
            model_factory=model_factory,
            sample_shape=tuple(x_pool.shape[1:]),
            runtime=fleet_backend,
            micro_batch=8,
            max_queue=8,
        )
        with FleetRouter(
            spec, fleet_replicas, checkpoint=ck_a
        ) as router:
            report_box: list = []

            def mid_run_reload() -> None:
                time.sleep(0.25)
                report_box.append(rolling_reload(router, ck_b))

            swapper = threading.Thread(target=mid_run_reload)
            swapper.start()
            result = run_classed_loop(
                lambda x, slo: router.submit(x, slo).future.result(60.0),
                x_pool,
                num_requests,
                concurrency=min(8, 2 * fleet_replicas),
                mix=mix,
                label=f"fleet[{fleet_backend} x{fleet_replicas}]",
            )
            swapper.join()
            snap = router.snapshot()
        report = report_box[0]
        fp_new = checkpoint_fingerprint(ck_b)

    return {
        "rows": result.as_rows(),
        "replicas": fleet_replicas,
        "backend": fleet_backend,
        "requests": num_requests,
        "mix": mix,
        "reload": report.as_dict(),
        "accounting": {
            "submitted": snap["submitted"],
            "resolved": snap["resolved"],
            "duplicates": snap["duplicates"],
            "failed": snap["failed"],
            "completed_by_class": snap["completed_by_class"],
            "rejected_by_class": snap["rejected_by_class"],
        },
        "zero_downtime": report.min_ready_observed >= 1,
        "all_on_new_weights": report.fingerprint == fp_new,
        "meta": {
            "paper": "Fleet serving extension: the paper's no-flush "
            "argument applied to serving availability — a replicated "
            "forward-only pipeline fleet keeps admitting mixed-SLO "
            "traffic while weights hot-swap replica by replica, with "
            "zero dropped or duplicated requests."
        },
    }


def hybrid_parallelism(
    scale: Scale | None = None,
    schedule: str | None = None,
    replicas: int = 2,
) -> dict:
    """Data-parallel pipeline replicas vs one pipeline at ``R*U``.

    For each synchronous schedule (``fill_drain``, ``gpipe``) the same
    model/stream is trained two ways:

    * ``sim`` — one discrete-time :class:`PipelineExecutor` at the
      *global* update size ``R * U``;
    * ``replicated`` — a :class:`ReplicatedPipelineRunner` with ``R``
      process-runtime pipeline copies at per-replica update size ``U``,
      gradients chain-reduced across replicas at every barrier.

    ``parity`` records whether the replicated run's per-sample losses
    *and* final weights are **bit-identical** to the simulator's — the
    hybrid-parallelism contract (data-parallel replication of a
    synchronous pipeline is mathematically invisible).

    The asynchronous schedules (``pb``, ``1f1b``) have no global batch
    to compare against; replicas train independently on disjoint shards
    and average weight deltas at the end.  For those, ``staleness_ok``
    records whether every replica's observed forward-version trace
    respects the paper's eq.-5 delay ceiling ``D_s = 2(S-1-s)``.

    ``schedule`` restricts the table to one schedule and ``replicas``
    sets ``R`` (CLI ``--schedule`` / ``--replicas``).
    """
    import time as _time
    from functools import partial

    from repro.models.simple import small_cnn
    from repro.pipeline.executor import PipelineExecutor
    from repro.pipeline.runtime import ReplicatedPipelineRunner
    from repro.pipeline.schedule import SCHEDULE_NAMES, make_schedule

    scale = scale or get_scale()
    replicas = int(replicas)
    if replicas < 2:
        raise ValueError(
            f"hybrid_parallelism needs replicas >= 2, got {replicas}"
        )
    if schedule is not None and schedule not in SCHEDULE_NAMES:
        raise ValueError(
            f"unknown schedule {schedule!r}; choose from {SCHEDULE_NAMES}"
        )
    names = [schedule] if schedule else list(SCHEDULE_NAMES)
    ds = SyntheticCifar(
        seed=0, image_size=8, train_size=min(scale.train_size, 128),
        val_size=min(scale.val_size, 64),
    )
    n = min(scale.pb_samples, 64)
    update_size = min(scale.sim_batch, 4)
    micro = max(1, update_size // 2)

    rng = new_rng(derive_seed(23, "hybrid"))
    from repro.data.loader import sample_stream

    epochs = max(1, -(-n // ds.x_train.shape[0]))
    xs, ys = sample_stream(ds.x_train, ds.y_train, epochs, rng)
    xs, ys = xs[:n], ys[:n]

    model_factory = partial(
        small_cnn, num_classes=ds.num_classes, widths=(8, 16), seed=11
    )

    rows = []
    for name in names:
        rep_sched = make_schedule(
            name, update_size=update_size, micro_batch_size=micro
        )
        synchronous = not rep_sched.update_after_backward(0)
        per_replica = rep_sched.update_size
        global_update = per_replica * replicas if synchronous else per_replica
        hp = scale.reference.scaled_to(global_update)

        rep_model = model_factory()
        runner = ReplicatedPipelineRunner(
            rep_model, lr=hp.lr, momentum=hp.momentum,
            weight_decay=hp.weight_decay, mode=name,
            update_size=update_size, micro_batch_size=micro,
            replicas=replicas, model_factory=model_factory,
            record_versions=not synchronous,
        )
        t0 = _time.perf_counter()
        rep_stats = runner.train(xs, ys)
        rep_s = _time.perf_counter() - t0

        row = {
            "schedule": name,
            "replicas": replicas,
            "update_size": per_replica,
            "global_update": global_update,
            "replicated_s": round(rep_s, 4),
            "mean_busy_frac": round(
                rep_stats.mean_busy_fraction, 4
            ),
        }
        if synchronous:
            sim_model = model_factory()
            sim_sched = make_schedule(
                name, update_size=global_update,
                micro_batch_size=micro if name == "gpipe" else 1,
            )
            t0 = _time.perf_counter()
            sim_stats = PipelineExecutor(
                sim_model, lr=hp.lr, momentum=hp.momentum,
                weight_decay=hp.weight_decay, schedule=sim_sched,
            ).train(xs, ys)
            sim_s = _time.perf_counter() - t0
            weights_equal = all(
                np.array_equal(a.data, b.data)
                for a, b in zip(sim_model.parameters(),
                                rep_model.parameters())
            )
            row["parity"] = bool(
                np.array_equal(sim_stats.losses, rep_stats.losses)
                and weights_equal
            )
            row["sim_s"] = round(sim_s, 4)
            row["staleness_ok"] = None
        else:
            num_stages = runner.num_stages
            ok = True
            for rep in runner.replica_runners:
                for s, st in enumerate(rep.stages):
                    for (i, v_fwd, _v_bwd) in st.version_trace:
                        floor = max(0, i - 2 * (num_stages - 1 - s))
                        ok = ok and v_fwd >= floor
            row["parity"] = None
            row["sim_s"] = None
            row["staleness_ok"] = bool(ok)
        rows.append(row)
    return {
        "rows": rows,
        "samples": n,
        "meta": {
            "paper": "Hybrid parallelism extension: §1-2 contrast "
            "pipeline with data parallelism; here both compose — R "
            "data-parallel copies of the fine-grained pipeline with "
            "gradients reduced at update barriers.  For synchronous "
            "schedules parity must be True (R replicas at update size "
            "U are bit-identical to one pipeline at R*U, the eq.-9 "
            "scaling anchor); for pb/1f1b each replica must still obey "
            "the eq.-5 staleness ceiling."
        },
    }
