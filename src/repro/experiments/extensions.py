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
"""

from __future__ import annotations

import numpy as np

from repro.core.delayed_sgd import DelayedSGDM
from repro.core.mitigation import MitigationConfig
from repro.data.loader import iterate_steps
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
from repro.train.trainer import train_step
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
    for step, (xb, yb) in enumerate(
        iterate_steps(
            ds.x_train, ds.y_train, scale.sim_batch, scale.sim_steps, rng
        )
    ):
        opt.lr = sched(step)
        train_step(opt, model, xb, yb)
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
    flag — the concurrent engines run free-running here, so with a CPU
    per stage pb/1f1b numbers vary with worker timing; short of one, and
    in lockstep, they are the simulator's, pinned in
    ``tests/test_runtime_parity.py``).
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
