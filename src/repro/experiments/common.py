"""Shared machinery for the training experiments.

Two execution paths mirror the paper's own methodology:

* **executor runs** — true fine-grained PB through the cycle-accurate
  pipeline (update size one, per-stage delays arise structurally);
* **simulator runs** — the flat Appendix-G.2 emulation: batch training
  where each parameter's gradient is delayed by its stage's pipeline delay
  (``2(S-1-s)``, converted to steps at the simulation batch size).  Much
  faster; used for the wide ablation tables, exactly as the paper used its
  PyTorch simulation.

Bench-scale networks keep the *paper's exact stage counts* (Table 1) with
reduced widths, so the delay structure — the controlling variable — is
faithful.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.delayed_sgd import DelayedSGDM
from repro.core.mitigation import MitigationConfig
from repro.data.loader import ResumableSampleStream, iterate_steps
from repro.data.synthetic import Dataset, SyntheticCifar, SyntheticImageNet
from repro.experiments.scale import Scale
from repro.models.arch import StageGraphModel
from repro.models.registry import PAPER_STAGE_COUNTS
from repro.models.resnet import preact_resnet50, preact_resnet_cifar
from repro.models.vgg import build_vgg
from repro.optim.sgd import SGDM
from repro.pipeline.delays import pipeline_delay_profile
from repro.train.metrics import evaluate
from repro.train.trainer import train_step
from repro.utils.rng import derive_seed, new_rng


@dataclass(frozen=True)
class NetSpec:
    """A paper network plus how to build it at a given scale."""

    key: str
    family: str  # "rn" | "vgg" | "rn50"
    build: Callable[[Scale, int, int], StageGraphModel]

    def model(self, scale: Scale, num_classes: int, seed: int) -> StageGraphModel:
        model = self.build(scale, num_classes, seed)
        expected = PAPER_STAGE_COUNTS.get(self.key)
        if expected is not None and model.num_stages != expected:
            raise AssertionError(
                f"{self.key}: built {model.num_stages} stages, paper says "
                f"{expected}"
            )
        return model


def _rn(blocks_per_group: int, key: str) -> NetSpec:
    def build(scale: Scale, num_classes: int, seed: int) -> StageGraphModel:
        return preact_resnet_cifar(
            blocks_per_group,
            widths=scale.rn_widths,
            num_classes=num_classes,
            seed=seed,
            name=key,
        )

    return NetSpec(key=key, family="rn", build=build)


def _vgg(cfg: str) -> NetSpec:
    def build(scale: Scale, num_classes: int, seed: int) -> StageGraphModel:
        return build_vgg(
            cfg,
            num_classes=num_classes,
            image_size=scale.vgg_image,
            width_divisor=scale.width_divisor,
            hidden=max(32, 512 // scale.width_divisor),
            dropout_p=0.1 if scale.name == "bench" else 0.5,
            seed=seed,
            name=cfg,
        )

    return NetSpec(key=cfg, family="vgg", build=build)


def _rn50() -> NetSpec:
    def build(scale: Scale, num_classes: int, seed: int) -> StageGraphModel:
        bench = scale.width_divisor > 1
        return preact_resnet50(
            widths=(8, 16, 24, 32) if bench else (64, 128, 256, 512),
            expansion=2 if bench else 4,
            stem_stride=1 if bench else 2,  # keeps 16x16 inputs viable
            stem_kernel=3 if bench else 7,  # keeps the stem gradient sane
            # at 1x1 spatial the narrow net needs wider norm groups to
            # preserve signal (see DESIGN.md substitutions)
            group_size=16 if bench else 2,
            num_classes=num_classes,
            seed=seed,
            name="rn50",
        )

    return NetSpec(key="rn50", family="rn50", build=build)


NETS: dict[str, NetSpec] = {
    "vgg11": _vgg("vgg11"),
    "vgg13": _vgg("vgg13"),
    "vgg16": _vgg("vgg16"),
    "rn20": _rn(3, "rn20"),
    "rn32": _rn(5, "rn32"),
    "rn44": _rn(7, "rn44"),
    "rn56": _rn(9, "rn56"),
    "rn110": _rn(18, "rn110"),
    "rn50": _rn50(),
}


def dataset_for(spec: NetSpec, scale: Scale, seed: int = 0) -> Dataset:
    """The dataset a network family trains on at this scale."""
    if spec.family == "vgg":
        return SyntheticCifar(
            seed=seed,
            image_size=scale.vgg_image,
            train_size=scale.train_size,
            val_size=scale.val_size,
        )
    if spec.family == "rn50":
        return SyntheticImageNet(
            seed=seed,
            image_size=16 if scale.width_divisor > 1 else 32,
            train_size=scale.train_size,
            val_size=scale.val_size,
        )
    return SyntheticCifar(
        seed=seed,
        image_size=scale.rn_image,
        train_size=scale.train_size,
        val_size=scale.val_size,
    )


# -- executor path -------------------------------------------------------


#: Per-network (lr multiplier, warmup fraction) stability tweaks for the
#: deepest pipelines at bench scale.  He et al. themselves trained
#: ResNet-110 with a reduced warm-up learning rate; the paper notes a
#: warmup "may help stabilize PB training" (§5).  Applied by model name.
NET_TRAIN_TWEAKS: dict[str, tuple[float, float]] = {
    "rn50": (0.5, 0.5),
    "rn110": (0.5, 0.5),
    # plain (non-residual) VGG stacks need a much cooler rate at bench
    # scale; this also mirrors the paper's small SGDM-vs-PB gaps on VGG
    "vgg11": (0.1, 0.3),
    "vgg13": (0.1, 0.3),
    "vgg16": (0.1, 0.3),
}


def _tweaks_for(model: StageGraphModel, scale: Scale) -> tuple[float, float]:
    if scale.name != "bench":
        return 1.0, 0.2
    return NET_TRAIN_TWEAKS.get(model.name, (1.0, 0.2))


def _warmup(
    lr: float, total_steps: int, frac: float = 0.2
) -> Callable[[int], float]:
    """Linear LR warmup over the first ``frac`` of training.

    De-flakes the deep bench runs, whose hot scaled learning rate can
    otherwise collapse them into the uniform-prediction basin on unlucky
    batch orders.
    """
    from repro.optim.lr_schedule import ConstantSchedule, WarmupSchedule

    steps = max(1, int(total_steps * frac))
    return WarmupSchedule(ConstantSchedule(lr), steps, warmup_frac=0.1)


def run_pb_executor(
    model: StageGraphModel,
    ds: Dataset,
    mitigation: MitigationConfig,
    scale: Scale,
    seed: int = 0,
    mode: str = "pb",
    update_size: int = 1,
    micro_batch_size: int = 1,
    record_curve: bool = False,
    samples: int | None = None,
    runtime: str = "sim",
    lockstep: bool = False,
    **engine_kwargs,
) -> dict:
    """Stream samples through the pipeline engine; return final metrics.

    ``mode`` names any registered schedule (``pb``/``fill_drain``/
    ``gpipe``/``1f1b``); hyperparameters are eq.-9-scaled to the
    schedule's effective update size.  ``runtime`` picks the engine:
    ``"sim"`` is the discrete-time executor, ``"threaded"`` the
    concurrent thread-per-stage runtime and ``"process"`` the
    process-per-stage runtime with shared-memory transport (both
    free-running unless ``lockstep`` or short of a CPU per stage).
    Extra ``engine_kwargs`` reach the engine constructor — pass
    ``model_factory=`` for the process backend on spawn-default
    (non-Linux) platforms.
    """
    from repro.pipeline.runtime import make_pipeline_engine
    from repro.pipeline.schedule import make_schedule

    sched = make_schedule(
        mode, update_size=update_size, micro_batch_size=micro_batch_size
    )
    hp = scale.reference.scaled_to(sched.update_size)
    total = samples if samples is not None else scale.pb_samples
    lr_mult, warm_frac = _tweaks_for(model, scale)
    ex = make_pipeline_engine(
        runtime,
        model,
        lr=hp.lr * lr_mult,
        momentum=hp.momentum,
        weight_decay=hp.weight_decay,
        mitigation=mitigation,
        schedule=sched,
        lr_schedule=_warmup(hp.lr * lr_mult, total, warm_frac),
        lockstep=lockstep,
        **engine_kwargs,
    )
    rng = new_rng(derive_seed(seed, "pb", model.name, mitigation.name))
    curve: list[tuple[int, float]] = []
    done = 0
    chunk = max(1, total // 4) if record_curve else total
    # lazy stream: one epoch in memory regardless of run length, and the
    # curve chunks continue mid-epoch instead of re-shuffling per chunk
    epochs = max(1, -(-total // ds.x_train.shape[0]))
    stream = ResumableSampleStream(ds.x_train, ds.y_train, epochs, rng)
    while done < total:
        take = min(chunk, total - done)
        xs, ys = stream.next_chunk(take)
        ex.train(xs, ys)
        done += xs.shape[0]
        if record_curve:
            _, acc = evaluate(model, ds.x_val, ds.y_val)
            curve.append((done, acc))
    val_loss, val_acc = evaluate(model, ds.x_val, ds.y_val)
    return {
        "val_acc": val_acc,
        "val_loss": val_loss,
        "curve": curve,
        "samples": done,
    }


# -- flat-simulator path -----------------------------------------------------


def run_pb_simulated(
    model: StageGraphModel,
    ds: Dataset,
    mitigation: MitigationConfig,
    scale: Scale,
    consistent: bool = False,
    seed: int = 0,
    steps: int | None = None,
) -> dict:
    """Appendix-G.2 emulation of PB: per-stage delays via a flat profile."""
    hp = scale.reference.scaled_to(scale.sim_batch)
    profile = pipeline_delay_profile(model, sim_batch_size=scale.sim_batch)
    lr_mult, warm_frac = _tweaks_for(model, scale)
    opt = DelayedSGDM(
        model,
        lr=hp.lr * lr_mult,
        momentum=hp.momentum,
        weight_decay=hp.weight_decay,
        delay=profile,
        mitigation=mitigation,
        consistent=consistent or mitigation.weight_stashing,
    )
    rng = new_rng(derive_seed(seed, "sim", model.name, mitigation.name))
    total = steps if steps is not None else scale.sim_steps
    sched = _warmup(hp.lr * lr_mult, total, warm_frac)
    for step, (xb, yb) in enumerate(
        iterate_steps(ds.x_train, ds.y_train, scale.sim_batch, total, rng)
    ):
        opt.lr = sched(step)
        train_step(opt, model, xb, yb)
    val_loss, val_acc = evaluate(model, ds.x_val, ds.y_val)
    return {"val_acc": val_acc, "val_loss": val_loss, "steps": total}


def run_sgdm_baseline(
    model: StageGraphModel,
    ds: Dataset,
    scale: Scale,
    seed: int = 0,
    samples: int | None = None,
) -> dict:
    """Reference mini-batch SGDM seeing the same number of samples."""
    hp = scale.reference.scaled_to(scale.sim_batch)
    lr_mult, warm_frac = _tweaks_for(model, scale)
    opt = SGDM(
        model.parameters(),
        lr=hp.lr * lr_mult,
        momentum=hp.momentum,
        weight_decay=hp.weight_decay,
    )
    rng = new_rng(derive_seed(seed, "sgdm", model.name))
    total = samples if samples is not None else scale.pb_samples
    sched = _warmup(
        hp.lr * lr_mult, max(1, total // scale.sim_batch), warm_frac
    )
    steps = -(-total // scale.sim_batch)
    for step, (xb, yb) in enumerate(
        iterate_steps(ds.x_train, ds.y_train, scale.sim_batch, steps, rng)
    ):
        opt.lr = sched(step)
        train_step(opt, model, xb, yb)
    val_loss, val_acc = evaluate(model, ds.x_val, ds.y_val)
    return {
        "val_acc": val_acc,
        "val_loss": val_loss,
        "samples": steps * scale.sim_batch,
    }


def mean_std(values: list[float]) -> tuple[float, float]:
    arr = np.asarray(values, dtype=float)
    return float(arr.mean()), float(arr.std())
