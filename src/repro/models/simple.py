"""Small stage-graph networks for tests and fast benches."""

from __future__ import annotations

from repro.models.arch import StageDef, StageGraphModel
from repro.nn import (
    Conv2d,
    Flatten,
    GlobalAvgPool,
    Linear,
    ReLU,
    Sequential,
    group_norm_for,
)
from repro.utils.rng import derive_seed, new_rng


def small_cnn(
    num_classes: int = 10,
    in_channels: int = 3,
    widths: tuple[int, ...] = (8, 16),
    with_norm: bool = True,
    seed: int = 0,
) -> StageGraphModel:
    """A plain conv chain (no skips): conv+norm+relu stages, pool, fc, loss.

    With ``len(widths)`` convs this has ``len(widths) + 3`` stages — small
    enough that the cycle-accurate pipeline executor runs in milliseconds.
    """
    stages: list[StageDef] = []
    ch = in_channels
    for i, w in enumerate(widths):
        parts = [
            Conv2d(ch, w, 3, padding=1, bias=not with_norm,
                   rng=new_rng(derive_seed(seed, "cnn", i))),
        ]
        if with_norm:
            parts.append(group_norm_for(w))
        parts.append(ReLU())
        stages.append(StageDef(f"conv{i}", module=Sequential(*parts)))
        ch = w
    stages.append(StageDef("global_pool", module=GlobalAvgPool()))
    stages.append(
        StageDef(
            "fc",
            module=Linear(ch, num_classes, rng=new_rng(derive_seed(seed, "fc"))),
        )
    )
    stages.append(StageDef("loss", kind="loss"))
    return StageGraphModel(stages, name="small_cnn")


def mlp(
    in_features: int,
    num_classes: int,
    hidden: tuple[int, ...] = (32, 32),
    seed: int = 0,
) -> StageGraphModel:
    """Fully-connected stage graph on flattened inputs."""
    stages: list[StageDef] = [StageDef("flatten", module=Flatten())]
    prev = in_features
    for i, h in enumerate(hidden):
        stages.append(
            StageDef(
                f"fc{i}",
                module=Sequential(
                    Linear(prev, h, rng=new_rng(derive_seed(seed, "mlp", i))),
                    ReLU(),
                ),
            )
        )
        prev = h
    stages.append(
        StageDef(
            "head",
            module=Linear(prev, num_classes, rng=new_rng(derive_seed(seed, "head"))),
        )
    )
    stages.append(StageDef("loss", kind="loss"))
    return StageGraphModel(stages, name="mlp")
