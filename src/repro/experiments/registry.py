"""Experiment registry: id -> (callable, description)."""

from __future__ import annotations

from typing import Callable

from repro.experiments import extensions, figures, tables
from repro.experiments.scale import Scale

EXPERIMENTS: dict[str, tuple[Callable[..., dict], str]] = {
    "fig02": (
        figures.fig02_utilization,
        "Figure 2 / eq. 1 — pipeline utilization: fill-drain vs PB",
    ),
    "fig04": (
        figures.fig04_root_heatmaps,
        "Figure 4 — dominant-root heatmaps over (eta*lambda, momentum)",
    ),
    "fig05": (
        figures.fig05_condition_sweep,
        "Figure 5 — min half-life vs condition number (D=1)",
    ),
    "fig06": (
        figures.fig06_delay_sweep,
        "Figure 6 — min half-life vs delay (kappa=1e3)",
    ),
    "fig07": (
        figures.fig07_horizon_momentum,
        "Figure 7 — half-life vs momentum for LWP horizons (D=5)",
    ),
    "fig08": (
        figures.fig08_cifar_resnet20,
        "Figure 8 — CIFAR RN20 PB training with mitigations",
    ),
    "fig09": (
        figures.fig09_imagenet_resnet50,
        "Figure 9 — ImageNet RN50 PB training with mitigations",
    ),
    "fig10": (
        figures.fig10_inconsistency,
        "Figure 10 — consistent vs forward-only delay",
    ),
    "fig12": (
        figures.fig12_prediction_scale_quadratic,
        "Figure 12 — prediction-scale sweep on the quadratic",
    ),
    "fig13": (
        figures.fig13_prediction_scale_nn,
        "Figure 13 — prediction-scale sweep on a network (D=4)",
    ),
    "fig14": (
        figures.fig14_momentum_effects,
        "Figure 14 — momentum effects under delay",
    ),
    "fig16": (
        figures.fig16_executor_validation,
        "Figure 16 — executor validation (fill&drain == batch SGD)",
    ),
    "fig17": (
        figures.fig17_hparam_scaling,
        "Figure 17 — eq. 9 hyperparameter scaling validation",
    ),
    "table1": (
        tables.table1_cifar_suite,
        "Table 1/5 — CIFAR suite: SGDM vs PB vs PB+LWPv_D+SC_D",
    ),
    "table2": (
        tables.table2_weight_stashing,
        "Table 2 — weight stashing ablation",
    ),
    "table3": (
        tables.table3_spectrain,
        "Table 3 — SpecTrain comparison",
    ),
    "table4": (
        tables.table4_overcompensation,
        "Table 4 — overcompensation (LWP_2D / SC_2D)",
    ),
    "table6": (
        tables.table6_lwpv_vs_lwpw,
        "Table 6 — LWPv vs LWPw combined forms",
    ),
    "ablation_bn_vs_gn": (
        extensions.ablation_bn_vs_gn,
        "Extension — BN vs GN delay tolerance (§5 exploratory claim)",
    ),
    "ablation_warmup": (
        extensions.ablation_warmup,
        "Extension — LR warmup as a delay stabilizer (§5)",
    ),
    "ablation_gradient_shrinking": (
        extensions.ablation_gradient_shrinking,
        "Extension — gradient shrinking (Zhuang et al.) vs SC/LWP",
    ),
    "schedule_comparison": (
        extensions.schedule_comparison,
        "Extension — PB vs fill-drain vs GPipe vs 1F1B: steps-to-loss "
        "and utilization per schedule",
    ),
}


def run_experiment(
    exp_id: str, scale: Scale | None = None, **overrides
) -> dict:
    """Run a registered experiment and return its payload.

    ``overrides`` are forwarded to the experiment callable (e.g.
    ``schedule="gpipe"`` for ``schedule_comparison``); passing one an
    experiment does not accept raises :class:`ValueError`.
    """
    if exp_id not in EXPERIMENTS:
        raise KeyError(
            f"unknown experiment {exp_id!r}; available: {sorted(EXPERIMENTS)}"
        )
    fn, _ = EXPERIMENTS[exp_id]
    if overrides:
        import inspect

        params = inspect.signature(fn).parameters
        unsupported = sorted(set(overrides) - set(params))
        if unsupported:
            raise ValueError(
                f"experiment {exp_id!r} does not accept "
                f"{', '.join(unsupported)}"
            )
        return fn(scale, **overrides)
    return fn(scale)
