"""Figure reproductions (see DESIGN.md §4 for the experiment index)."""

from __future__ import annotations

import numpy as np

from repro.core.delayed_sgd import DelayedSGDM
from repro.core.mitigation import MitigationConfig
from repro.data.loader import iterate_steps
from repro.data.synthetic import SyntheticCifar
from repro.experiments.common import (
    NETS,
    dataset_for,
    run_pb_executor,
    run_sgdm_baseline,
)
from repro.experiments.scale import Scale, get_scale
from repro.models.simple import small_cnn
from repro.optim.scaling import lr_for_momentum
from repro.optim.sgd import SGDM
from repro.pipeline.executor import PipelineExecutor
from repro.pipeline.occupancy import (
    fill_drain_occupancy,
    pb_occupancy,
    render_occupancy,
    schedule_utilization,
)
from repro.pipeline.utilization import (
    fill_drain_utilization,
    pb_utilization,
    utilization_upper_bound,
)
from repro.quadratic.halflife import (
    condition_number_sweep,
    delay_sweep,
    horizon_sweep,
    momentum_curve,
)
from repro.quadratic.polynomials import (
    GDM,
    GDM_NO_DELAY,
    NESTEROV_NO_DELAY,
    combined_method,
    lwp_method,
    sc_method,
)
from repro.quadratic.roots import (
    default_eta_lambda_grid,
    default_momentum_grid,
    rate_grid,
    stability_mask,
)
from repro.train.metrics import evaluate
from repro.train.trainer import train_step
from repro.utils.rng import derive_seed, new_rng


# -- Figure 2 / eq. 1: pipeline utilization -----------------------------------


def fig02_utilization(scale: Scale | None = None) -> dict:
    """Utilization of fill-drain SGD (small/large batch) vs PB."""
    scale = scale or get_scale()
    rows = []
    for net, stages in [("vgg11", 29), ("rn20", 34), ("rn50", 78), ("rn110", 169)]:
        for batch in (1, 32, 128):
            rows.append(
                {
                    "net": net,
                    "stages": stages,
                    "batch": batch,
                    "fill_drain_util": fill_drain_utilization(stages, batch),
                    "eq1_upper_bound": utilization_upper_bound(stages, batch),
                    "pb_util_50k": pb_utilization(stages, 50_000),
                }
            )
    # cross-check the closed forms against the occupancy-grid model
    S = 8
    grid_fd = schedule_utilization(fill_drain_occupancy(S, 4, num_batches=3))
    grid_pb = schedule_utilization(pb_occupancy(S, 200))
    ascii_demo = render_occupancy(fill_drain_occupancy(4, 3, num_batches=2))
    return {
        "rows": rows,
        "grid_check": {
            "fill_drain_grid": grid_fd,
            "fill_drain_formula": fill_drain_utilization(S, 4),
            "pb_grid": grid_pb,
            "pb_formula": pb_utilization(S, 200),
        },
        "ascii_fill_drain": ascii_demo,
        "meta": {
            "paper": "Figure 2 + eq. 1: fill/drain wastes N/(N+2S); PB "
            "approaches full utilization after the initial fill."
        },
    }


# -- Figure 4: dominant-root heatmaps ------------------------------------------


def fig04_root_heatmaps(scale: Scale | None = None) -> dict:
    """|r_max|(eta*lambda, momentum) for the six panels of Figure 4."""
    scale = scale or get_scale()
    ppd = scale.points_per_decade
    els = default_eta_lambda_grid(ppd)
    ms = default_momentum_grid(ppd)
    panels = {
        "GDM D=0": (GDM_NO_DELAY, 1),
        "GDM D=1": (GDM, 1),
        "SC_D D=1": (sc_method(), 1),
        "Nesterov D=0": (NESTEROV_NO_DELAY, 1),
        "LWP_D D=1": (lwp_method(), 1),
        "LWPw_D+SC_D D=1": (combined_method(), 1),
    }
    out_panels = {}
    stable_areas = {}
    for name, (method, delay) in panels.items():
        grid = rate_grid(method, delay, els, ms)
        out_panels[name] = grid
        stable_areas[name] = int(stability_mask(grid).sum())
    return {
        "eta_lambda": els,
        "momentum": ms,
        "panels": {k: v for k, v in out_panels.items()},
        "stable_areas": stable_areas,
        "meta": {
            "paper": "Figure 4: delay shrinks the stable region, especially "
            "at high momentum; SC_D strictly enlarges it again; the "
            "combination resembles no-delay Nesterov."
        },
    }


# -- Figures 5-7, 12: half-life sweeps ----------------------------------------


def fig05_condition_sweep(scale: Scale | None = None) -> dict:
    scale = scale or get_scale()
    n_pts = 7 if scale.name == "bench" else 13
    kappas = np.logspace(0, 6, n_pts)
    methods = {
        "GDM D=1": GDM,
        "SC_D D=1": sc_method(),
        "LWP_D D=1": lwp_method(),
        "LWPw_D+SC_D D=1": combined_method(),
        "GDM D=0": GDM_NO_DELAY,
    }
    series = condition_number_sweep(
        methods, kappas, delay=1, points_per_decade=scale.points_per_decade
    )
    return {
        "kappa": kappas,
        "series": series,
        "meta": {
            "paper": "Figure 5: all methods improve convergence vs delayed "
            "GDM; LWPw_D+SC_D performs best."
        },
    }


def fig06_delay_sweep(scale: Scale | None = None) -> dict:
    scale = scale or get_scale()
    delays = (
        np.array([0, 2, 4, 8, 12, 16])
        if scale.name == "bench"
        else np.arange(0, 17)
    )
    methods = {
        "GDM": GDM,
        "LWP_D": lwp_method(),
        "LWPw_D+SC_D": combined_method(),
    }
    series = delay_sweep(
        methods,
        delays,
        kappa=1e3,
        points_per_decade=scale.points_per_decade,
    )
    return {
        "delay": delays,
        "series": series,
        "meta": {
            "paper": "Figure 6: half-life grows with delay for GDM; the "
            "combined mitigation stays lowest at every delay (kappa=1e3)."
        },
    }


def fig07_horizon_momentum(scale: Scale | None = None) -> dict:
    scale = scale or get_scale()
    n_m = 10 if scale.name == "bench" else 24
    u = np.linspace(0.2, 5.0, n_m)
    momenta = np.concatenate([[0.0], 1.0 - 10.0 ** (-u)])
    curves = {}
    for T in (0.0, 3.0, 5.0, 10.0, 20.0):
        curves[f"LWP T={T:g}"] = momentum_curve(
            lwp_method(horizon=T), delay=5, kappa=1e3, momenta=momenta,
            points_per_decade=scale.points_per_decade,
        )
    curves["LWPw_D+SC_D"] = momentum_curve(
        combined_method(), delay=5, kappa=1e3, momenta=momenta,
        points_per_decade=scale.points_per_decade,
    )
    return {
        "momentum": momenta,
        "series": curves,
        "meta": {
            "paper": "Figure 7: without mitigation (T=0) the optimal "
            "momentum is ~0; T around 2D is best among pure LWP but does "
            "not beat the combination (kappa=1e3, D=5)."
        },
    }


def fig12_prediction_scale_quadratic(scale: Scale | None = None) -> dict:
    scale = scale or get_scale()
    scales = (
        np.array([0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 6.0, 8.0, 10.0])
        if scale.name == "bench"
        else np.linspace(0.0, 10.0, 41)
    )
    series = {}
    for kappa, delay in [(1e3, 4), (1e3, 10), (1e5, 4)]:
        vals = horizon_sweep(
            lambda alpha: lwp_method(scale=alpha),
            scales,
            delay=delay,
            kappa=kappa,
            points_per_decade=scale.points_per_decade,
        )
        series[f"kappa={kappa:g}, D={delay}"] = np.log10(vals)
    return {
        "prediction_scale": scales,
        "series_log10_halflife": series,
        "meta": {
            "paper": "Figure 12: horizons around T=2D minimize the "
            "half-life for all (kappa, D) combinations shown."
        },
    }


# -- Figures 8-9: PB training curves -------------------------------------------


def _pb_method_suite() -> dict[str, MitigationConfig]:
    return {
        "PB": MitigationConfig.none(),
        "PB+LWP_D": MitigationConfig.lwp(),
        "PB+SC_D": MitigationConfig.sc(),
        "PB+LWPv_D+SC_D": MitigationConfig.lwp_plus_sc(),
    }


def _pb_training_figure(
    net_key: str,
    scale: Scale,
    seed: int = 0,
    engine: str = "executor",
    budget: float = 1.0,
) -> dict:
    """Train one network with SGDM + the four PB methods.

    ``engine`` selects true pipelined execution (``"executor"``) or the
    paper's own flat Appendix-G.2 emulation (``"sim"``), used at bench
    scale for the heaviest networks.  ``budget`` multiplies the sample/step
    allowance (deep nets need more steps to leave the chance plateau).
    """
    from repro.experiments.common import run_pb_simulated

    spec = NETS[net_key]
    ds = dataset_for(spec, scale, seed=seed)
    samples = int(scale.pb_samples * budget)
    steps = int(scale.sim_steps * budget)
    rows = []
    curves = {}
    # SGDM reference (mini-batch, eq.-9-comparable hyperparameters)
    model = spec.model(scale, ds.num_classes, seed)
    res = run_sgdm_baseline(model, ds, scale, seed=seed, samples=samples)
    rows.append({"method": "SGDM", "val_acc": res["val_acc"]})
    for name, mitigation in _pb_method_suite().items():
        model = spec.model(scale, ds.num_classes, seed)
        if engine == "executor":
            res = run_pb_executor(
                model, ds, mitigation, scale, seed=seed, record_curve=True,
                samples=samples,
            )
            curves[name] = res["curve"]
        else:
            res = run_pb_simulated(
                model, ds, mitigation, scale, seed=seed, steps=steps
            )
        rows.append({"method": name, "val_acc": res["val_acc"]})
    return {"rows": rows, "curves": curves, "net": net_key, "engine": engine}


def fig08_cifar_resnet20(scale: Scale | None = None) -> dict:
    scale = scale or get_scale()
    out = _pb_training_figure("rn20", scale)
    out["meta"] = {
        "paper": "Figure 8 (CIFAR10 RN20): SGDM 90.6, PB 90.4, PB+LWP_D "
        "90.7, PB+SC_D 90.8, PB+LWPv_D+SC_D 90.9 — mitigation recovers and "
        "slightly exceeds the baseline.",
        "paper_values": {
            "SGDM": 90.6, "PB": 90.4, "PB+LWP_D": 90.7,
            "PB+SC_D": 90.8, "PB+LWPv_D+SC_D": 90.9,
        },
    }
    return out


def fig09_imagenet_resnet50(scale: Scale | None = None) -> dict:
    scale = scale or get_scale()
    engine = "sim" if scale.name == "bench" else "executor"
    out = _pb_training_figure(
        "rn50", scale, engine=engine,
        budget=4.0 if scale.name == "bench" else 1.0,
    )
    out["meta"] = {
        "paper": "Figure 9 (ImageNet RN50): SGDM 75.7, PB 75.1 (-0.6), "
        "PB+LWP_D 75.2, PB+SC_D 75.6, PB+LWPv_D+SC_D 75.8.",
        "paper_values": {
            "SGDM": 75.7, "PB": 75.1, "PB+LWP_D": 75.2,
            "PB+SC_D": 75.6, "PB+LWPv_D+SC_D": 75.8,
        },
    }
    return out


# -- Figure 10: inconsistency vs staleness -------------------------------------


def fig10_inconsistency(scale: Scale | None = None) -> dict:
    """Final accuracy vs constant delay, consistent vs forward-only."""
    scale = scale or get_scale()
    ds = SyntheticCifar(
        seed=0, image_size=8, train_size=scale.train_size,
        val_size=scale.val_size,
    )
    delays = [0, 1, 2, 4, 8] if scale.name == "bench" else [0, 1, 2, 3, 4, 5, 6, 8]
    hp = scale.reference.scaled_to(scale.sim_batch)
    series = {"consistent": [], "forward_only": []}
    for mode, consistent in (("consistent", True), ("forward_only", False)):
        for d in delays:
            model = small_cnn(
                num_classes=ds.num_classes, widths=(8, 16), seed=3
            )
            opt = DelayedSGDM(
                model, lr=hp.lr, momentum=hp.momentum,
                weight_decay=hp.weight_decay, delay=d, consistent=consistent,
            )
            rng = new_rng(derive_seed(0, "fig10", mode, d))
            for xb, yb in iterate_steps(
                ds.x_train, ds.y_train, scale.sim_batch, scale.sim_steps, rng
            ):
                train_step(opt, model, xb, yb)
            _, acc = evaluate(model, ds.x_val, ds.y_val)
            series[mode].append(acc)
    return {
        "delays": delays,
        "series": series,
        "meta": {
            "paper": "Figure 10: delayed gradients lose accuracy even with "
            "consistent weights; inconsistency only adds damage at large "
            "delays (reconciling PipeDream vs SpecTrain claims)."
        },
    }


# -- Figure 13: prediction scale on a network -----------------------------------


def fig13_prediction_scale_nn(scale: Scale | None = None) -> dict:
    scale = scale or get_scale()
    ds = SyntheticCifar(
        seed=0, image_size=8, train_size=scale.train_size,
        val_size=scale.val_size,
    )
    delay = 4
    alphas = (
        [0.0, 1.0, 2.0, 3.0, 4.0]
        if scale.name == "bench"
        else [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 6.0, 8.0, 10.0]
    )
    hp = scale.reference.scaled_to(scale.sim_batch)
    accs, losses = [], []
    for alpha in alphas:
        model = small_cnn(num_classes=ds.num_classes, widths=(8, 16), seed=3)
        mit = (
            MitigationConfig.none()
            if alpha == 0.0
            else MitigationConfig.lwp(scale=alpha)
        )
        opt = DelayedSGDM(
            model, lr=hp.lr, momentum=hp.momentum,
            weight_decay=hp.weight_decay, delay=delay, mitigation=mit,
            consistent=True,
        )
        rng = new_rng(derive_seed(0, "fig13", alpha))
        train_losses = [
            train_step(opt, model, xb, yb)
            for xb, yb in iterate_steps(
                ds.x_train, ds.y_train, scale.sim_batch, scale.sim_steps, rng
            )
        ]
        _, acc = evaluate(model, ds.x_val, ds.y_val)
        accs.append(acc)
        losses.append(float(np.mean(train_losses[-20:])))
    return {
        "prediction_scale": alphas,
        "val_acc": accs,
        "final_train_loss": losses,
        "meta": {
            "paper": "Figure 13: on CIFAR10 RN20 with D=4 (consistent), the "
            "best loss/accuracy is around alpha ~ 2 (T = 2D)."
        },
    }


# -- Figure 14: momentum effects -----------------------------------------------


def fig14_momentum_effects(scale: Scale | None = None) -> dict:
    scale = scale or get_scale()
    ds = SyntheticCifar(
        seed=0, image_size=8, train_size=scale.train_size,
        val_size=scale.val_size,
    )
    momenta = (
        [0.0, 0.9, 0.99, 0.999]
        if scale.name == "bench"
        else [0.0, 0.5, 0.9, 0.99, 0.999, 0.9999]
    )
    delay = 6 if scale.name == "bench" else 12
    ref = scale.reference
    methods = {
        "no_delay": (0, MitigationConfig.none()),
        "delayed": (delay, MitigationConfig.none()),
        "SC_D": (delay, MitigationConfig.sc()),
        "LWP_D": (delay, MitigationConfig.lwp()),
        "LWPv_D+SC_D": (delay, MitigationConfig.lwp_plus_sc()),
    }
    out: dict[str, dict[str, list[float]]] = {}
    for consistency in ("consistent", "inconsistent"):
        series = {name: [] for name in methods}
        for m in momenta:
            lr = lr_for_momentum(
                ref.lr, ref.momentum, ref.batch_size, m, scale.sim_batch
            )
            for name, (d, mit) in methods.items():
                model = small_cnn(
                    num_classes=ds.num_classes, widths=(8, 16), seed=3
                )
                opt = DelayedSGDM(
                    model, lr=lr, momentum=m,
                    weight_decay=ref.weight_decay, delay=d, mitigation=mit,
                    consistent=(consistency == "consistent"),
                )
                rng = new_rng(derive_seed(0, "fig14", consistency, name, m))
                for xb, yb in iterate_steps(
                    ds.x_train, ds.y_train, scale.sim_batch,
                    scale.sim_steps, rng,
                ):
                    train_step(opt, model, xb, yb)
                _, acc = evaluate(model, ds.x_val, ds.y_val)
                series[name].append(acc)
        out[consistency] = series
    return {
        "momentum": momenta,
        "panels": out,
        "meta": {
            "paper": "Figure 14: with delay, plain SGDM prefers small "
            "momentum; the compensation methods work best at large "
            "momentum and the combination exceeds the no-delay baseline."
        },
    }


# -- Figure 16: executor validation ---------------------------------------------


def fig16_executor_validation(scale: Scale | None = None) -> dict:
    """Fill&drain pipeline SGD == sequential batch SGD (exact)."""
    scale = scale or get_scale()
    ds = SyntheticCifar(
        seed=0, image_size=8, train_size=min(scale.train_size, 256),
        val_size=scale.val_size,
    )
    N = 8
    m1 = small_cnn(num_classes=ds.num_classes, seed=4)
    m2 = small_cnn(num_classes=ds.num_classes, seed=4)
    hp = scale.reference.scaled_to(N)

    ex = PipelineExecutor(
        m1, lr=hp.lr, momentum=hp.momentum, weight_decay=hp.weight_decay,
        mode="fill_drain", update_size=N,
    )
    rng = new_rng(7)
    idx = rng.permutation(ds.x_train.shape[0])
    X, Y = ds.x_train[idx], ds.y_train[idx]
    ex.train(X, Y)

    opt = SGDM(
        m2.parameters(), lr=hp.lr, momentum=hp.momentum,
        weight_decay=hp.weight_decay,
    )
    for b in range(len(Y) // N):
        train_step(opt, m2, X[b * N : (b + 1) * N], Y[b * N : (b + 1) * N])
    max_diff = max(
        float(np.abs(a.data - b.data).max())
        for a, b in zip(m1.parameters(), m2.parameters())
    )
    _, acc1 = evaluate(m1, ds.x_val, ds.y_val)
    _, acc2 = evaluate(m2, ds.x_val, ds.y_val)
    return {
        "max_param_diff": max_diff,
        "val_acc_pipeline": acc1,
        "val_acc_reference": acc2,
        "meta": {
            "paper": "Figure 16: GProp's fill&drain SGD matches the "
            "reference framework's SGD; our executor matches the reference "
            "to floating-point round-off."
        },
    }


# -- Figure 17: hyperparameter scaling -------------------------------------------


def fig17_hparam_scaling(scale: Scale | None = None) -> dict:
    """Batch-1 training with eq.-9-scaled hyperparameters tracks the
    reference-batch run; naive (unscaled) batch-1 training does not."""
    scale = scale or get_scale()
    ds = SyntheticCifar(
        seed=0, image_size=8, train_size=min(scale.train_size, 384),
        val_size=scale.val_size,
    )
    ref_batch = 32
    ref = scale.reference.scaled_to(ref_batch)
    total = ds.x_train.shape[0] * (2 if scale.name == "bench" else 8)

    def run(batch: int, lr: float, momentum: float, tag: str):
        model = small_cnn(num_classes=ds.num_classes, widths=(8, 16), seed=5)
        opt = SGDM(model.parameters(), lr=lr, momentum=momentum,
                   weight_decay=ref.weight_decay)
        rng = new_rng(derive_seed(0, "fig17", tag))
        curve = []
        steps = -(-total // batch)
        per_epoch = ds.x_train.shape[0] // batch
        for step, (xb, yb) in enumerate(
            iterate_steps(ds.x_train, ds.y_train, batch, steps, rng), 1
        ):
            train_step(opt, model, xb, yb)
            if step % per_epoch == 0 or step == steps:
                # one curve point per epoch, and one at the end
                _, acc = evaluate(model, ds.x_val, ds.y_val)
                curve.append((step * batch, acc))
        return curve

    scaled = scale.reference.scaled_to(1)
    curves = {
        f"batch{ref_batch}_reference": run(ref_batch, ref.lr, ref.momentum, "ref"),
        "batch1_eq9_scaled": run(1, scaled.lr, scaled.momentum, "scaled"),
        "batch1_naive_unscaled": run(1, ref.lr, ref.momentum, "naive"),
    }
    final = {k: v[-1][1] for k, v in curves.items()}
    return {
        "curves": curves,
        "final_acc": final,
        "meta": {
            "paper": "Figure 17: with eq.-9 scaling, batch-1 training "
            "curves match the batch-128 reference; without scaling they "
            "diverge or train poorly."
        },
    }
