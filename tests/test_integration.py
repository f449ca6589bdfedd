"""Cross-system integration tests: the paper's claims at micro scale."""

import numpy as np
import pytest

from repro.core import DelayedSGDM, MitigationConfig
from repro.core.compensation import spike_coefficients
from repro.data import iterate_batches
from repro.models import resnet_tiny, small_cnn
from repro.optim import HyperParams
from repro.pipeline import PipelineExecutor, pipeline_delay_profile
from repro.quadratic import ConvexQuadratic, run_delayed_quadratic
from repro.train import evaluate, train_step
from repro.utils.rng import new_rng

REF = HyperParams(lr=0.5, momentum=0.9, batch_size=32, weight_decay=1e-4)


def train_sim(model, ds, delay, mitigation, steps=100, batch=16,
              consistent=True, seed=0):
    hp = REF.scaled_to(batch)
    opt = DelayedSGDM(
        model, lr=hp.lr, momentum=hp.momentum, weight_decay=hp.weight_decay,
        delay=delay, mitigation=mitigation, consistent=consistent,
    )
    rng = new_rng(seed)
    done = 0
    while done < steps:
        for xb, yb in iterate_batches(ds.x_train, ds.y_train, batch, rng=rng):
            train_step(opt, model, xb, yb)
            done += 1
            if done >= steps:
                break
    return evaluate(model, ds.x_val, ds.y_val)[1]


class TestDelayDegradesTraining:
    """Figure 10's headline at micro scale: staleness costs accuracy."""

    def test_delay_hurts(self, tiny_dataset):
        accs = {}
        for d in (0, 8):
            model = small_cnn(num_classes=4, widths=(8, 16), seed=3)
            accs[d] = train_sim(
                model, tiny_dataset, d, MitigationConfig.none(), steps=80
            )
        assert accs[8] < accs[0]

    def test_mitigation_recovers_on_quadratic(self):
        """The optimization-level claim, exactly: combined mitigation beats
        plain delayed SGDM on an ill-conditioned quadratic."""
        quad = ConvexQuadratic.log_spectrum(kappa=1e3, n=32)
        m, D, lr = 0.9, 8, 0.015
        plain = run_delayed_quadratic(quad, lr, m, D, steps=1200)
        a, b = spike_coefficients(m, D)
        combo = run_delayed_quadratic(
            quad, lr, m, D, a=a, b=b, T=float(D), steps=1200
        )
        assert combo[-1] < plain[-1] * 0.5


class TestSimulatorEmulatesPipeline:
    """The flat Appendix-G.2 simulator with a per-stage profile must agree
    qualitatively with the cycle-accurate executor."""

    def test_per_stage_profile_matches_stage_delays(self):
        model = resnet_tiny(widths=(4, 8, 8), seed=1)
        profile = pipeline_delay_profile(model, sim_batch_size=1)
        stage_of = model.param_stage_index()
        S = model.num_stages
        for p in model.parameters():
            expected = 2 * (S - 1 - stage_of[id(p)])
            assert profile.mapping[id(p)] == expected

    def test_both_engines_train_above_chance(self, tiny_dataset):
        # executor path (true PB)
        m1 = resnet_tiny(
            num_classes=4, widths=(4, 8, 8), seed=1
        )
        hp = REF.scaled_to(1)
        ex = PipelineExecutor(
            m1, lr=hp.lr, momentum=hp.momentum,
            weight_decay=hp.weight_decay, mode="pb",
            mitigation=MitigationConfig.lwp_plus_sc(),
        )
        rng = new_rng(0)
        idx = rng.permutation(tiny_dataset.x_train.shape[0])
        for _ in range(3):
            ex.train(tiny_dataset.x_train[idx], tiny_dataset.y_train[idx])
        acc_exec = evaluate(m1, tiny_dataset.x_val, tiny_dataset.y_val)[1]

        # simulator path (per-stage profile at batch 4)
        m2 = resnet_tiny(num_classes=4, widths=(4, 8, 8), seed=1)
        profile = pipeline_delay_profile(m2, sim_batch_size=4)
        acc_sim = train_sim(
            m2, tiny_dataset, profile, MitigationConfig.lwp_plus_sc(),
            steps=144, batch=4, consistent=False,
        )
        assert acc_exec > 0.3  # chance 0.25
        assert acc_sim > 0.3

    def test_executor_mitigation_beats_plain_pb_when_delay_bites(
        self, tiny_dataset
    ):
        """On a deeper tiny pipeline with a hot LR, plain PB loses accuracy
        that the combined mitigation recovers (Figure 8's shape)."""
        accs = {}
        for name, mit in (
            ("pb", MitigationConfig.none()),
            ("combo", MitigationConfig.lwp_plus_sc()),
        ):
            model = resnet_tiny(
                num_classes=4, blocks_per_group=2, widths=(4, 8, 8), seed=1
            )
            hp = REF.scaled_to(1)
            ex = PipelineExecutor(
                model, lr=hp.lr * 2.0, momentum=hp.momentum,
                weight_decay=hp.weight_decay, mode="pb", mitigation=mit,
            )
            rng = new_rng(0)
            idx = rng.permutation(tiny_dataset.x_train.shape[0])
            for _ in range(3):
                ex.train(tiny_dataset.x_train[idx], tiny_dataset.y_train[idx])
            accs[name] = evaluate(
                model, tiny_dataset.x_val, tiny_dataset.y_val
            )[1]
        assert accs["combo"] >= accs["pb"] - 0.05


class TestScaledHyperparametersTransfer:
    """Figure 17's claim: eq.-9 scaling makes batch-1 match the reference."""

    def test_scaled_batch1_close_to_reference(self, tiny_dataset):
        from repro.optim import SGDM
        from repro.tensor import Tensor, cross_entropy

        results = {}
        total = tiny_dataset.x_train.shape[0] * 2
        for tag, batch in (("ref", 16), ("scaled", 1)):
            hp = REF.scaled_to(batch)
            model = small_cnn(num_classes=4, widths=(8, 16), seed=3)
            opt = SGDM(model.parameters(), lr=hp.lr, momentum=hp.momentum,
                       weight_decay=hp.weight_decay)
            rng = new_rng(1)
            seen = 0
            while seen < total:
                for xb, yb in iterate_batches(
                    tiny_dataset.x_train, tiny_dataset.y_train, batch, rng=rng
                ):
                    loss = cross_entropy(model(Tensor(xb)), yb)
                    opt.zero_grad()
                    loss.backward()
                    opt.step()
                    seen += len(yb)
                    if seen >= total:
                        break
            results[tag] = evaluate(
                model, tiny_dataset.x_val, tiny_dataset.y_val
            )[1]
        assert abs(results["scaled"] - results["ref"]) < 0.25


class TestExperimentRegistry:
    def test_registry_complete(self):
        from repro.experiments import EXPERIMENTS

        expected = {
            "fig02", "fig04", "fig05", "fig06", "fig07", "fig08", "fig09",
            "fig10", "fig12", "fig13", "fig14", "fig16", "fig17",
            "table1", "table2", "table3", "table4", "table6",
            "ablation_bn_vs_gn", "ablation_warmup",
            "ablation_gradient_shrinking", "schedule_comparison",
        }
        assert set(EXPERIMENTS) == expected
        for exp_id, (fn, desc) in EXPERIMENTS.items():
            assert callable(fn)
            assert desc

    def test_unknown_experiment_raises(self):
        from repro.experiments import run_experiment

        with pytest.raises(KeyError):
            run_experiment("fig99")

    def test_fast_experiments_run(self):
        """The pure-analysis experiments and the flat-loop ones (a
        ``for`` over ``iterate_steps`` calling ``train_step``) run end to
        end in-process."""
        from repro.experiments import run_experiment

        for eid in ("fig02", "fig05", "fig16", "fig10", "fig13", "fig17"):
            payload = run_experiment(eid)
            assert "meta" in payload

    def test_schedule_comparison_pb_reaches_target_in_fewer_steps(self):
        """The paper's §2 efficiency argument on the one systems
        experiment: PB undercuts the shared loss target in fewer
        pipeline steps than synchronous fill/drain."""
        from repro.experiments import run_experiment

        rows = {
            r["schedule"]: r
            for r in run_experiment("schedule_comparison")["rows"]
        }
        assert set(rows) == {"pb", "fill_drain", "gpipe", "1f1b"}
        assert (
            0 < rows["pb"]["steps_to_loss"]
            < rows["fill_drain"]["steps_to_loss"]
        )

    def test_scale_resolution(self):
        from repro.experiments import get_scale

        assert get_scale("bench").name == "bench"
        assert get_scale("paper").seeds == 5
        with pytest.raises(ValueError):
            get_scale("huge")
