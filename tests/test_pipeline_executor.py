"""Cycle-accurate executor: equivalences, the eq.-5 version law, modes."""

import numpy as np
import pytest

from repro.core import MitigationConfig
from repro.models import resnet_tiny, small_cnn, vgg_tiny
from repro.optim import SGDM
from repro.pipeline import PipelineExecutor
from repro.pipeline.executor import softmax_xent_grad_batch
from repro.tensor import Tensor, cross_entropy, log_softmax
from repro.train.metrics import batch_nll


@pytest.fixture
def data(rng):
    return rng.normal(size=(24, 3, 8, 8)), rng.integers(0, 10, size=24)


def max_param_diff(m1, m2):
    return max(
        float(np.abs(a.data - b.data).max())
        for a, b in zip(m1.parameters(), m2.parameters())
    )


class TestLossStage:
    def test_softmax_xent_grad_matches_autodiff(self, rng):
        z = rng.normal(size=(1, 7))
        label = 4
        losses, grad = softmax_xent_grad_batch(z, np.array([label]))
        t = Tensor(z, requires_grad=True)
        ref = cross_entropy(t, [label])
        ref.backward()
        assert losses[0] == pytest.approx(float(ref.data), abs=1e-12)
        np.testing.assert_allclose(grad, t.grad, atol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_every_log_softmax_caller_is_bit_equal(self, rng, dtype):
        """``log_softmax``, ``cross_entropy``, ``batch_nll`` and the loss
        stage run one kernel, so each agrees with the others — and with
        the max-shift, log-sum-exp op order written out here — bit for
        bit."""
        z = (rng.normal(size=(9, 6)) * 30).astype(dtype)
        y = rng.integers(0, 6, size=9)
        shifted = z - z.max(axis=1, keepdims=True)
        ref = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        rows = np.arange(9)
        nll = -ref[rows, y]

        assert log_softmax(Tensor(z)).data.tobytes() == ref.tobytes()
        assert batch_nll(z, y).tobytes() == nll.tobytes()
        losses, grad = softmax_xent_grad_batch(z, y)
        assert losses.tobytes() == nll.tobytes()
        t = Tensor(z, requires_grad=True)
        total = cross_entropy(t, y, reduction="sum")
        assert total.data.tobytes() == nll.sum().tobytes()
        total.backward()
        assert t.grad.tobytes() == grad.tobytes()


class TestFillDrainEquivalence:
    """The Figure-16 validation: fill&drain SGD == sequential batch SGD."""

    def test_small_cnn(self, data):
        X, Y = data
        N = 4
        m1, m2 = small_cnn(seed=5), small_cnn(seed=5)
        ex = PipelineExecutor(
            m1, lr=0.05, momentum=0.9, weight_decay=1e-4,
            mode="fill_drain", update_size=N,
        )
        ex.train(X, Y)
        ref = SGDM(m2.parameters(), lr=0.05, momentum=0.9, weight_decay=1e-4)
        for b in range(len(Y) // N):
            loss = cross_entropy(
                m2(Tensor(X[b * N : (b + 1) * N])), Y[b * N : (b + 1) * N]
            )
            ref.zero_grad()
            loss.backward()
            ref.step()
        assert max_param_diff(m1, m2) < 1e-10

    def test_resnet_with_skip_paths(self, rng):
        """The skip-stack pipeline routing must be numerically exact too."""
        X = rng.normal(size=(12, 3, 8, 8))
        Y = rng.integers(0, 10, size=12)
        N = 3
        m1 = resnet_tiny(widths=(4, 8, 8), seed=2)
        m2 = resnet_tiny(widths=(4, 8, 8), seed=2)
        ex = PipelineExecutor(m1, lr=0.02, momentum=0.9, mode="fill_drain", update_size=N)
        ex.train(X, Y)
        ref = SGDM(m2.parameters(), lr=0.02, momentum=0.9)
        for b in range(len(Y) // N):
            loss = cross_entropy(
                m2(Tensor(X[b * N : (b + 1) * N])), Y[b * N : (b + 1) * N]
            )
            ref.zero_grad()
            loss.backward()
            ref.step()
        assert max_param_diff(m1, m2) < 1e-10

    def test_fill_drain_utilization_matches_formula(self, data):
        from repro.pipeline import fill_drain_utilization

        X, Y = data
        N = 4
        m = small_cnn(seed=5)
        ex = PipelineExecutor(m, lr=0.01, mode="fill_drain", update_size=N)
        stats = ex.train(X, Y)
        assert stats.utilization == pytest.approx(
            fill_drain_utilization(m.num_stages, N), abs=1e-9
        )


class TestPBSemantics:
    def test_version_law_eq5(self, data):
        """Forward version = max(0, i - 2(S-1-s)); backward version = i."""
        X, Y = data
        m = small_cnn(seed=5)
        ex = PipelineExecutor(m, lr=0.01, momentum=0.9, mode="pb",
                              record_versions=True)
        ex.train(X, Y)
        S = m.num_stages
        checked = 0
        for s, stage in enumerate(ex.stages):
            if stage.spec.kind != "compute":
                continue  # structural stages keep no stash/trace
            D = 2 * (S - 1 - s)
            assert stage.version_trace, f"stage {s} recorded nothing"
            for sid, v_fwd, v_bwd in stage.version_trace:
                assert v_fwd == max(0, sid - D)
                assert v_bwd == sid
            checked += 1
        assert checked >= 4

    def test_pb_differs_from_sgdm(self, data):
        X, Y = data
        m1, m2 = small_cnn(seed=5), small_cnn(seed=5)
        PipelineExecutor(m1, lr=0.05, momentum=0.9, mode="pb").train(X, Y)
        PipelineExecutor(
            m2, lr=0.05, momentum=0.9, mode="fill_drain", update_size=1
        ).train(X, Y)
        assert max_param_diff(m1, m2) > 1e-12

    def test_pb_utilization_approaches_one(self, rng):
        m = small_cnn(seed=5)
        n = 200
        X = rng.normal(size=(n, 3, 8, 8))
        Y = rng.integers(0, 10, size=n)
        stats = PipelineExecutor(m, lr=0.001, mode="pb").train(X, Y)
        S = m.num_stages
        assert stats.utilization == pytest.approx(n / (n + 2 * S - 2), abs=1e-9)
        assert stats.utilization > 0.9

    def test_every_stage_updates_once_per_sample(self, data):
        X, Y = data
        m = small_cnn(seed=5)
        ex = PipelineExecutor(m, lr=0.01, mode="pb")
        ex.train(X, Y)
        assert all(u == len(Y) for u in (s.updates_applied for s in ex.stages))

    def test_stash_fully_drained(self, data):
        X, Y = data
        m = resnet_tiny(widths=(4, 8, 8), seed=0)
        ex = PipelineExecutor(m, lr=0.01, mode="pb")
        ex.train(X, Y)
        assert all(s.in_flight == 0 for s in ex.stages)

    def test_total_steps(self, data):
        """A stream of n samples takes n + 2S - 2 steps."""
        X, Y = data
        m = small_cnn(seed=5)
        stats = PipelineExecutor(m, lr=0.01, mode="pb").train(X, Y)
        assert stats.time_steps == len(Y) + 2 * m.num_stages - 2


class TestMitigationsInExecutor:
    @pytest.mark.parametrize(
        "mitigation",
        [
            MitigationConfig.none(),
            MitigationConfig.sc(),
            MitigationConfig.lwp(),
            MitigationConfig.lwp("w"),
            MitigationConfig.lwp_plus_sc(),
            MitigationConfig.stashing(),
            MitigationConfig.spectrain(),
            MitigationConfig.gradient_shrinking(),
        ],
        ids=lambda m: m.name,
    )
    def test_runs_and_stays_finite(self, data, mitigation):
        X, Y = data
        m = resnet_tiny(widths=(4, 8, 8), seed=1)
        ex = PipelineExecutor(
            m, lr=0.005, momentum=0.99, mitigation=mitigation, mode="pb"
        )
        stats = ex.train(X, Y)
        assert np.all(np.isfinite(stats.losses))
        assert all(np.all(np.isfinite(p.data)) for p in m.parameters())

    def test_mitigations_change_trajectory(self, data):
        X, Y = data
        m1 = small_cnn(seed=5)
        m2 = small_cnn(seed=5)
        PipelineExecutor(m1, lr=0.05, momentum=0.9, mode="pb").train(X, Y)
        PipelineExecutor(
            m2, lr=0.05, momentum=0.9, mode="pb",
            mitigation=MitigationConfig.lwp_plus_sc(),
        ).train(X, Y)
        assert max_param_diff(m1, m2) > 1e-12

    def test_vgg_with_dropout_runs(self, rng):
        X = rng.normal(size=(10, 3, 16, 16))
        Y = rng.integers(0, 10, size=10)
        m = vgg_tiny(seed=0)
        stats = PipelineExecutor(m, lr=0.005, momentum=0.99, mode="pb").train(X, Y)
        assert np.all(np.isfinite(stats.losses))


class TestExecutorValidation:
    def test_bad_mode_raises(self):
        with pytest.raises(ValueError):
            PipelineExecutor(small_cnn(), lr=0.1, mode="magic")

    def test_mismatched_xy_raises(self, rng):
        ex = PipelineExecutor(small_cnn(), lr=0.1)
        with pytest.raises(ValueError):
            ex.train(rng.normal(size=(4, 3, 8, 8)), np.zeros(3, dtype=int))

    def test_lr_schedule_applied(self, data):
        X, Y = data
        m = small_cnn(seed=5)
        ex = PipelineExecutor(
            m, lr=1.0, mode="pb", lr_schedule=lambda s: 0.123
        )
        ex.train(X, Y)
        assert all(st.lr == 0.123 for st in ex.stages)
