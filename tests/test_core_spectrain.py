"""SpecTrain semantics: vertical-sync horizons, backward re-prediction."""

import numpy as np
import pytest

from repro.core import DelayedSGDM, MitigationConfig
from repro.models import small_cnn
from repro.pipeline import PipelineExecutor
from repro.tensor import Tensor, cross_entropy
from repro.train import train_step


class TestSpectrainSimulator:
    def test_backward_weights_are_repredicted(self, rng):
        """With a nonzero offset, the backward pass must see weights
        different from both the stale forward weights and the master."""
        X = rng.normal(size=(16, 3, 8, 8))
        Y = rng.integers(0, 10, size=16)
        m = small_cnn(seed=3)
        mit = MitigationConfig.spectrain(offset=2.0)
        opt = DelayedSGDM(m, lr=0.05, momentum=0.9, delay=3,
                          mitigation=mit, consistent=False)
        p = m.parameters()[0]
        # a few steps to build velocity
        for i in range(4):
            train_step(opt, m, X[i * 4 : (i + 1) * 4],
                               Y[i * 4 : (i + 1) * 4])
        opt.begin_step()
        master = p.data.copy()
        opt.load_forward_weights()
        fwd = p.data.copy()
        logits = m(Tensor(X[:4]))
        loss = cross_entropy(logits, Y[:4])
        opt.prepare_backward()
        bwd = p.data.copy()
        assert not np.array_equal(bwd, fwd)
        assert not np.array_equal(bwd, master)
        # bwd = master - lr * offset * velocity
        expected = master - 0.05 * 2.0 * opt.velocity(p)
        np.testing.assert_allclose(bwd, expected, atol=1e-12)
        opt.zero_grad()
        loss.backward()
        opt.step()

    def test_zero_offset_backward_is_master(self, rng):
        X = rng.normal(size=(8, 3, 8, 8))
        Y = rng.integers(0, 10, size=8)
        m = small_cnn(seed=3)
        mit = MitigationConfig.spectrain(offset=0.0)
        opt = DelayedSGDM(m, lr=0.05, momentum=0.9, delay=2,
                          mitigation=mit, consistent=False)
        train_step(opt, m, X[:4], Y[:4])
        p = m.parameters()[0]
        opt.begin_step()
        master = p.data.copy()
        opt.load_forward_weights()
        m(Tensor(X[4:]))
        opt.prepare_backward()
        np.testing.assert_array_equal(p.data, master)
        opt._loaded = False  # abandon the half-finished step cleanly


class TestSpectrainExecutor:
    def test_stage_horizons_follow_vertical_sync(self, rng):
        """Forward horizon D_s + s, backward horizon s (Appendix C)."""
        m = small_cnn(seed=3)
        ex = PipelineExecutor(
            m, lr=0.01, momentum=0.9, mode="pb",
            mitigation=MitigationConfig.spectrain(),
        )
        S = m.num_stages
        for s, stage in enumerate(ex.stages):
            pred = stage.mitigation.prediction
            d = 2 * (S - 1 - s)
            assert pred.forward_horizon(d, offset=float(s)) == d + s
            assert pred.backward_horizon(offset=float(s)) == s

    def test_executor_spectrain_trains_finite(self, rng):
        X = rng.normal(size=(20, 3, 8, 8))
        Y = rng.integers(0, 10, size=20)
        m = small_cnn(seed=3)
        ex = PipelineExecutor(
            m, lr=0.002, momentum=0.99, mode="pb",
            mitigation=MitigationConfig.spectrain(),
        )
        stats = ex.train(X, Y)
        assert np.all(np.isfinite(stats.losses))
        assert all(np.all(np.isfinite(p.data)) for p in m.parameters())

    def test_spectrain_differs_from_lwp_in_executor(self, rng):
        """The backward re-prediction must change the trajectory."""
        X = rng.normal(size=(16, 3, 8, 8))
        Y = rng.integers(0, 10, size=16)
        results = []
        for mit in (MitigationConfig.spectrain(), MitigationConfig.lwp()):
            m = small_cnn(seed=3)
            PipelineExecutor(
                m, lr=0.01, momentum=0.9, mode="pb", mitigation=mit
            ).train(X, Y)
            results.append([p.data.copy() for p in m.parameters()])
        diffs = [np.abs(a - b).max() for a, b in zip(*results)]
        assert max(diffs) > 1e-12
