"""The Appendix-G.2 delay simulator: equivalences and semantics."""

import numpy as np
import pytest

from repro.core import (
    ConstantDelay,
    DelayedSGDM,
    MitigationConfig,
    PerParamDelay,
    RandomDelay,
)
from repro.core.history import ParamHistory
from repro.models import small_cnn
from repro.optim import SGDM
from repro.tensor import Tensor, cross_entropy
from repro.train import train_step


def train_steps(model, opt, X, Y, steps, bs=4):
    for i in range(steps):
        s = (i * bs) % (len(Y) - bs)
        train_step(opt, model, X[s : s + bs], Y[s : s + bs])


def max_param_diff(m1, m2):
    return max(
        float(np.abs(a.data - b.data).max())
        for a, b in zip(m1.parameters(), m2.parameters())
    )


@pytest.fixture
def data(rng):
    return rng.normal(size=(64, 3, 8, 8)), rng.integers(0, 10, size=64)


class TestExactEquivalences:
    def test_zero_delay_equals_sgdm(self, data):
        X, Y = data
        m1, m2 = small_cnn(seed=3), small_cnn(seed=3)
        ref = SGDM(m1.parameters(), lr=0.05, momentum=0.9, weight_decay=1e-4)
        dly = DelayedSGDM(m2, lr=0.05, momentum=0.9, delay=0, weight_decay=1e-4)
        for i in range(8):
            xb, yb = X[i * 4 : (i + 1) * 4], Y[i * 4 : (i + 1) * 4]
            loss = cross_entropy(m1(Tensor(xb)), yb)
            ref.zero_grad()
            loss.backward()
            ref.step()
            train_step(dly, m2, xb, yb)
        assert max_param_diff(m1, m2) < 1e-12

    def test_sc_at_zero_delay_equals_sgdm(self, data):
        X, Y = data
        m1, m2 = small_cnn(seed=3), small_cnn(seed=3)
        o1 = DelayedSGDM(m1, lr=0.05, momentum=0.9, delay=0)
        o2 = DelayedSGDM(
            m2, lr=0.05, momentum=0.9, delay=0, mitigation=MitigationConfig.sc()
        )
        train_steps(m1, o1, X, Y, 8)
        train_steps(m2, o2, X, Y, 8)
        assert max_param_diff(m1, m2) < 1e-12

    def test_lwp_zero_horizon_equals_plain_delay(self, data):
        X, Y = data
        m1, m2 = small_cnn(seed=3), small_cnn(seed=3)
        o1 = DelayedSGDM(m1, lr=0.05, momentum=0.9, delay=3, consistent=True)
        o2 = DelayedSGDM(
            m2,
            lr=0.05,
            momentum=0.9,
            delay=3,
            consistent=True,
            mitigation=MitigationConfig.lwp(horizon=0.0),
        )
        train_steps(m1, o1, X, Y, 8)
        train_steps(m2, o2, X, Y, 8)
        assert max_param_diff(m1, m2) < 1e-12

    def test_lwpv_equals_lwpw_for_plain_sgdm(self, data):
        """eqs. 18/19 coincide when no spike compensation is active."""
        X, Y = data
        m1, m2 = small_cnn(seed=3), small_cnn(seed=3)
        o1 = DelayedSGDM(
            m1, lr=0.05, momentum=0.9, delay=3, consistent=True,
            mitigation=MitigationConfig.lwp("v"),
        )
        o2 = DelayedSGDM(
            m2, lr=0.05, momentum=0.9, delay=3, consistent=True,
            mitigation=MitigationConfig.lwp("w"),
        )
        train_steps(m1, o1, X, Y, 10)
        train_steps(m2, o2, X, Y, 10)
        assert max_param_diff(m1, m2) < 1e-9

    def test_lwpv_differs_from_lwpw_with_sc(self, data):
        """eq. 26: the combination breaks the LWPv/LWPw equivalence."""
        X, Y = data
        m1, m2 = small_cnn(seed=3), small_cnn(seed=3)
        o1 = DelayedSGDM(
            m1, lr=0.05, momentum=0.9, delay=3, consistent=True,
            mitigation=MitigationConfig.lwp_plus_sc("v"),
        )
        o2 = DelayedSGDM(
            m2, lr=0.05, momentum=0.9, delay=3, consistent=True,
            mitigation=MitigationConfig.lwp_plus_sc("w"),
        )
        train_steps(m1, o1, X, Y, 10)
        train_steps(m2, o2, X, Y, 10)
        assert max_param_diff(m1, m2) > 1e-10

    def test_stashing_equals_consistent(self, data):
        X, Y = data
        m1, m2 = small_cnn(seed=3), small_cnn(seed=3)
        o1 = DelayedSGDM(m1, lr=0.05, momentum=0.9, delay=3, consistent=True)
        o2 = DelayedSGDM(
            m2, lr=0.05, momentum=0.9, delay=3, consistent=False,
            mitigation=MitigationConfig.stashing(),
        )
        train_steps(m1, o1, X, Y, 10)
        train_steps(m2, o2, X, Y, 10)
        assert max_param_diff(m1, m2) == 0.0

    def test_inconsistent_differs_from_consistent(self, data):
        X, Y = data
        m1, m2 = small_cnn(seed=3), small_cnn(seed=3)
        o1 = DelayedSGDM(m1, lr=0.05, momentum=0.9, delay=3, consistent=True)
        o2 = DelayedSGDM(m2, lr=0.05, momentum=0.9, delay=3, consistent=False)
        train_steps(m1, o1, X, Y, 10)
        train_steps(m2, o2, X, Y, 10)
        assert max_param_diff(m1, m2) > 1e-10

    def test_delay_changes_trajectory(self, data):
        X, Y = data
        m1, m2 = small_cnn(seed=3), small_cnn(seed=3)
        o1 = DelayedSGDM(m1, lr=0.05, momentum=0.9, delay=0)
        o2 = DelayedSGDM(m2, lr=0.05, momentum=0.9, delay=4, consistent=True)
        train_steps(m1, o1, X, Y, 10)
        train_steps(m2, o2, X, Y, 10)
        assert max_param_diff(m1, m2) > 1e-10

    def test_gradient_shrinking_shrinks(self, data):
        """With shrink base m, first-step update is scaled by m^D."""
        X, Y = data
        m1, m2 = small_cnn(seed=3), small_cnn(seed=3)
        w0 = [p.data.copy() for p in m1.parameters()]
        o1 = DelayedSGDM(m1, lr=0.05, momentum=0.9, delay=2, consistent=True)
        o2 = DelayedSGDM(
            m2, lr=0.05, momentum=0.9, delay=2, consistent=True,
            mitigation=MitigationConfig.gradient_shrinking(),
        )
        train_step(o1, m1, X[:4], Y[:4])
        train_step(o2, m2, X[:4], Y[:4])
        for w_init, p1, p2 in zip(w0, m1.parameters(), m2.parameters()):
            step1 = p1.data - w_init
            step2 = p2.data - w_init
            np.testing.assert_allclose(step2, 0.81 * step1, atol=1e-12)


class TestDelayProfiles:
    def test_constant_profile(self):
        p = ConstantDelay(4)
        assert p.max_delay() == 4
        assert p.delay_for(123, 0) == 4
        with pytest.raises(ValueError):
            ConstantDelay(-1)

    def test_per_param_profile(self):
        p = PerParamDelay({1: 3, 2: 7}, default=1)
        assert p.max_delay() == 7
        assert p.delay_for(1, 0) == 3
        assert p.delay_for(99, 0) == 1

    def test_random_profile_reproducible(self):
        p1 = RandomDelay(0, 5, seed=11)
        p2 = RandomDelay(0, 5, seed=11)
        seq1 = []
        seq2 = []
        for t in range(20):
            p1.begin_step(t)
            p2.begin_step(t)
            seq1.append(p1.delay_for(0, t))
            seq2.append(p2.delay_for(0, t))
        assert seq1 == seq2
        assert min(seq1) >= 0 and max(seq1) <= 5
        assert len(set(seq1)) > 1  # actually random

    def test_random_profile_validation(self):
        with pytest.raises(ValueError):
            RandomDelay(3, 2)

    def test_per_param_delays_in_training(self, data, rng):
        """Parameters with different delays must evolve differently from a
        constant-delay run."""
        X, Y = data
        m1, m2 = small_cnn(seed=3), small_cnn(seed=3)
        params = m1.parameters()
        mapping = {id(p): (0 if i % 2 else 6) for i, p in enumerate(params)}
        o1 = DelayedSGDM(
            m1, lr=0.05, momentum=0.9, delay=PerParamDelay(mapping),
            consistent=True,
        )
        o2 = DelayedSGDM(m2, lr=0.05, momentum=0.9, delay=3, consistent=True)
        train_steps(m1, o1, X, Y, 10)
        train_steps(m2, o2, X, Y, 10)
        assert max_param_diff(m1, m2) > 1e-10


class TestHistory:
    def test_push_get(self, rng):
        h = ParamHistory(maxlen=4)
        arrs = [rng.normal(size=3) for _ in range(4)]
        for a in arrs:
            h.push(a, np.zeros(3))
        np.testing.assert_array_equal(h.get(0)[0], arrs[-1])
        np.testing.assert_array_equal(h.get(2)[0], arrs[-3])

    def test_clamps_to_oldest(self, rng):
        h = ParamHistory(maxlen=5)
        h.push(np.ones(2), np.zeros(2))
        np.testing.assert_array_equal(h.get(100)[0], np.ones(2))

    def test_push_copies(self):
        h = ParamHistory(maxlen=2)
        a = np.ones(2)
        h.push(a, a)
        a[:] = 5.0
        np.testing.assert_array_equal(h.get(0)[0], np.ones(2))

    def test_empty_get_raises(self):
        with pytest.raises(RuntimeError):
            ParamHistory(maxlen=2).get(0)

    def test_validation(self):
        with pytest.raises(ValueError):
            ParamHistory(maxlen=0)


class TestProtocol:
    def test_step_without_load_raises(self):
        m = small_cnn(seed=0)
        opt = DelayedSGDM(m, lr=0.1, delay=1)
        with pytest.raises(RuntimeError):
            opt.step()

    def test_prepare_backward_without_load_raises(self):
        m = small_cnn(seed=0)
        opt = DelayedSGDM(m, lr=0.1, delay=1)
        with pytest.raises(RuntimeError):
            opt.prepare_backward()

    def test_momentum_validation(self):
        m = small_cnn(seed=0)
        with pytest.raises(ValueError):
            DelayedSGDM(m, lr=0.1, momentum=1.0, delay=0)

    def test_lr_validation(self):
        m = small_cnn(seed=0)
        for lr in (-0.1, 0.0):
            with pytest.raises(ValueError, match="learning rate"):
                DelayedSGDM(m, lr=lr, momentum=0.9, delay=1)

    def test_numpy_integer_delay(self, data):
        """Regression: ``delay=np.int64(2)`` (a sweep over ``np.arange``)
        passed the constructor and died later on ``.max_delay``."""
        X, Y = data
        m1, m2 = small_cnn(seed=3), small_cnn(seed=3)
        o1 = DelayedSGDM(m1, lr=0.05, momentum=0.9, delay=np.int64(2))
        o2 = DelayedSGDM(m2, lr=0.05, momentum=0.9, delay=2)
        assert isinstance(o1.profile, ConstantDelay)
        assert o1.profile.max_delay() == 2
        train_steps(m1, o1, X, Y, 4)
        train_steps(m2, o2, X, Y, 4)
        assert max_param_diff(m1, m2) == 0.0

    @pytest.mark.parametrize("delay", [-1, np.int64(-3)])
    def test_negative_delay_rejected(self, delay):
        with pytest.raises(ValueError, match="delay"):
            DelayedSGDM(small_cnn(seed=0), lr=0.1, delay=delay)

    def test_no_params_raises(self):
        with pytest.raises(ValueError):
            DelayedSGDM([], lr=0.1)

    def test_master_restored_after_step(self, data):
        """Between steps the model holds the master weights."""
        X, Y = data
        m = small_cnn(seed=3)
        opt = DelayedSGDM(m, lr=0.05, momentum=0.9, delay=3, consistent=True)
        train_step(opt, m, X[:4], Y[:4])
        p = m.parameters()[0]
        w_after = p.data.copy()
        # one more step: the forward weights differ, but after step() the
        # master is back in place and history's newest entry equals it
        train_step(opt, m, X[4:8], Y[4:8])
        hist_w, _ = opt._history[id(p)].get(0)
        np.testing.assert_array_equal(hist_w, p.data)
        assert not np.array_equal(w_after, p.data)
