"""SGDM update math, LR schedules, and the eq.-9 scaling rules."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.nn import Parameter
from repro.optim import (
    ConstantSchedule,
    HE_CIFAR_REFERENCE,
    HyperParams,
    SGDM,
    StepSchedule,
    WarmupSchedule,
    momentum_half_life_samples,
    per_sample_contribution,
    scale_for_batch_size,
)
from repro.optim.scaling import lr_for_momentum

settings.register_profile("repro", deadline=None, max_examples=30)
settings.load_profile("repro")


class TestSGDM:
    def test_matches_manual_velocity_form(self, rng):
        p = Parameter(rng.normal(size=(4,)))
        w0 = p.data.copy()
        opt = SGDM([p], lr=0.1, momentum=0.9)
        g1 = rng.normal(size=4)
        g2 = rng.normal(size=4)
        p.grad = g1.copy()
        opt.step()
        p.grad = g2.copy()
        opt.step()
        v1 = g1
        v2 = 0.9 * v1 + g2
        np.testing.assert_allclose(p.data, w0 - 0.1 * v1 - 0.1 * v2, atol=1e-12)

    def test_weight_decay(self, rng):
        p = Parameter(np.ones(3))
        opt = SGDM([p], lr=0.1, momentum=0.0, weight_decay=0.5)
        p.grad = np.zeros(3)
        opt.step()
        np.testing.assert_allclose(p.data, np.ones(3) - 0.1 * 0.5)

    def test_nesterov_differs(self, rng):
        p1 = Parameter(np.ones(3))
        p2 = Parameter(np.ones(3))
        o1 = SGDM([p1], lr=0.1, momentum=0.9)
        o2 = SGDM([p2], lr=0.1, momentum=0.9, nesterov=True)
        for _ in range(3):
            p1.grad = np.ones(3)
            p2.grad = np.ones(3)
            o1.step()
            o2.step()
        assert not np.allclose(p1.data, p2.data)

    def test_skips_none_grads(self):
        p = Parameter(np.ones(2))
        opt = SGDM([p], lr=0.1)
        opt.step()  # no grad set
        np.testing.assert_array_equal(p.data, np.ones(2))

    def test_validation(self):
        with pytest.raises(ValueError):
            SGDM([], lr=0.1)
        with pytest.raises(ValueError):
            SGDM([Parameter(np.ones(1))], lr=-1.0)
        with pytest.raises(ValueError):
            SGDM([Parameter(np.ones(1))], lr=0.1, momentum=1.0)

    def test_state_dict_round_trip(self, rng):
        p = Parameter(rng.normal(size=(3,)))
        opt = SGDM([p], lr=0.1, momentum=0.9)
        p.grad = rng.normal(size=3)
        opt.step()
        state = opt.state_dict()
        p2 = Parameter(p.data.copy())
        opt2 = SGDM([p2], lr=0.1, momentum=0.9)
        opt2.load_state_dict(state)
        np.testing.assert_array_equal(opt2.velocity(p2), opt.velocity(p))

    def test_load_state_dict_validates_velocity_count(self, rng):
        p1, p2 = Parameter(np.ones(3)), Parameter(np.ones(3))
        opt = SGDM([p1, p2], lr=0.1, momentum=0.9)
        state = opt.state_dict()
        state["velocity"] = state["velocity"][:1]
        with pytest.raises(ValueError, match="velocity buffers"):
            opt.load_state_dict(state)

    def test_load_state_dict_validates_velocity_shapes(self, rng):
        """A mismatched velocity used to load silently and detonate at
        the next step; now it raises up front, naming the parameter."""
        p = Parameter(rng.normal(size=(3, 4)))
        opt = SGDM([p], lr=0.1, momentum=0.9)
        state = opt.state_dict()
        state["velocity"] = [np.zeros((7, 2))]
        with pytest.raises(ValueError, match=r"velocity\[0\]"):
            opt.load_state_dict(state)
        # the optimizer is untouched and still steps fine
        p.grad = np.ones((3, 4))
        opt.step()

    @pytest.mark.parametrize("wd", [0.0, 0.37])
    @pytest.mark.parametrize("nesterov", [False, True])
    def test_inplace_step_bit_exact_vs_naive(self, rng, wd, nesterov):
        """The in-place step (np.multiply/add/subtract with out=) keeps
        the textbook operation order, so trajectories are bit-identical
        to the naive out-of-place form."""
        shapes = [(4, 3), (8,), (2, 2, 2)]
        params = [Parameter(rng.normal(size=s)) for s in shapes]
        naive = [p.data.copy() for p in params]
        naive_v = [np.zeros_like(p.data) for p in params]
        opt = SGDM(params, lr=0.07, momentum=0.9, weight_decay=wd,
                   nesterov=nesterov)
        for _ in range(5):
            grads = [rng.normal(size=s) for s in shapes]
            for p, g in zip(params, grads):
                p.grad = g.copy()
            opt.step()
            for i, g in enumerate(grads):
                if wd:
                    g = g + wd * naive[i]
                naive_v[i] = 0.9 * naive_v[i] + g
                update = 0.9 * naive_v[i] + g if nesterov else naive_v[i]
                naive[i] = naive[i] - 0.07 * update
        for p, w, v in zip(params, naive, naive_v):
            assert np.array_equal(p.data, w), "weights drifted from naive"
            assert np.array_equal(opt.velocity(p), v)

    def test_step_updates_weights_in_place(self, rng):
        """p.data is mutated, not rebound — callers holding the buffer
        (e.g. zero-copy views) observe the update."""
        p = Parameter(rng.normal(size=(5,)))
        buf = p.data
        p.grad = rng.normal(size=5)
        SGDM([p], lr=0.1, momentum=0.9).step()
        assert p.data is buf

    def test_steady_state_step_allocates_no_new_buffers(self, rng):
        """After the first step warms the scratch cache, repeated steps
        reuse the same buffers (the satellite's allocation win)."""
        p = Parameter(rng.normal(size=(64, 64)))
        opt = SGDM([p], lr=0.1, momentum=0.9, weight_decay=1e-4)
        p.grad = rng.normal(size=(64, 64))
        opt.step()
        scratch_ids = {k: id(v) for k, v in opt._scratch.items()}
        for _ in range(3):
            p.grad = rng.normal(size=(64, 64))
            opt.step()
        assert {k: id(v) for k, v in opt._scratch.items()} == scratch_ids


class TestScalingRules:
    def test_known_value_batch_1(self):
        lr, m = scale_for_batch_size(0.1, 0.9, 128, 1)
        assert m == pytest.approx(0.9 ** (1 / 128))
        assert lr == pytest.approx((1 - m) * 1 / ((1 - 0.9) * 128) * 0.1)

    def test_identity_at_reference(self):
        lr, m = scale_for_batch_size(0.1, 0.9, 128, 128)
        assert lr == pytest.approx(0.1) and m == pytest.approx(0.9)

    @staticmethod
    def _scale_or_underflow(lr_ref, m_ref, n_ref, n_new):
        """``scale_for_batch_size``, or ``None`` for a draw it refuses —
        having checked that it refuses for the one documented reason:
        the scaled momentum is exactly 0.0."""
        try:
            return scale_for_batch_size(lr_ref, m_ref, n_ref, n_new)
        except ValueError:
            assert m_ref > 0.0 and m_ref ** (n_new / n_ref) == 0.0
            return None

    def test_momentum_underflow_raises(self):
        """0.03125 ** 215 == 2 ** -1075 rounds to 0.0: fail loudly,
        naming the inputs, instead of returning a momentum whose
        half-life is undefined."""
        with pytest.raises(ValueError, match=r"\(0\.03125, 1, 215\)"):
            scale_for_batch_size(1.0, 0.03125, 1, 215)
        with pytest.raises(ValueError, match="underflows"):
            HyperParams(1.0, 0.03125, 1).scaled_to(215)
        # one step short of the underflow still scales
        assert scale_for_batch_size(1.0, 0.03125, 1, 214)[1] == 2.0 ** -1070
        # momentum 0 is a legitimate reference, not an underflow
        assert scale_for_batch_size(1.0, 0.0, 1, 215)[1] == 0.0

    @given(
        st.floats(0.01, 1.0),
        st.floats(0.001, 0.999),
        st.integers(1, 512),
        st.integers(1, 512),
    )
    @example(1.0, 0.03125, 1, 215)  # underflows: must raise
    def test_half_life_invariant(self, lr_ref, m_ref, n_ref, n_new):
        """eq. 9 keeps the momentum half-life constant in samples."""
        scaled = self._scale_or_underflow(lr_ref, m_ref, n_ref, n_new)
        if scaled is None:
            return
        lr, m = scaled
        h_ref = momentum_half_life_samples(m_ref, n_ref)
        h_new = momentum_half_life_samples(m, n_new)
        assert h_new == pytest.approx(h_ref, rel=1e-6)

    @given(
        st.floats(0.01, 1.0),
        st.floats(0.0, 0.99),
        st.integers(1, 512),
        st.integers(1, 512),
    )
    def test_per_sample_contribution_invariant(self, lr_ref, m_ref, n_ref, n_new):
        """eq. 9 keeps each sample's total weight contribution constant."""
        scaled = self._scale_or_underflow(lr_ref, m_ref, n_ref, n_new)
        if scaled is None:
            return
        lr, m = scaled
        c_ref = per_sample_contribution(lr_ref, m_ref, n_ref)
        c_new = per_sample_contribution(lr, m, n_new)
        assert c_new == pytest.approx(c_ref, rel=1e-9)

    def test_hyperparams_scaled_to(self):
        hp = HE_CIFAR_REFERENCE.scaled_to(1)
        assert hp.batch_size == 1
        assert hp.momentum == pytest.approx(0.9 ** (1 / 128))
        assert hp.weight_decay == HE_CIFAR_REFERENCE.weight_decay

    def test_lr_for_momentum_matches_eq9_at_scaled_m(self):
        m1 = 0.9 ** (1 / 128)
        lr_eq9, _ = scale_for_batch_size(0.1, 0.9, 128, 1)
        lr_free = lr_for_momentum(0.1, 0.9, 128, m1, 1)
        assert lr_free == pytest.approx(lr_eq9)

    def test_validation(self):
        with pytest.raises(ValueError):
            scale_for_batch_size(0.1, 1.5, 128, 1)
        with pytest.raises(ValueError):
            scale_for_batch_size(0.1, 0.9, 0, 1)


class TestSchedules:
    def test_constant(self):
        s = ConstantSchedule(0.3)
        assert s(0) == s(1000) == 0.3

    def test_step_schedule(self):
        s = StepSchedule(1.0, milestones=[10, 20], gamma=0.1)
        assert s(0) == 1.0
        assert s(10) == pytest.approx(0.1)
        assert s(25) == pytest.approx(0.01)

    def test_step_schedule_sorted(self):
        with pytest.raises(ValueError):
            StepSchedule(1.0, milestones=[20, 10])

    def test_warmup(self):
        s = WarmupSchedule(ConstantSchedule(1.0), warmup_steps=10, warmup_frac=0.0)
        assert s(0) == pytest.approx(0.0)
        assert s(5) == pytest.approx(0.5)
        assert s(10) == pytest.approx(1.0)
        assert s(100) == pytest.approx(1.0)

    def test_warmup_frac(self):
        s = WarmupSchedule(ConstantSchedule(2.0), warmup_steps=4, warmup_frac=0.5)
        assert s(0) == pytest.approx(1.0)
        assert s(4) == pytest.approx(2.0)
