"""SGDM update math, LR schedules, and the eq.-9 scaling rules."""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import DelayedSGDM, MitigationConfig, spike_coefficients
from repro.models.arch import StageDef
from repro.nn import Module, Parameter
from repro.optim import (
    ConstantSchedule,
    HE_CIFAR_REFERENCE,
    HyperParams,
    SGDM,
    StepSchedule,
    WarmupSchedule,
    scale_for_batch_size,
    sgdm_update,
)
from repro.optim.scaling import lr_for_momentum
from repro.pipeline.stage import PipelineStage
from repro.precision.scaler import LossScaler

settings.register_profile("repro", deadline=None, max_examples=30)
settings.load_profile("repro")


LR, M, DELAY = 0.07, 0.9, 4
SHAPES = [(4, 3), (8,), (2, 2, 2)]

#: eq. 12's ``(a, b)`` by name, with the mitigation that resolves to the
#: same pair at ``DELAY`` (for the engines that take a mitigation)
COEFFS = {
    "plain": ((1.0, 0.0), MitigationConfig.none()),
    "sc_d": (spike_coefficients(M, DELAY), MitigationConfig.sc()),
    "sc_2d": (spike_coefficients(M, 2 * DELAY), MitigationConfig.sc(scale=2)),
    "nesterov": ((M, 1.0), MitigationConfig.gsc(M, 1.0)),
}


def naive_update(w, v, g, a, b, wd, shrink, grad_scale):
    """Eq. 12 out of place, every operation written out in textbook
    order — the reference each engine on the kernel must match byte for
    byte.  Returns the new ``(w, v)``."""
    g = g * grad_scale
    g = g + wd * w
    g = g * shrink
    v = M * v + g
    return w - LR * (a * v + b * g), v


class _Bag(Module):
    """A module that is nothing but its parameters."""

    def __init__(self, params):
        super().__init__()
        for i, p in enumerate(params):
            setattr(self, f"p{i}", p)


def _mitigation(coeff, shrink):
    """The mitigation resolving to ``COEFFS[coeff]`` and ``shrink``."""
    return dataclasses.replace(
        COEFFS[coeff][1], gradient_shrink_base=None if shrink == 1.0 else M
    )


def _stage(params, coeff, wd, shrink):
    # stage 0 of 3 has delay D_s = 2(S-1-s) = DELAY
    stage = PipelineStage(
        0, StageDef("s", module=_Bag(params)), 3, lr=LR, momentum=M,
        weight_decay=wd, mitigation=_mitigation(coeff, shrink),
    )
    assert stage.delay == DELAY
    return stage


def _load(params, grads):
    for p, g in zip(params, grads):
        p.grad = g


# -- the engines: each returns (step(grads), velocity(i)) -------------------


def _engine_kernel(params, coeff, wd, shrink, grad_scale, scratch=False):
    vs = [np.zeros_like(p.data) for p in params]
    bufs = [
        (np.empty_like(p.data), np.empty_like(p.data)) if scratch else None
        for p in params
    ]

    def step(grads):
        for p, v, g, buf in zip(params, vs, grads, bufs):
            sgdm_update(
                p.data, v, g, LR, M, wd, *COEFFS[coeff][0],
                grad_scale=grad_scale, shrink=shrink, scratch=buf,
            )

    return step, vs.__getitem__


def _engine_kernel_scratch(params, coeff, wd, shrink, grad_scale):
    return _engine_kernel(params, coeff, wd, shrink, grad_scale, scratch=True)


def _engine_sgdm(params, coeff, wd, shrink, grad_scale):
    opt = SGDM(
        params, lr=LR, momentum=M, weight_decay=wd,
        nesterov=coeff == "nesterov",
        loss_scaler=(
            None if grad_scale == 1.0 else LossScaler(1.0 / grad_scale)
        ),
    )

    def step(grads):
        _load(params, grads)
        opt.step()

    return step, lambda i: opt.velocity(params[i])


def _engine_delayed(params, coeff, wd, shrink, grad_scale):
    opt = DelayedSGDM(
        params, lr=LR, momentum=M, weight_decay=wd, delay=DELAY,
        mitigation=_mitigation(coeff, shrink),
    )

    def step(grads):
        opt.begin_step()
        opt.load_forward_weights()
        opt.prepare_backward()
        _load(params, grads)
        opt.step()

    return step, lambda i: opt.velocity(params[i])


def _engine_stage_apply(params, coeff, wd, shrink, grad_scale):
    stage = _stage(params, coeff, wd, shrink)

    def step(grads):
        _load(params, grads)
        stage.apply_update()

    return step, lambda i: stage.velocity(params[i])


def _engine_stage_flush(params, coeff, wd, shrink, grad_scale):
    # a flush is plain SGDM whatever the mitigation says
    stage = _stage(params, "sc_d", wd, M**DELAY)

    def step(grads):
        _load(params, grads)
        stage.flush_update(round(1.0 / grad_scale))

    return step, lambda i: stage.velocity(params[i])


def _eq12_cases():
    """Every engine on the slice of the grid it can express: the kernel
    takes all of it, allocating its intermediates or handed a scratch
    pair; ``SGDM`` has no delay (no SC, no shrink) but has a loss scaler;
    ``DelayedSGDM`` and ``apply_update`` have no gradient scale;
    ``flush_update(8)`` is the plain rule on a sum of eight."""
    full = dict(
        coeff=list(COEFFS), wd=[0.0, 5e-4], shrink=[1.0, M**DELAY],
        grad_scale=[1.0, 1 / 8], dtype=[np.float64, np.float32],
    )
    engines = {
        _engine_kernel: {},
        _engine_kernel_scratch: {},
        _engine_sgdm: dict(coeff=["plain", "nesterov"], shrink=[1.0]),
        _engine_delayed: dict(grad_scale=[1.0]),
        _engine_stage_apply: dict(grad_scale=[1.0]),
        _engine_stage_flush: dict(
            coeff=["plain"], shrink=[1.0], grad_scale=[1 / 8]
        ),
    }
    for engine, narrowed in engines.items():
        axes = {**full, **narrowed}
        for values in itertools.product(*axes.values()):
            case = dict(zip(axes, values))
            label = "-".join(
                [engine.__name__[len("_engine_"):], case["coeff"]]
                + [f"{k}={case[k]:.3g}" for k in ("wd", "shrink", "grad_scale")]
                + [np.dtype(case["dtype"]).name]
            )
            yield pytest.param(engine, *values, id=label)


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

    @pytest.mark.parametrize(
        "engine,coeff,wd,shrink,grad_scale,dtype", _eq12_cases()
    )
    def test_inplace_step_bit_exact_vs_naive(
        self, rng, engine, coeff, wd, shrink, grad_scale, dtype
    ):
        """The in-place kernel (np.multiply/add/subtract with out=) keeps
        the textbook operation order, so the kernel and the three
        optimizers on it follow the naive out-of-place trajectory byte
        for byte, over every coefficient choice the paper names."""
        a, b = COEFFS[coeff][0]
        params = [
            Parameter(rng.normal(size=s).astype(dtype)) for s in SHAPES
        ]
        naive = [p.data.copy() for p in params]
        naive_v = [np.zeros_like(p.data) for p in params]
        step, velocity = engine(params, coeff, wd, shrink, grad_scale)
        for _ in range(5):
            grads = [rng.normal(size=s).astype(dtype) for s in SHAPES]
            sent = [g.copy() for g in grads]
            step(sent)
            for g, g_sent in zip(grads, sent):
                assert g_sent.tobytes() == g.tobytes(), "gradient written"
            for i, g in enumerate(grads):
                naive[i], naive_v[i] = naive_update(
                    naive[i], naive_v[i], g, a, b, wd, shrink, grad_scale
                )
        for i, p in enumerate(params):
            assert p.data.dtype == dtype and velocity(i).dtype == dtype
            assert p.data.tobytes() == naive[i].tobytes(), "weights drifted"
            assert velocity(i).tobytes() == naive_v[i].tobytes()

    def test_delayed_step_respects_history_depth(self, rng):
        """``DelayedSGDM`` on the kernel still reads its forward weights
        ``DELAY`` updates back (the fill phase clamps to the oldest) and
        keeps no more history than that needs."""
        p = Parameter(rng.normal(size=(4, 3)))
        opt = DelayedSGDM([p], lr=LR, momentum=M, delay=DELAY)
        trail = [p.data.copy()]
        v = np.zeros_like(p.data)
        for t in range(DELAY + 4):
            opt.begin_step()
            opt.load_forward_weights()
            assert p.data.tobytes() == trail[max(0, t - DELAY)].tobytes()
            opt.prepare_backward()
            g = rng.normal(size=(4, 3))
            p.grad = g
            opt.step()
            w, v = naive_update(trail[-1], v, g, 1.0, 0.0, 0.0, 1.0, 1.0)
            trail.append(w)
            assert p.data.tobytes() == w.tobytes()
            assert len(opt._history[id(p)]) == min(t + 2, DELAY + 2)

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
        buffers = [opt.velocity(p), *opt._scratch[id(p)]]
        ids = [id(buf) for buf in buffers]
        for _ in range(3):
            p.grad = rng.normal(size=(64, 64))
            opt.step()
        assert [id(b) for b in [opt.velocity(p), *opt._scratch[id(p)]]] == ids

    def test_steady_state_stage_update_is_in_place(self, rng):
        """The stage twin: ``apply_update`` writes into the same weight,
        velocity and previous-weight buffers every time (a stage keeps no
        scratch: measured, holding one cost more memory than it saved)."""
        params = [Parameter(rng.normal(size=s)) for s in SHAPES]
        stage = _stage(params, "sc_d", 5e-4, M**DELAY)

        def buffers():
            return [
                buf
                for p in params
                for buf in (
                    p.data, stage.velocity(p), stage._prev_weights[id(p)]
                )
            ]

        ids = [id(buf) for buf in buffers()]
        for _ in range(3):
            before = [p.data.copy() for p in params]
            _load(params, [rng.normal(size=s) for s in SHAPES])
            stage.apply_update()
            for p, w in zip(params, before):
                assert stage._prev_weights[id(p)].tobytes() == w.tobytes()
        assert [id(buf) for buf in buffers()] == ids


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
        def half_life_samples(momentum, batch_size):
            # the momentum decay's half-life measured in samples
            if momentum <= 0.0:
                return 0.0
            return batch_size * math.log(0.5) / math.log(momentum)

        h_ref = half_life_samples(m_ref, n_ref)
        h_new = half_life_samples(m, n_new)
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
        # a unit gradient contributes lr / (1 - m) over time, shared by
        # the batch's samples
        c_ref = lr_ref / ((1.0 - m_ref) * n_ref)
        c_new = lr / ((1.0 - m) * n_new)
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
