"""Spike compensation, weight prediction, mitigation configs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    MitigationConfig,
    PredictionConfig,
    SpikeConfig,
    predict_velocity_form,
    predict_weight_diff_form,
    spike_coefficients,
)

settings.register_profile("repro", deadline=None, max_examples=40)
settings.load_profile("repro")


class TestSpikeCoefficients:
    def test_zero_delay_is_plain_sgdm(self):
        assert spike_coefficients(0.9, 0) == (1.0, 0.0)

    def test_delay_one_is_nesterov(self):
        """SC_D at D=1 gives (a, b) = (m, 1) — exactly Nesterov (§3.5)."""
        for m in [0.1, 0.5, 0.9, 0.999]:
            a, b = spike_coefficients(m, 1)
            assert a == pytest.approx(m)
            assert b == pytest.approx(1.0)

    def test_zero_momentum(self):
        assert spike_coefficients(0.0, 0) == (1.0, 0.0)
        assert spike_coefficients(0.0, 5) == (0.0, 1.0)

    def test_formula(self):
        m, d = 0.9, 4
        a, b = spike_coefficients(m, d)
        assert a == pytest.approx(m**4)
        assert b == pytest.approx((1 - m**4) / (1 - m))

    @given(st.floats(0.0, 0.999), st.integers(0, 50))
    def test_total_contribution_preserved(self, m, d):
        """a/(1-m) + b == 1/(1-m): SC only moves a gradient's contribution
        in time, never changes its total (paper §3.2)."""
        a, b = spike_coefficients(m, d)
        denom = 1.0 - m if m < 1.0 else 1.0
        lhs = a / denom + b
        assert lhs == pytest.approx(1.0 / denom, rel=1e-9)

    def test_fractional_delay_for_overcompensation(self):
        a, b = spike_coefficients(0.9, 2.5)
        assert a == pytest.approx(0.9**2.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            spike_coefficients(1.0, 1)
        with pytest.raises(ValueError):
            spike_coefficients(0.9, -1)


class TestSpikeConfig:
    def test_default_scale(self):
        cfg = SpikeConfig()
        assert cfg.coefficients(0.9, 3) == spike_coefficients(0.9, 3)

    def test_scale_two_is_sc2d(self):
        cfg = SpikeConfig(scale=2.0)
        assert cfg.coefficients(0.9, 3) == spike_coefficients(0.9, 6)

    def test_explicit_gsc(self):
        cfg = SpikeConfig(a=0.3, b=1.7)
        assert cfg.coefficients(0.9, 100) == (0.3, 1.7)

    def test_partial_explicit_raises(self):
        with pytest.raises(ValueError):
            SpikeConfig(a=0.5).coefficients(0.9, 1)


class TestPrediction:
    def test_velocity_form(self, rng):
        w = rng.normal(size=5)
        v = rng.normal(size=5)
        np.testing.assert_allclose(
            predict_velocity_form(w, v, lr=0.1, horizon=3),
            w - 0.3 * v,
        )

    def test_weight_diff_form(self, rng):
        w = rng.normal(size=5)
        wp = rng.normal(size=5)
        np.testing.assert_allclose(
            predict_weight_diff_form(w, wp, horizon=2), w + 2 * (w - wp)
        )

    def test_zero_horizon_copies(self, rng):
        w = rng.normal(size=3)
        out = predict_velocity_form(w, rng.normal(size=3), 0.1, 0.0)
        np.testing.assert_array_equal(out, w)
        out[:] = 0  # must not alias w
        assert not np.array_equal(out, w)

    def test_forms_agree_for_sgdm_step(self, rng):
        """w_t - w_{t-1} = -lr * v_t for SGDM, so eq. 18 == eq. 19."""
        lr = 0.05
        v_t = rng.normal(size=4)
        w_t = rng.normal(size=4)
        w_prev = w_t + lr * v_t
        T = 3.0
        np.testing.assert_allclose(
            predict_velocity_form(w_t, v_t, lr, T),
            predict_weight_diff_form(w_t, w_prev, T),
            atol=1e-12,
        )

    def test_horizon_resolution(self):
        assert PredictionConfig("lwp_v").forward_horizon(4) == 4.0
        assert PredictionConfig("lwp_v", horizon_scale=2).forward_horizon(4) == 8.0
        assert PredictionConfig("lwp_v", horizon=7.0).forward_horizon(100) == 7.0
        assert PredictionConfig("none").forward_horizon(10) == 0.0

    def test_spectrain_horizons(self):
        cfg = PredictionConfig("spectrain", spectrain_offset=3.0)
        assert cfg.forward_horizon(4) == 7.0  # D + offset
        assert cfg.backward_horizon() == 3.0
        assert cfg.forward_horizon(4, offset=5.0) == 9.0
        assert cfg.backward_horizon(offset=5.0) == 5.0

    @pytest.mark.parametrize(
        "kind", ["none", "lwp_v", "lwp_w", "spectrain"]
    )
    def test_predict_dispatches_on_kind(self, rng, kind):
        """``predict`` is the one place that maps a kind to a form."""
        w, v, wp = (rng.normal(size=4) for _ in range(3))
        cfg = PredictionConfig(kind)
        want = (
            predict_weight_diff_form(w, wp, 3.0)
            if kind == "lwp_w"
            else predict_velocity_form(w, v, 0.1, 3.0)
        )
        got = cfg.predict(w, v, wp, 0.1, 3.0)
        assert got.tobytes() == want.tobytes()
        fresh = cfg.predict(w, v, wp, 0.1, 0.0)
        np.testing.assert_array_equal(fresh, w)
        assert fresh is not w

    def test_lwp_backward_horizon_zero(self):
        assert PredictionConfig("lwp_v").backward_horizon() == 0.0

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError):
            PredictionConfig("magic")


class TestMitigationConfig:
    def test_presets_have_expected_flags(self):
        assert MitigationConfig.none().spike is None
        assert MitigationConfig.sc().spike is not None
        assert MitigationConfig.lwp().prediction.kind == "lwp_v"
        assert MitigationConfig.lwp("w").prediction.kind == "lwp_w"
        combo = MitigationConfig.lwp_plus_sc()
        assert combo.spike is not None and combo.prediction.kind == "lwp_v"
        assert MitigationConfig.stashing().weight_stashing is True
        assert MitigationConfig.spectrain().prediction.kind == "spectrain"

    def test_weight_stashing_field_is_bool(self):
        """Regression: the `stashing` preset must not shadow the
        `weight_stashing` dataclass field (a staticmethod once did)."""
        cfg = MitigationConfig.none()
        assert cfg.weight_stashing is False
        assert isinstance(MitigationConfig().weight_stashing, bool)

    def test_spike_coefficients_default_when_disabled(self):
        assert MitigationConfig.none().spike_coefficients(0.9, 10) == (1.0, 0.0)

    def test_gradient_shrinking_uses_momentum_by_default(self):
        cfg = MitigationConfig.gradient_shrinking()
        assert cfg.shrink_factor(0.9, 2) == pytest.approx(0.81)
        cfg2 = MitigationConfig.gradient_shrinking(base=0.5)
        assert cfg2.shrink_factor(0.9, 2) == pytest.approx(0.25)

    @pytest.mark.parametrize("base", [-0.5, 0.0, 1.5])
    def test_gradient_shrinking_rejects_base_outside_unit_interval(self, base):
        """A negative base used to mean "use the momentum" silently; that
        case is reachable through ``base=None`` only."""
        with pytest.raises(ValueError, match="shrink base"):
            MitigationConfig.gradient_shrinking(base=base)
        assert MitigationConfig.gradient_shrinking(base=1.0).shrink_factor(
            0.9, 3
        ) == 1.0

    def test_shrink_disabled_returns_one(self):
        assert MitigationConfig.none().shrink_factor(0.9, 10) == 1.0

    def test_names(self):
        assert MitigationConfig.sc().name == "PB+SC_D"
        assert MitigationConfig.sc(2.0).name == "PB+SC_2D"
        assert MitigationConfig.lwp(scale=2.0).name == "PB+LWP_2D"
        assert "LWPv" in MitigationConfig.lwp_plus_sc().name
