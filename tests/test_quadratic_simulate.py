"""Cross-validation: simulated recurrences match the root analysis."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.compensation import spike_coefficients
from repro.quadratic import (
    ConvexQuadratic,
    characteristic_coefficients,
    dominant_root,
    empirical_rate,
    run_delayed_quadratic,
    simulate_recurrence,
)

settings.register_profile("repro", deadline=None, max_examples=20)
settings.load_profile("repro")


class TestRecurrenceVsRoots:
    @pytest.mark.parametrize(
        "el,m,D,a,b,T",
        [
            (0.01, 0.9, 0, 1.0, 0.0, 0.0),
            (0.01, 0.9, 3, 1.0, 0.0, 0.0),
            (0.01, 0.9, 3, None, None, 0.0),  # SC_D (resolved below)
            (0.01, 0.9, 3, 1.0, 0.0, 3.0),  # LWP_D
            (0.005, 0.95, 5, None, None, 5.0),  # combined
            (0.02, 0.5, 2, 1.0, 0.0, 4.0),  # overcompensated LWP
        ],
    )
    def test_empirical_rate_matches_dominant_root(self, el, m, D, a, b, T):
        if a is None:
            a, b = spike_coefficients(m, D)
        root = dominant_root(
            characteristic_coefficients(el, m, D, a=a, b=b, T=T)
        )
        trace = simulate_recurrence(el, m, D, a=a, b=b, T=T, steps=4000)
        emp = empirical_rate(trace, tail=800)
        assert emp == pytest.approx(root, abs=5e-3)

    @given(
        st.floats(1e-4, 0.05),
        st.floats(0.0, 0.95),
        st.integers(0, 6),
    )
    # decays past the float64 normal range inside the fitted tail
    @example(el=0.048828125, m=0.5625, D=1)
    def test_gdm_random_configs(self, el, m, D):
        root = dominant_root(characteristic_coefficients(el, m, D))
        trace = simulate_recurrence(el, m, D, steps=3000)
        emp = empirical_rate(trace, tail=500)
        if root < 0.999:  # conclusive convergence only
            assert emp == pytest.approx(root, abs=1e-2)

    def test_fit_ignores_a_tail_past_the_normal_range(self):
        """This trace reaches 1e-320 about 190 steps before its end; the
        subnormals and zeros there are not geometric and must not flatten
        the fit (they read 0.846 against the double root's 0.782)."""
        el, m, D = 0.048828125, 0.5625, 1
        trace = simulate_recurrence(el, m, D, steps=3000)
        assert np.abs(trace[-1]) < np.finfo(float).tiny
        root = dominant_root(characteristic_coefficients(el, m, D))
        assert empirical_rate(trace, tail=500) == pytest.approx(root, abs=1e-2)
        assert empirical_rate(np.zeros(600), tail=500) == 0.0

    def test_unstable_config_diverges(self):
        """Large eta*lambda with delay and momentum must blow up, matching
        a dominant root > 1."""
        el, m, D = 1.5, 0.9, 4
        root = dominant_root(characteristic_coefficients(el, m, D))
        assert root > 1.0
        trace = simulate_recurrence(el, m, D, steps=300)
        assert empirical_rate(trace) == float("inf") or empirical_rate(trace) > 1.0


class TestConvexQuadratic:
    def test_log_spectrum(self):
        q = ConvexQuadratic.log_spectrum(kappa=100.0, n=16)
        assert q.condition_number == pytest.approx(100.0)
        assert q.eigenvalues.size == 16

    def test_loss_and_grad(self):
        q = ConvexQuadratic(np.array([1.0, 2.0]))
        w = np.array([2.0, 1.0])
        assert q.loss(w) == pytest.approx(0.5 * (4.0 + 2.0))
        np.testing.assert_allclose(q.grad(w), [2.0, 2.0])

    def test_stable_run_converges(self):
        q = ConvexQuadratic.log_spectrum(kappa=100.0, n=16)
        errs = run_delayed_quadratic(q, lr=0.1, momentum=0.9, delay=0,
                                     steps=2000)
        assert errs[-1] < 1e-3 * errs[0]

    def test_delay_slows_convergence(self):
        q = ConvexQuadratic.log_spectrum(kappa=100.0, n=16)
        base = run_delayed_quadratic(q, lr=0.05, momentum=0.9, delay=0, steps=500)
        delayed = run_delayed_quadratic(q, lr=0.05, momentum=0.9, delay=6, steps=500)
        assert delayed[-1] > base[-1]

    def test_mitigation_helps_delayed_run(self):
        """The Figure 5/6 story, empirically: combined mitigation beats
        plain delayed SGDM on an ill-conditioned quadratic."""
        q = ConvexQuadratic.log_spectrum(kappa=1000.0, n=24)
        m, D = 0.9, 6
        lr = 0.02
        plain = run_delayed_quadratic(q, lr=lr, momentum=m, delay=D, steps=1500)
        a, b = spike_coefficients(m, D)
        combo = run_delayed_quadratic(
            q, lr=lr, momentum=m, delay=D, a=a, b=b, T=float(D), steps=1500
        )
        assert combo[-1] < plain[-1]

    def test_velocity_and_weight_forms_agree_without_sc(self):
        q = ConvexQuadratic.log_spectrum(kappa=50.0, n=8)
        kw = dict(lr=0.03, momentum=0.9, delay=3, T=3.0, steps=400)
        ew = run_delayed_quadratic(q, form="w", **kw)
        ev = run_delayed_quadratic(q, form="v", **kw)
        np.testing.assert_allclose(ew, ev, rtol=1e-8)

    def test_divergence_is_flagged(self):
        q = ConvexQuadratic(np.array([1.0]))
        errs = run_delayed_quadratic(q, lr=3.0, momentum=0.9, delay=3, steps=200)
        assert not np.isfinite(errs[-1])

    def test_bad_form_raises(self):
        q = ConvexQuadratic(np.array([1.0]))
        with pytest.raises(ValueError):
            run_delayed_quadratic(q, lr=0.1, momentum=0.0, delay=0, form="x")
