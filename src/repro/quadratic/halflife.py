"""Optimal half-lives over condition-number windows (Figures 5-7, 12).

For a spectrum dense in ``[lambda_N, lambda_1]`` with ``kappa =
lambda_1/lambda_N``, a choice of ``(eta, m)`` converges at the *worst*
rate over the window ``[eta*lambda_N, eta*lambda_1]`` — on the log axis a
sliding window of constant length ``log10(kappa)``.  The optimal rate
``r*`` minimizes that window-max over the learning rate (window position)
and optionally the momentum; the reported quantity is the error half-life
``-ln 2 / ln r*`` (paper §3.5).
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.quadratic.polynomials import MethodSpec
from repro.quadratic.roots import rate_grid


def half_life_from_rate(rate: float) -> float:
    """``-ln 2 / ln r``; infinite for non-converging rates."""
    if not np.isfinite(rate) or rate >= 1.0:
        return float("inf")
    if rate <= 0.0:
        return 0.0
    return float(-np.log(2.0) / np.log(rate))


def _window_points(kappa: float, points_per_decade: int) -> int:
    """Number of grid points spanning ``log10(kappa)`` decades."""
    if kappa < 1.0:
        raise ValueError(f"condition number must be >= 1, got {kappa}")
    return max(1, int(round(np.log10(kappa) * points_per_decade)) + 1)


def _per_momentum_best_rate(rates: np.ndarray, window: int) -> np.ndarray:
    """For each momentum row: min over window positions of the window max."""
    if window > rates.shape[1]:
        raise ValueError(
            f"condition-number window ({window}) exceeds the eta*lambda grid "
            f"({rates.shape[1]} points); widen the grid"
        )
    # only the positions where the whole window fits inside the row
    return sliding_window_view(rates, window, axis=1).max(-1).min(1)


def min_half_life_over_window(
    method: MethodSpec,
    delay: int,
    kappa: float,
    eta_lams: np.ndarray,
    momenta: np.ndarray,
    points_per_decade: int,
    rates: np.ndarray | None = None,
) -> float:
    """Best achievable half-life over (eta, m) for a given kappa/delay."""
    if rates is None:
        rates = rate_grid(method, delay, eta_lams, momenta)
    window = _window_points(kappa, points_per_decade)
    best = _per_momentum_best_rate(rates, window).min()
    return half_life_from_rate(float(best))


def condition_number_sweep(
    methods: dict[str, MethodSpec],
    kappas: np.ndarray,
    delay: int = 1,
    points_per_decade: int = 8,
    lo: float = -9.0,
    hi: float = 1.0,
    momenta: np.ndarray | None = None,
) -> dict[str, np.ndarray]:
    """Figure 5: min half-life vs condition number, per method.

    The rate grid is computed once per method and reused across kappas.
    """
    n = int((hi - lo) * points_per_decade) + 1
    eta_lams = np.logspace(lo, hi, n)
    if momenta is None:
        u = np.linspace(0.0, 5.0, 26)
        momenta = np.concatenate([[0.0], 1.0 - 10.0 ** (-u[1:])])
    out: dict[str, np.ndarray] = {}
    for name, method in methods.items():
        rates = rate_grid(method, delay, eta_lams, momenta)
        vals = [
            min_half_life_over_window(
                method, delay, k, eta_lams, momenta, points_per_decade, rates
            )
            for k in kappas
        ]
        out[name] = np.asarray(vals)
    return out


def delay_sweep(
    methods: dict[str, MethodSpec],
    delays: np.ndarray,
    kappa: float = 1e3,
    points_per_decade: int = 8,
    momenta: np.ndarray | None = None,
) -> dict[str, np.ndarray]:
    """Figure 6: min half-life vs delay at fixed condition number."""
    eta_lams = np.logspace(-9.0, 1.0, 10 * points_per_decade + 1)
    if momenta is None:
        u = np.linspace(0.0, 5.0, 26)
        momenta = np.concatenate([[0.0], 1.0 - 10.0 ** (-u[1:])])
    out: dict[str, np.ndarray] = {}
    for name, method in methods.items():
        vals = [
            min_half_life_over_window(
                method, int(d), kappa, eta_lams, momenta, points_per_decade
            )
            for d in delays
        ]
        out[name] = np.asarray(vals)
    return out


def momentum_curve(
    method: MethodSpec,
    delay: int,
    kappa: float,
    momenta: np.ndarray,
    points_per_decade: int = 8,
) -> np.ndarray:
    """Figure 7: best half-life as a function of momentum (eta optimized)."""
    eta_lams = np.logspace(-9.0, 1.0, 10 * points_per_decade + 1)
    rates = rate_grid(method, delay, eta_lams, momenta)
    window = _window_points(kappa, points_per_decade)
    best = _per_momentum_best_rate(rates, window)
    return np.asarray([half_life_from_rate(float(r)) for r in best])


def horizon_sweep(
    make_method,
    scales: np.ndarray,
    delay: int,
    kappa: float,
    points_per_decade: int = 8,
    momenta: np.ndarray | None = None,
) -> np.ndarray:
    """Figure 12: min half-life vs prediction scale ``alpha`` (T = alpha*D).

    ``make_method(alpha)`` must return a :class:`MethodSpec`.
    """
    eta_lams = np.logspace(-9.0, 1.0, 10 * points_per_decade + 1)
    if momenta is None:
        u = np.linspace(0.0, 5.0, 26)
        momenta = np.concatenate([[0.0], 1.0 - 10.0 ** (-u[1:])])
    vals = []
    for alpha in scales:
        method = make_method(float(alpha))
        vals.append(
            min_half_life_over_window(
                method, delay, kappa, eta_lams, momenta, points_per_decade
            )
        )
    return np.asarray(vals)
