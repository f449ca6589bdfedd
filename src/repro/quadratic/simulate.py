"""Direct simulation of delayed SGDM dynamics on quadratics.

Two uses:

* :func:`simulate_recurrence` iterates the *update-rule* form (velocity +
  delayed gradient + prediction + spike compensation) for one coordinate;
  its measured asymptotic rate must match the dominant characteristic
  root — the cross-validation of the §3.5 derivation.
* :class:`ConvexQuadratic` + :func:`run_delayed_quadratic` run the full
  vector dynamics over an eigenvalue spectrum, producing the empirical
  error traces behind the Figure 5-7 story (and the ill-conditioned
  examples).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def simulate_recurrence(
    eta_lam: float,
    momentum: float,
    delay: int,
    a: float = 1.0,
    b: float = 0.0,
    T: float = 0.0,
    steps: int = 400,
    w0: float = 1.0,
) -> np.ndarray:
    """Iterate one coordinate of the delayed dynamics; returns ``w`` trace.

    Uses the weight-difference LWP form (the form eq. 31 analyzes):

        w_pred = (T+1) w_{t-D} - T w_{t-D-1}
        g_t    = eta_lam * w_pred
        v_t+1  = m v_t + g_t
        w_t+1  = w_t - (a v_{t+1} + b g_t)

    (The learning rate is folded into ``eta_lam``.)
    """
    D = int(delay)
    hist = [float(w0)] * (D + 2)  # w_{t-D-1} .. w_t
    v = 0.0
    out = np.empty(steps + 1)
    out[0] = w0
    for t in range(steps):
        w_tD = hist[-1 - D]
        w_tD1 = hist[-2 - D]
        w_pred = (T + 1.0) * w_tD - T * w_tD1
        g = eta_lam * w_pred
        v = momentum * v + g
        w_new = hist[-1] - (a * v + b * g)
        hist.append(w_new)
        hist.pop(0)
        out[t + 1] = w_new
    return out


def empirical_rate(trace: np.ndarray, tail: int = 100) -> float:
    """Asymptotic per-step decay rate fitted on the trace's tail.

    Fits ``log |w_t|`` linearly over the last ``tail`` steps; returns
    ``exp(slope)``.  Returns ``inf`` if the trace diverged, ``0.0`` if
    it left the float64 normal range before the tail.
    """
    trace = np.asarray(trace, dtype=float)
    mags = np.abs(trace)
    if not np.all(np.isfinite(mags)) or mags[-1] > 1e12:
        return float("inf")
    seg = mags[-tail:]
    x = np.arange(seg.size, dtype=float)
    # past the normal range a decaying trace is subnormals and zeros,
    # which no longer shrink geometrically: fit the normal samples only
    normal = seg > np.finfo(float).tiny
    if normal.sum() < 2:
        return 0.0
    slope = np.polyfit(x[normal], np.log(seg[normal]), 1)[0]
    return float(np.exp(slope))


@dataclass
class ConvexQuadratic:
    """``L(w) = 0.5 * sum_i lambda_i w_i^2`` with gradient ``lambda * w``."""

    eigenvalues: np.ndarray

    @staticmethod
    def log_spectrum(
        kappa: float, n: int = 64, lambda_max: float = 1.0
    ) -> "ConvexQuadratic":
        """A spectrum log-dense in ``[lambda_max/kappa, lambda_max]``."""
        lams = np.logspace(
            np.log10(lambda_max / kappa), np.log10(lambda_max), n
        )
        return ConvexQuadratic(eigenvalues=lams)

    def loss(self, w: np.ndarray) -> float:
        return float(0.5 * np.sum(self.eigenvalues * w * w))

    def grad(self, w: np.ndarray) -> np.ndarray:
        return self.eigenvalues * w

    @property
    def condition_number(self) -> float:
        lams = self.eigenvalues
        return float(lams.max() / lams.min())


def run_delayed_quadratic(
    quad: ConvexQuadratic,
    lr: float,
    momentum: float,
    delay: int,
    a: float = 1.0,
    b: float = 0.0,
    T: float = 0.0,
    steps: int = 1000,
    w0: np.ndarray | None = None,
    form: str = "w",
) -> np.ndarray:
    """Vectorized delayed-SGDM run over the spectrum; returns error norms.

    ``form`` selects the LWP flavour: ``"w"`` (weight difference) or
    ``"v"`` (velocity, eq. 18).  Errors are parameter-space L2 norms per
    step (all coordinates start at 1).
    """
    if form not in ("w", "v"):
        raise ValueError(f"form must be 'w' or 'v', got {form!r}")
    lams = quad.eigenvalues
    n = lams.size
    w = np.ones(n) if w0 is None else np.asarray(w0, dtype=float).copy()
    v = np.zeros(n)
    D = int(delay)
    w_hist = [w.copy() for _ in range(D + 2)]
    v_hist = [v.copy() for _ in range(D + 2)]
    errs = np.empty(steps + 1)
    errs[0] = float(np.linalg.norm(w))
    for t in range(steps):
        w_tD = w_hist[-1 - D]
        if form == "w":
            w_tD1 = w_hist[-2 - D]
            w_pred = (T + 1.0) * w_tD - T * w_tD1
        else:
            v_tD = v_hist[-1 - D]
            w_pred = w_tD - lr * T * v_tD
        g = lams * w_pred
        v = momentum * v + g
        w = w - lr * (a * v + b * g)
        w_hist.append(w.copy())
        w_hist.pop(0)
        v_hist.append(v.copy())
        v_hist.pop(0)
        errs[t + 1] = float(np.linalg.norm(w))
        if not np.isfinite(errs[t + 1]) or errs[t + 1] > 1e12:
            errs[t + 1 :] = np.inf
            break
    return errs
