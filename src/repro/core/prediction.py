"""Linear Weight Prediction (paper §3.3) and SpecTrain horizons (App. C).

At forward time the backward-pass weights are estimated ``T`` steps ahead
("horizon"); with our velocity form this is

    w_hat = w_{t-D} - lr * T * v_{t-D}                 (eq. 18, LWPv)

and the weight-difference form

    w_hat = w_{t-D} + T * (w_{t-D} - w_{t-D-1})        (eq. 19, LWPw)

The two coincide for unmodified SGDM and differ when combined with spike
compensation (eq. 26).  The default horizon is ``T = D`` (LWP_D);
``horizon_scale=2`` gives the overcompensating LWP_2D of Appendix E.

SpecTrain (Chen et al. 2018), reconstructed per Appendix C / Figure 11:
every stage predicts to the *same* future time step ("vertical sync") —
the pipeline step at which the sample's last backward completes.  For
stage ``s`` of ``S`` (delay ``D_s = 2(S-1-s)``) the forward horizon is
``D_s + s`` and the backward pass *re-predicts* with horizon ``s``.  In
the flat (constant-delay) simulator the stage offset is the
``spectrain_offset`` parameter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

PredictionKind = Literal["none", "lwp_v", "lwp_w", "spectrain"]


def predict_velocity_form(
    w: np.ndarray, v: np.ndarray, lr: float, horizon: float
) -> np.ndarray:
    """eq. 18: ``w - lr * T * v`` (assumes constant velocity over T steps)."""
    if horizon == 0:
        return w.copy()
    return w - lr * horizon * v


def predict_weight_diff_form(
    w: np.ndarray, w_prev: np.ndarray, horizon: float
) -> np.ndarray:
    """eq. 19: ``w + T * (w - w_prev)``."""
    if horizon == 0:
        return w.copy()
    return w + horizon * (w - w_prev)


@dataclass(frozen=True)
class PredictionConfig:
    """Weight-prediction settings.

    Attributes
    ----------
    kind:
        ``"none"``, ``"lwp_v"``, ``"lwp_w"`` or ``"spectrain"``.
    horizon_scale:
        ``T = horizon_scale * D`` unless ``horizon`` is given explicitly.
    horizon:
        Absolute horizon override (used by the Figure-7/12 sweeps).
    spectrain_offset:
        The vertical-sync offset added to the forward horizon and used as
        the backward re-prediction horizon (stage index ``s`` in the
        pipeline executor; configurable scalar in the flat simulator).
    """

    kind: PredictionKind = "none"
    horizon_scale: float = 1.0
    horizon: float | None = None
    spectrain_offset: float = 0.0

    def __post_init__(self):
        if self.kind not in ("none", "lwp_v", "lwp_w", "spectrain"):
            raise ValueError(f"unknown prediction kind {self.kind!r}")

    def forward_horizon(self, delay: float, offset: float | None = None) -> float:
        """The horizon used when predicting forward-pass weights."""
        if self.kind == "none":
            return 0.0
        base = self.horizon if self.horizon is not None else (
            self.horizon_scale * delay
        )
        if self.kind == "spectrain":
            off = self.spectrain_offset if offset is None else offset
            return base + off
        return base

    def backward_horizon(self, offset: float | None = None) -> float:
        """The horizon used when re-predicting on the backward pass
        (SpecTrain only; zero for LWP)."""
        if self.kind != "spectrain":
            return 0.0
        return self.spectrain_offset if offset is None else offset

    def predict(
        self,
        w: np.ndarray,
        v: np.ndarray,
        w_prev: np.ndarray,
        lr: float,
        horizon: float,
    ) -> np.ndarray:
        """``w`` advanced ``horizon`` steps, as a fresh array: eq. 19 from
        ``(w, w_prev)`` for ``"lwp_w"``, eq. 18 from ``(w, v)`` for every
        other kind (``"none"`` has horizon zero, i.e. a copy of ``w``)."""
        if self.kind == "lwp_w":
            return predict_weight_diff_form(w, w_prev, horizon)
        return predict_velocity_form(w, v, lr, horizon)
