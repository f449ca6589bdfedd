"""Declarative bundle of all delay mitigations, with the paper's presets.

A :class:`MitigationConfig` is consumed both by the Appendix-G.2
:class:`~repro.core.delayed_sgd.DelayedSGDM` simulator and by the per-stage
optimizers of the cycle-accurate pipeline executor, so every experiment
names its method the same way the paper does::

    MitigationConfig.none()             # plain PB
    MitigationConfig.sc()               # PB + SC_D
    MitigationConfig.sc(scale=2)        # PB + SC_2D
    MitigationConfig.lwp()              # PB + LWP_D      (velocity form)
    MitigationConfig.lwp(scale=2)       # PB + LWP_2D
    MitigationConfig.lwp_plus_sc()      # PB + LWPv_D + SC_D  (the headline)
    MitigationConfig.lwp_plus_sc("w")   # PB + LWPw_D + SC_D
    MitigationConfig.stashing()         # PB + WS (Harlap et al.)
    MitigationConfig.spectrain()        # SpecTrain (Chen et al.)
    MitigationConfig.gradient_shrinking()  # Zhuang et al.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.compensation import SpikeConfig
from repro.core.prediction import PredictionConfig


@dataclass(frozen=True)
class MitigationConfig:
    """What to do about stale gradients / inconsistent weights.

    Attributes
    ----------
    spike:
        Spike-compensation settings, or ``None`` to disable.
    prediction:
        Weight-prediction settings (kind ``"none"`` disables).
    weight_stashing:
        Use the forward-pass weights again on the backward pass
        (Harlap et al. 2018).  In the flat simulator this is identical to
        "consistent delay"; in the executor the stage stashes the weight
        values used on each sample's forward.
    gradient_shrink_base:
        If set, scales each arriving gradient by ``base ** D`` (Zhuang et
        al. 2019 gradient shrinking).  ``None`` disables.  Build it with
        :meth:`gradient_shrinking`, which validates the base (and stores
        "the momentum at resolve time" as a negative sentinel).
    name:
        Label used in printed tables.
    """

    spike: SpikeConfig | None = None
    prediction: PredictionConfig = field(default_factory=PredictionConfig)
    weight_stashing: bool = False
    gradient_shrink_base: float | None = None
    name: str = "PB"

    # -- presets (paper nomenclature) ------------------------------------

    @staticmethod
    def none() -> "MitigationConfig":
        return MitigationConfig(name="PB")

    @staticmethod
    def sc(scale: float = 1.0) -> "MitigationConfig":
        label = "PB+SC_D" if scale == 1.0 else f"PB+SC_{scale:g}D"
        return MitigationConfig(spike=SpikeConfig(scale=scale), name=label)

    @staticmethod
    def gsc(a: float, b: float) -> "MitigationConfig":
        return MitigationConfig(
            spike=SpikeConfig(a=a, b=b), name=f"PB+GSC(a={a:g},b={b:g})"
        )

    @staticmethod
    def lwp(
        form: str = "v", scale: float = 1.0, horizon: float | None = None
    ) -> "MitigationConfig":
        kind = "lwp_v" if form == "v" else "lwp_w"
        if horizon is not None:
            label = f"PB+LWP(T={horizon:g})"
        else:
            label = "PB+LWP_D" if scale == 1.0 else f"PB+LWP_{scale:g}D"
        return MitigationConfig(
            prediction=PredictionConfig(
                kind=kind, horizon_scale=scale, horizon=horizon
            ),
            name=label,
        )

    @staticmethod
    def lwp_plus_sc(
        form: str = "v",
        lwp_scale: float = 1.0,
        sc_scale: float = 1.0,
    ) -> "MitigationConfig":
        kind = "lwp_v" if form == "v" else "lwp_w"
        return MitigationConfig(
            spike=SpikeConfig(scale=sc_scale),
            prediction=PredictionConfig(kind=kind, horizon_scale=lwp_scale),
            name=f"PB+LWP{form}_D+SC_D",
        )

    @staticmethod
    def stashing() -> "MitigationConfig":
        """Weight stashing (Harlap et al. 2018)."""
        return MitigationConfig(weight_stashing=True, name="PB+WS")

    @staticmethod
    def spectrain(offset: float = 0.0) -> "MitigationConfig":
        return MitigationConfig(
            prediction=PredictionConfig(
                kind="spectrain", spectrain_offset=offset
            ),
            name="PB+SpecTrain",
        )

    @staticmethod
    def gradient_shrinking(base: float | None = None) -> "MitigationConfig":
        """Zhuang et al. baseline; ``base=None`` uses the momentum at
        resolve time, anything else must lie in ``(0, 1]``."""
        if base is not None and not 0.0 < base <= 1.0:
            raise ValueError(
                f"gradient shrink base must be in (0, 1], got {base}"
            )
        return MitigationConfig(
            gradient_shrink_base=base if base is not None else -1.0,
            name="PB+GradShrink",
        )

    # -- helpers ----------------------------------------------------------

    def shrink_factor(self, momentum: float, delay: float) -> float:
        """The gradient-shrinking multiplier for a given delay."""
        if self.gradient_shrink_base is None:
            return 1.0
        base = (
            momentum
            if self.gradient_shrink_base < 0
            else self.gradient_shrink_base
        )
        return float(base**delay)

    def spike_coefficients(
        self, momentum: float, delay: float
    ) -> tuple[float, float]:
        """Resolve (a, b); plain SGDM coefficients when spike is disabled."""
        if self.spike is None:
            return 1.0, 0.0
        return self.spike.coefficients(momentum, delay)
