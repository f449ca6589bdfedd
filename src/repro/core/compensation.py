"""Spike Compensation (paper §3.2).

The modified update for a gradient delayed by ``D`` steps is

    v_{t+1} = m v_t + g_t
    w_{t+1} = w_t - lr * (a v_{t+1} + b g_t)          (eq. 12)

The default coefficients (SC_D, eq. 14) replay at once the weight-update
mass the delayed gradient *would* have contributed in the no-delay case:

    a = m**D,   b = (1 - m**D) / (1 - m)

so the total long-run contribution of each gradient is unchanged — only
its timing moves.  Special cases (all property-tested):

* ``D = 0``  -> ``a=1, b=0``: plain SGDM.
* ``m = 0``  -> the update is the plain (delayed) gradient.
* ``D = 1``  -> ``a=m, b=1``: exactly Nesterov momentum (§3.5).
* SC_2D ("overcompensation", Appendix E) substitutes ``2D`` for ``D``.
"""

from __future__ import annotations

from dataclasses import dataclass


def spike_coefficients(momentum: float, delay: float) -> tuple[float, float]:
    """The default SC_D coefficients ``(a, b)`` of eq. 14.

    ``delay`` may be fractional (used by overcompensation sweeps).
    """
    if not 0.0 <= momentum < 1.0:
        raise ValueError(f"momentum must be in [0, 1), got {momentum}")
    if delay < 0:
        raise ValueError(f"delay must be >= 0, got {delay}")
    if momentum == 0.0:
        # lim m->0: a = m^D -> (1 if D == 0 else 0); b = (1-m^D)/(1-m)
        return (1.0, 0.0) if delay == 0 else (0.0, 1.0)
    a = momentum**delay
    b = (1.0 - a) / (1.0 - momentum)
    return a, b


@dataclass(frozen=True)
class SpikeConfig:
    """Configuration for (generalized) spike compensation.

    ``scale`` multiplies the delay before computing the default
    coefficients (``scale=2`` is the paper's SC_2D overcompensation).
    Explicit ``a``/``b`` override the defaults entirely (GSC, eq. 12).
    """

    scale: float = 1.0
    a: float | None = None
    b: float | None = None

    def coefficients(self, momentum: float, delay: float) -> tuple[float, float]:
        """Resolve ``(a, b)`` for a given momentum and *unscaled* delay."""
        if (self.a is None) != (self.b is None):
            raise ValueError("explicit GSC coefficients require both a and b")
        if self.a is not None and self.b is not None:
            return float(self.a), float(self.b)
        return spike_coefficients(momentum, self.scale * delay)
