"""Weight initialization schemes (He, uniform-fan-in).

All initializers take an explicit ``numpy.random.Generator`` so model
construction is reproducible from a single seed.
"""

from __future__ import annotations

import numpy as np

from repro import config


def _fans(shape: tuple[int, ...]) -> tuple[int, int]:
    """(fan_in, fan_out) for linear ``(in, out)`` or conv ``(OC, IC, KH, KW)``."""
    if len(shape) == 2:
        return shape[0], shape[1]
    if len(shape) == 4:
        oc, ic, kh, kw = shape
        rf = kh * kw
        return ic * rf, oc * rf
    raise ValueError(f"unsupported weight shape {shape}")


def he_normal(
    shape: tuple[int, ...],
    rng: np.random.Generator,
    mode: str = "fan_out",
    dtype=None,
) -> np.ndarray:
    """Kaiming-normal init (He et al. 2015), fan_out mode by default as in
    the reference ResNet implementation."""
    fan_in, fan_out = _fans(shape)
    fan = fan_out if mode == "fan_out" else fan_in
    std = np.sqrt(2.0 / fan)
    return rng.normal(0.0, std, size=shape).astype(dtype or config.DEFAULT_DTYPE)


def uniform_fan_in(
    shape: tuple[int, ...], rng: np.random.Generator, dtype=None
) -> np.ndarray:
    """Torch-style default: U(-1/sqrt(fan_in), 1/sqrt(fan_in))."""
    fan_in, _ = _fans(shape)
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(
        dtype or config.DEFAULT_DTYPE
    )


def zeros(shape: tuple[int, ...], dtype=None) -> np.ndarray:
    return np.zeros(shape, dtype=dtype or config.DEFAULT_DTYPE)


def ones(shape: tuple[int, ...], dtype=None) -> np.ndarray:
    return np.ones(shape, dtype=dtype or config.DEFAULT_DTYPE)
