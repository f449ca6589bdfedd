"""Group normalization as a single graph node.

The forward is the textbook NumPy sequence (mean, centre, mean of squares,
``+ eps``, ``sqrt``, divide, scale, shift) and the backward reproduces,
operation for operation and in the same accumulation order, what a graph
of autodiff primitives for that sequence computes — so results are
bit-identical to the primitive composite (kept as the oracle in
``tests/test_fused_kernels.py``) while one node stands where eleven did.

Capture conventions are those of :mod:`repro.tensor`: the statistics and
the normalized activations are forward captures; the scale ``weight`` is
read lazily, at backward time.
"""

from __future__ import annotations

import numpy as np

from repro.tensor.tensor import (
    Tensor,
    _accumulate,
    _ensure_tensor,
    _result,
    _unbroadcast,
)


def group_norm(x, num_groups: int, eps: float, weight=None, bias=None) -> Tensor:
    """Normalize an NCHW tensor per sample over ``num_groups`` channel
    groups, then scale by ``weight`` and shift by ``bias`` (each optional,
    broadcastable to ``x``).
    """
    x = _ensure_tensor(x)
    if x.ndim != 4:
        raise ValueError("group_norm expects an NCHW tensor")
    n, c, h, w = x.shape
    if c % num_groups:
        raise ValueError(
            f"channels ({c}) must divide into groups ({num_groups})"
        )
    grouped = x.data.reshape(n, num_groups, -1)
    count = float(grouped.shape[2])
    mu = grouped.mean(axis=2, keepdims=True)
    centered = grouped - mu
    var = (centered * centered).mean(axis=2, keepdims=True)
    sd = np.sqrt(var + np.asarray(eps, dtype=grouped.dtype))
    normalized = (centered / sd).reshape(n, c, h, w)

    parents: list[Tensor] = [x]
    out = normalized
    scaled_dtype = out.dtype
    if weight is not None:
        weight = _ensure_tensor(weight)
        parents.append(weight)
        out = out * weight.data
        scaled_dtype = out.dtype
    if bias is not None:
        bias = _ensure_tensor(bias)
        parents.append(bias)
        if out is not normalized and bias.data.dtype == out.dtype:
            out += bias.data
        else:
            out = out + bias.data

    x_dtype = grouped.dtype
    stat_shape = sd.shape

    def _bw(g: np.ndarray) -> None:
        if bias is not None:
            if bias.requires_grad:
                _accumulate(bias, _unbroadcast(g, bias.data.shape))
            if g.dtype != scaled_dtype:
                g = g.astype(scaled_dtype)
        if weight is not None:
            # lazy parent read: the scale as it is at backward time
            g_norm = g * weight.data if x.requires_grad else None
            if weight.requires_grad:
                _accumulate(
                    weight, _unbroadcast(g * normalized, weight.data.shape)
                )
            g = g_norm
        if not x.requires_grad:
            return
        if g.dtype != x_dtype:
            g = g.astype(x_dtype)
        g = g.reshape(n, num_groups, -1)
        # d/d centered, in the composite's order: the quotient first, then
        # the square's two operands, each (g_var / K) * centered
        g_centered = g / sd
        g_sd = _unbroadcast(-g * centered / (sd * sd), stat_shape)
        g_var = g_sd * 0.5 / sd
        g_square = (g_var / count) * centered
        g_centered += g_square
        g_centered += g_square
        # d/d grouped: the subtraction's pass-through, then the mean's share
        g_mu = -_unbroadcast(g_centered, stat_shape)
        g_centered += g_mu / count
        _accumulate(x, g_centered.reshape(n, c, h, w))

    return _result(out, tuple(parents), _bw)
