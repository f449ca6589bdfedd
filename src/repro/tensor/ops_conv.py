"""Differentiable 2-D convolution and pooling built on im2col/col2im.

The convolution forward lowers each padded input window into a column matrix
(`im2col`, a strided view reshaped once) so the convolution is a single
batched matmul — the vectorized-NumPy idiom recommended by the project's
performance guide.  The backward pass reads the weight tensor lazily (see
:mod:`repro.tensor`) and reuses the captured column buffer for the weight
gradient.  The input gradient is one GEMM into a cached column scratch and
one :func:`col2im` call, which scatters the columns straight into the
*unpadded* input layout (the padding's contributions are dropped on the
way), so no padded canvas exists in the float64 backward.
"""

from __future__ import annotations

import threading
from functools import lru_cache

import numpy as np

from repro.tensor.tensor import (
    Tensor,
    _accumulate,
    _ensure_tensor,
    _result,
    zero_pad2d,
)


class _ScratchCache(threading.local):
    """Thread-local pool of reusable backward work buffers, keyed by
    ``(role, shape, dtype)``.

    The convolution backward's big temporaries — the column-gradient
    matrix and, for a batch, the per-sample weight-gradient products —
    are consumed *within* one ``_bw`` call and never escape it, so each
    worker thread (one per stage slot's host thread in the threaded
    runtime, where the worker empties it as it exits —
    ``pipeline/worker.py::_worker_main``; one per process in the process
    runtime) can reuse a single buffer per shape instead of paying an
    allocation + page-fault sweep per packet.  (The scatter index behind
    :func:`col2im` is not scratch: it is read-only and shared across
    threads.)
    Thread-locality keeps concurrent stage workers from sharing (and
    corrupting) a buffer; anything *returned* from a backward is still
    freshly allocated, because gradients are retained by the autodiff
    graph and shipped across stages.
    """

    #: cache ceiling per thread; heterogeneous workloads (many layer
    #: shapes / batch widths in one long-lived process) reset the cache
    #: rather than growing resident memory without bound
    MAX_BYTES = 64 * 1024 * 1024

    def __init__(self):
        self._buffers: dict[tuple, np.ndarray] = {}
        self._bytes = 0

    def get(self, role: str, shape: tuple[int, ...], dtype) -> np.ndarray:
        key = (role, shape, np.dtype(dtype).str)
        buf = self._buffers.get(key)
        if buf is None:
            buf = np.empty(shape, dtype=dtype)
            if self._bytes + buf.nbytes > self.MAX_BYTES:
                self.clear()
            self._buffers[key] = buf
            self._bytes += buf.nbytes
        return buf

    def clear(self) -> None:
        """Drop the calling thread's buffers."""
        self._buffers.clear()
        self._bytes = 0


_scratch = _ScratchCache()


def im2col(x: np.ndarray, kh: int, kw: int, stride: int) -> np.ndarray:
    """Lower sliding windows of an NCHW array to ``(N, C*kh*kw, OH*OW)``.

    ``x`` must already be padded.  The strided view copies exactly once (at
    the reshape).
    """
    n, c, h, w = x.shape
    oh = (h - kh) // stride + 1
    ow = (w - kw) // stride + 1
    s0, s1, s2, s3 = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, kh, kw, oh, ow),
        strides=(s0, s1, s2, s3, s2 * stride, s3 * stride),
        writeable=False,
    )
    return windows.reshape(n, c * kh * kw, oh * ow)


@lru_cache(maxsize=32)
def _scatter_index(
    c: int, h: int, w: int, kh: int, kw: int, stride: int, padding: int
) -> np.ndarray:
    """Where each of one sample's column entries lands in its unpadded
    input: entry ``(c, i, j, y, x)``, in memory order, maps to the flat
    position of pixel ``(c, i + y*stride - padding, j + x*stride -
    padding)`` in ``(C, H, W)``, or to the trash bin ``C*H*W`` when that
    pixel lies in the padding.  Read-only; ``c*kh*kw*oh*ow`` integers per
    layer geometry, whatever the batch size."""
    oh = (h + 2 * padding - kh) // stride + 1
    ow = (w + 2 * padding - kw) // stride + 1
    ys = np.arange(kh)[:, None] + stride * np.arange(oh) - padding  # (kh, oh)
    xs = np.arange(kw)[:, None] + stride * np.arange(ow) - padding  # (kw, ow)
    inside = (
        ((ys >= 0) & (ys < h))[:, None, :, None]
        & ((xs >= 0) & (xs < w))[None, :, None, :]
    )  # (kh, kw, oh, ow)
    pixel = ys[:, None, :, None] * w + xs[None, :, None, :]
    planes = np.arange(c)[:, None, None, None, None] * (h * w)
    index = np.where(inside, planes + pixel, c * h * w).astype(np.intp).ravel()
    index.flags.writeable = False
    return index


def col2im(
    cols: np.ndarray,
    x_shape: tuple[int, int, int, int],
    kh: int,
    kw: int,
    stride: int,
    padding: int = 0,
) -> np.ndarray:
    """Scatter-add column gradients back to the unpadded input layout.

    Inverse of :func:`im2col` in the adjoint sense: ``cols`` is laid out
    ``(N, C*kh*kw, OH*OW)`` over the input padded by ``padding`` on each
    side, and the result has the *unpadded* ``x_shape`` — contributions
    landing in the padding are dropped.  The result is always a fresh
    array (or a compact view of one).

    Each input pixel sums its contributions in kernel-position order
    ``(i, j)``, starting from +0.0 — the order of the reference loop of
    ``kh*kw`` strided slice-adds.  float64 gets there in one
    ``np.bincount`` per sample over a cached index
    (:func:`_scatter_index`): bincount adds ``out[index[k]] += cols[k]``
    in float64, in memory order, and memory order visits one pixel's
    contributions in ``(i, j)`` order, so every sum is the loop's, bit
    for bit (signed zeros, infinities and NaNs included).  Every other
    dtype keeps the loop into a zeroed padded canvas: bincount sums in
    float64, which would round float32 (and bf16-grid float32) data
    differently.
    """
    n, c, h, w = x_shape
    if cols.dtype == np.float64:
        index = _scatter_index(c, h, w, kh, kw, stride, padding)
        bins = c * h * w + 1
        rows = cols.reshape(n, -1)
        if n == 1:
            flat = np.bincount(index, rows[0], bins)[:-1]
        else:
            flat = np.concatenate(
                [np.bincount(index, row, bins)[:-1] for row in rows]
            )
        return flat.reshape(x_shape)
    hp, wp = h + 2 * padding, w + 2 * padding
    oh = (hp - kh) // stride + 1
    ow = (wp - kw) // stride + 1
    cols = cols.reshape(n, c, kh, kw, oh, ow)
    x = np.zeros((n, c, hp, wp), dtype=cols.dtype)
    for i in range(kh):
        i_end = i + oh * stride
        for j in range(kw):
            j_end = j + ow * stride
            x[:, :, i:i_end:stride, j:j_end:stride] += cols[:, :, i, j]
    if padding:
        return x[:, :, padding:-padding, padding:-padding].copy()
    return x


def conv2d(x, weight, bias=None, stride: int = 1, padding: int = 0) -> Tensor:
    """2-D cross-correlation (NCHW) with square stride/padding.

    Parameters
    ----------
    x:
        ``(N, C, H, W)`` input tensor.
    weight:
        ``(OC, C, KH, KW)`` filter tensor.
    bias:
        Optional ``(OC,)`` tensor added per output channel.
    """
    x = _ensure_tensor(x)
    weight = _ensure_tensor(weight)
    if x.ndim != 4 or weight.ndim != 4:
        raise ValueError("conv2d expects NCHW input and OIHW weight")
    n, c, h, w = x.shape
    oc, ic, kh, kw = weight.shape
    if ic != c:
        raise ValueError(f"channel mismatch: input has {c}, weight expects {ic}")
    if h + 2 * padding < kh or w + 2 * padding < kw:
        raise ValueError("kernel larger than padded input")

    xp = zero_pad2d(x.data, padding) if padding else x.data
    oh = (xp.shape[2] - kh) // stride + 1
    ow = (xp.shape[3] - kw) // stride + 1

    cols = im2col(xp, kh, kw, stride)  # forward capture (activations)
    w2 = weight.data.reshape(oc, -1)
    out = np.matmul(w2, cols)  # (N, OC, OH*OW) via broadcasting over N
    out = out.reshape(n, oc, oh, ow)

    parents: list[Tensor] = [x, weight]
    if bias is not None:
        bias = _ensure_tensor(bias)
        if bias.shape != (oc,):
            raise ValueError(f"bias must have shape ({oc},), got {bias.shape}")
        out = out + bias.data.reshape(1, oc, 1, 1)
        parents.append(bias)

    def _bw(g: np.ndarray) -> None:
        go = g.reshape(n, oc, oh * ow)
        # weight gradient: forward-captured activations x backward grads
        if n == 1:
            # one sample: its outer product *is* the gradient (a sum over
            # one element is a copy), so the GEMM writes the retained array
            gw = np.matmul(go[0], cols[0].T)
        else:
            # the per-sample outer products land in a cached scratch,
            # consumed by the reduction; only the reduced gw is retained
            gw_batch = _scratch.get("gw", (n, oc, cols.shape[1]), g.dtype)
            np.matmul(go, cols.transpose(0, 2, 1), out=gw_batch)
            gw = gw_batch.sum(axis=0)
        _accumulate(weight, gw.reshape(weight.shape))
        if bias is not None:
            _accumulate(bias, g.sum(axis=(0, 2, 3)))
        if not x.requires_grad:
            # nobody reads the input gradient (an image batch, a
            # weights-only grad check): skip its GEMM, col2im and copy
            return
        # input gradient: lazy read of the *current* weight value
        w2_now = weight.data.reshape(oc, -1)
        gcols = _scratch.get("gcols", (n, cols.shape[1], oh * ow), g.dtype)
        np.matmul(w2_now.T, go, out=gcols)  # (N, C*KH*KW, OH*OW)
        # col2im crops the padding itself and returns a fresh array, which
        # the graph adopts as is
        _accumulate(x, col2im(gcols, x.shape, kh, kw, stride, padding))

    return _result(out, tuple(parents), _bw)


def _pool_windows(data: np.ndarray, k: int) -> np.ndarray:
    """Reshape NCHW into ``(N, C, H/k, W/k, k*k)`` non-overlapping windows."""
    n, c, h, w = data.shape
    if h % k or w % k:
        raise ValueError(
            f"pooling requires spatial dims divisible by kernel {k}, got {h}x{w}"
        )
    oh, ow = h // k, w // k
    return (
        data.reshape(n, c, oh, k, ow, k)
        .transpose(0, 1, 2, 4, 3, 5)
        .reshape(n, c, oh, ow, k * k)
    )


def _unpool_windows(gwin: np.ndarray, k: int) -> np.ndarray:
    """Inverse layout transform of :func:`_pool_windows`."""
    n, c, oh, ow, _ = gwin.shape
    return (
        gwin.reshape(n, c, oh, ow, k, k)
        .transpose(0, 1, 2, 4, 3, 5)
        .reshape(n, c, oh * k, ow * k)
    )


def max_pool2d(x, kernel: int) -> Tensor:
    """Non-overlapping max pooling (kernel == stride).

    Backward routes each window's gradient to the forward-time argmax (ties
    broken toward the first element, as in cuDNN deterministic mode).
    """
    x = _ensure_tensor(x)
    windows = _pool_windows(x.data, kernel)
    idx = windows.argmax(axis=-1)  # forward capture
    out = np.take_along_axis(windows, idx[..., None], axis=-1)[..., 0]
    in_shape = x.shape

    def _bw(g: np.ndarray) -> None:
        gwin = np.zeros(windows.shape, dtype=g.dtype)
        np.put_along_axis(gwin, idx[..., None], g[..., None], axis=-1)
        _accumulate(x, _unpool_windows(gwin, kernel).reshape(in_shape))

    return _result(out, (x,), _bw)


def avg_pool2d(x, kernel: int) -> Tensor:
    """Non-overlapping average pooling (kernel == stride)."""
    x = _ensure_tensor(x)
    windows = _pool_windows(x.data, kernel)
    out = windows.mean(axis=-1)
    in_shape = x.shape
    k2 = kernel * kernel

    def _bw(g: np.ndarray) -> None:
        gwin = np.repeat(g[..., None] / k2, k2, axis=-1)
        _accumulate(x, _unpool_windows(gwin, kernel).reshape(in_shape))

    return _result(out, (x,), _bw)
