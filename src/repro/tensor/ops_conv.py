"""Differentiable 2-D convolution and pooling built on im2col/col2im.

The convolution forward lowers each padded input window into a column matrix
(`im2col`, a strided view reshaped once) so the convolution is a single
batched matmul — the vectorized-NumPy idiom recommended by the project's
performance guide.  The backward pass reads the weight tensor lazily (see
:mod:`repro.tensor`) and reuses the captured column buffer for the weight
gradient.
"""

from __future__ import annotations

import threading

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

    The convolution backward's two big temporaries — the column-gradient
    matrix and the padded input-gradient canvas — are consumed *within*
    one ``_bw`` call and never escape it, so each worker thread (one per
    stage slot's host thread in the threaded runtime, where the worker
    empties it as it exits — ``pipeline/worker.py::_worker_main``; one
    per process in the process runtime) can reuse a single buffer per
    shape instead of paying an allocation + page-fault sweep per packet.
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


def col2im(
    cols: np.ndarray,
    x_shape: tuple[int, int, int, int],
    kh: int,
    kw: int,
    stride: int,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Scatter-add column gradients back to the (padded) input layout.

    Inverse of :func:`im2col` in the adjoint sense.  Loops only over the
    ``kh*kw`` kernel positions; each iteration is a vectorized slice-add.
    ``out``, when given, is zeroed and scattered into instead of
    allocating a fresh canvas (the conv backward reuses a cached scratch
    buffer here) — the add order is unchanged, so results stay
    bit-identical.
    """
    n, c, h, w = x_shape
    oh = (h - kh) // stride + 1
    ow = (w - kw) // stride + 1
    cols = cols.reshape(n, c, kh, kw, oh, ow)
    if out is None:
        x = np.zeros(x_shape, dtype=cols.dtype)
    else:
        if out.shape != x_shape or out.dtype != cols.dtype:
            raise ValueError(
                f"col2im out buffer {out.shape}/{out.dtype} does not match "
                f"{x_shape}/{cols.dtype}"
            )
        x = out
        x.fill(0.0)
    for i in range(kh):
        i_end = i + oh * stride
        for j in range(kw):
            j_end = j + ow * stride
            x[:, :, i:i_end:stride, j:j_end:stride] += cols[:, :, i, j]
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
    padded_shape = xp.shape
    oh = (padded_shape[2] - kh) // stride + 1
    ow = (padded_shape[3] - kw) // stride + 1

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
        if padding:
            # scatter into the cached padded canvas, then hand the graph a
            # fresh exact-size interior copy: the old slice-view kept the
            # whole canvas alive, this frees it for the next packet
            canvas = _scratch.get("canvas", padded_shape, g.dtype)
            col2im(gcols, padded_shape, kh, kw, stride, out=canvas)
            gx = canvas[:, :, padding:-padding, padding:-padding].copy()
        else:
            # unpadded: the canvas *is* the retained gradient, so it must
            # be freshly allocated
            gx = col2im(gcols, padded_shape, kh, kw, stride)
        _accumulate(x, gx)

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
