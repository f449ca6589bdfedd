"""The :class:`Tensor` class and core differentiable operations.

A :class:`Tensor` wraps a ``numpy.ndarray`` and optionally participates in a
dynamically-built reverse-mode graph.  ``Tensor.backward`` walks the graph in
reverse topological order, calling each node's backward closure.

Two value-capture conventions are used in backward closures (see the package
docstring of :mod:`repro.tensor` for why this matters to pipelined
backpropagation):

* **lazy parent reads** — where the derivative needs the *value of a parent
  tensor* (``b.data`` in ``a*b``, the weight in ``matmul``), the closure
  reads ``parent.data`` when backward runs;
* **forward captures** — where the derivative needs a *forward-time
  intermediate* (ReLU mask, softmax output), the closure captures the array
  computed during forward.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Sequence

import numpy as np

from repro import config

class _GradMode(threading.local):
    """Per-thread grad mode.  A process-global flag is not safe here:
    ``no_grad`` saves and restores it non-atomically, so two threads
    interleaving enter/exit pairs could leave it stuck ``False`` for
    everyone.  The class attribute is the default every new thread
    starts from; a forked child inherits the forking thread's value,
    which is why worker entry points reset it explicitly."""

    enabled = True


_GRAD = _GradMode()


@contextlib.contextmanager
def no_grad():
    """Disable graph construction inside the ``with`` block (inference),
    for the calling thread only."""
    prev = _GRAD.enabled
    _GRAD.enabled = False
    try:
        yield
    finally:
        _GRAD.enabled = prev


def grad_enabled() -> bool:
    """Whether ops on the calling thread record the autodiff graph."""
    return _GRAD.enabled


def enable_grad() -> None:
    """Switch the calling thread back to recording the graph (worker
    entry points call this: a fork inherits the forking thread's mode)."""
    _GRAD.enabled = True


def _coerce_array(data, dtype=None) -> np.ndarray:
    arr = np.asarray(data)
    if dtype is not None:
        return arr.astype(dtype, copy=False)
    if arr.dtype in (np.float32, np.float64):
        return arr
    return arr.astype(config.DEFAULT_DTYPE)


class Tensor:
    """A NumPy array with reverse-mode gradient tracking.

    Parameters
    ----------
    data:
        Array-like.  Integer/bool inputs are promoted to
        ``repro.config.DEFAULT_DTYPE``; float32/float64 are kept.
    requires_grad:
        Whether gradients should accumulate in ``.grad`` during
        :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        if isinstance(data, Tensor):
            data = data.data
        self.data: np.ndarray = _coerce_array(data, dtype)
        self.grad: np.ndarray | None = None
        self.requires_grad: bool = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward_fn: Callable[[np.ndarray], None] | None = None

    # -- introspection ----------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def numpy(self) -> np.ndarray:
        """The underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        if self.data.size != 1:
            raise ValueError("item() requires a 1-element tensor")
        return float(self.data.reshape(-1)[0])

    def detach(self) -> "Tensor":
        """A new tensor sharing data but cut from the graph."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.dtype}{grad_flag})"

    # -- backward engine ---------------------------------------------------

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor.

        ``grad`` defaults to ones and may only be omitted for single-element
        tensors (scalar losses).
        """
        if not self.requires_grad:
            raise RuntimeError("called backward on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise RuntimeError("grad must be provided for non-scalar backward")
            grad = np.ones_like(self.data)
        backward_multi([(self, grad)])

    # -- operator sugar -----------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return mul(self, -1.0)

    def __pow__(self, exponent):
        return power(self, exponent)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, idx):
        return getitem(self, idx)

    # -- method forms of common ops -----------------------------------------

    def sum(self, axis=None, keepdims: bool = False):
        return tensor_sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False):
        return tensor_mean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def flatten(self, start_dim: int = 1):
        lead = self.shape[:start_dim]
        return reshape(self, lead + (-1,))

    def transpose(self, axes: Sequence[int]):
        return transpose(self, axes)

    def relu(self):
        return relu(self)

    def exp(self):
        return exp(self)

    def log(self):
        return log(self)

    def sqrt(self):
        return sqrt(self)


# -- graph plumbing -----------------------------------------------------------


def backward_multi(pairs: Sequence[tuple["Tensor", np.ndarray]]) -> None:
    """Backpropagate from several roots in one topological walk.

    Needed when two outputs share a sub-graph (e.g. a pipeline stage that
    emits both ``conv(preact(x))`` and ``preact(x)``): calling
    ``backward`` on each root separately would re-propagate the shared
    nodes' accumulated gradients and double-count.  Seeds every root's
    gradient first, then walks the union graph once.
    """
    pairs = [(t, g) for t, g in pairs if t.requires_grad]
    if not pairs:
        return
    topo: list[Tensor] = []
    visited: set[int] = set()
    for root, _ in pairs:
        if id(root) not in visited:
            _collect_topo(root, topo, visited)
    for root, g in pairs:
        g = np.asarray(g, dtype=root.data.dtype)
        if g.shape != root.data.shape:
            g = np.broadcast_to(g, root.data.shape)
        # the one copy of the walk: the caller keeps (or recycles) its
        # seed array, and everything below adopts what it is handed
        _accumulate(root, g.copy(order="K"))
    for node in reversed(topo):
        if node._backward_fn is not None and node.grad is not None:
            node._backward_fn(node.grad)


def _collect_topo(root: Tensor, topo: list[Tensor], visited: set[int]) -> None:
    """Append post-order nodes of ``root``'s graph to ``topo`` (shared
    ``visited``)."""
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in visited:
                stack.append((parent, False))


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if g.shape != t.data.shape:
        raise ValueError(
            f"gradient shape {g.shape} does not match tensor shape {t.data.shape}"
        )
    if t.grad is None:
        # adopted, not copied: safe because accumulation below is
        # out-of-place and nothing writes a .grad in place (see the
        # package docstring, "gradient ownership")
        t.grad = g if g.dtype == t.data.dtype else g.astype(t.data.dtype)
    else:
        t.grad = t.grad + g


def _result(
    data: np.ndarray,
    parents: tuple[Tensor, ...],
    backward_fn: Callable[[np.ndarray], None],
) -> Tensor:
    """Build an op result, attaching the graph only when grad is enabled."""
    requires = _GRAD.enabled and any(p.requires_grad for p in parents)
    out = Tensor(data, requires_grad=requires)
    if requires:
        out._parents = parents
        out._backward_fn = backward_fn
    return out


def _ensure_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _ensure_operands(a, b) -> tuple[Tensor, Tensor]:
    """Coerce a binary op's operands, promoting bare python scalars
    *weakly*: an int/float adopts the other operand's dtype (NumPy's own
    scalar rule) instead of minting a float64 0-d array that would drag
    a float32 tensor up to float64.  Exact for float64 tensors — python
    floats are float64 — so the reference path is unchanged; this is
    what keeps reduced-precision activations on their grid through
    scalar ops like ``var + eps`` or ``x * 0.5``."""
    if type(b) in (bool, int, float) and isinstance(a, Tensor):
        return a, Tensor(np.asarray(b, dtype=a.data.dtype))
    if type(a) in (bool, int, float) and isinstance(b, Tensor):
        return Tensor(np.asarray(a, dtype=b.data.dtype)), b
    return _ensure_tensor(a), _ensure_tensor(b)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` over broadcasted axes back to ``shape``."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(
        i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1
    )
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


# -- elementwise arithmetic ----------------------------------------------------


def add(a, b) -> Tensor:
    """Elementwise/broadcasting addition."""
    a, b = _ensure_operands(a, b)
    out_data = a.data + b.data

    def _bw(g: np.ndarray) -> None:
        _accumulate(a, _unbroadcast(g, a.data.shape))
        _accumulate(b, _unbroadcast(g, b.data.shape))

    return _result(out_data, (a, b), _bw)


def sub(a, b) -> Tensor:
    """Elementwise/broadcasting subtraction."""
    a, b = _ensure_operands(a, b)
    out_data = a.data - b.data

    def _bw(g: np.ndarray) -> None:
        _accumulate(a, _unbroadcast(g, a.data.shape))
        _accumulate(b, _unbroadcast(-g, b.data.shape))

    return _result(out_data, (a, b), _bw)


def mul(a, b) -> Tensor:
    """Elementwise/broadcasting multiplication."""
    a, b = _ensure_operands(a, b)
    out_data = a.data * b.data

    def _bw(g: np.ndarray) -> None:
        # lazy parent reads: uses the parents' values at backward time
        _accumulate(a, _unbroadcast(g * b.data, a.data.shape))
        _accumulate(b, _unbroadcast(g * a.data, b.data.shape))

    return _result(out_data, (a, b), _bw)


def div(a, b) -> Tensor:
    """Elementwise/broadcasting division."""
    a, b = _ensure_operands(a, b)
    out_data = a.data / b.data

    def _bw(g: np.ndarray) -> None:
        _accumulate(a, _unbroadcast(g / b.data, a.data.shape))
        _accumulate(b, _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

    return _result(out_data, (a, b), _bw)


def power(a, exponent: float) -> Tensor:
    """Elementwise power with a *scalar* exponent."""
    a = _ensure_tensor(a)
    if isinstance(exponent, Tensor):
        raise TypeError("power only supports scalar exponents")
    exponent = float(exponent)
    out_data = a.data**exponent

    def _bw(g: np.ndarray) -> None:
        _accumulate(a, g * exponent * a.data ** (exponent - 1.0))

    return _result(out_data, (a,), _bw)


# -- matmul --------------------------------------------------------------------


def matmul(a, b) -> Tensor:
    """Matrix product supporting 2-D and batched (>=2-D) operands."""
    a, b = _ensure_tensor(a), _ensure_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError("matmul requires operands with ndim >= 2")
    out_data = np.matmul(a.data, b.data)

    def _bw(g: np.ndarray) -> None:
        # lazy parent reads (weight inconsistency semantics, see module doc)
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
        gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
        _accumulate(a, _unbroadcast(ga, a.data.shape))
        _accumulate(b, _unbroadcast(gb, b.data.shape))

    return _result(out_data, (a, b), _bw)


def linear(x, weight, bias) -> Tensor:
    """``x @ weight + bias`` for 2-D ``x`` as one graph node.

    Same floating-point operations in the same order as ``matmul``
    followed by ``add`` (the bias lands in place on the fresh product),
    and the same accumulation order: bias, then input, then weight.
    """
    x, weight = _ensure_tensor(x), _ensure_tensor(weight)
    bias = _ensure_tensor(bias)
    if x.ndim != 2 or weight.ndim != 2 or bias.ndim != 1:
        raise ValueError("linear expects 2-D input, 2-D weight and 1-D bias")
    out_data = np.matmul(x.data, weight.data)
    product_dtype = out_data.dtype
    if bias.data.dtype == product_dtype:
        out_data += bias.data
    else:
        out_data = out_data + bias.data

    def _bw(g: np.ndarray) -> None:
        if bias.requires_grad:
            _accumulate(bias, _unbroadcast(g, bias.data.shape))
        if g.dtype != product_dtype:
            g = g.astype(product_dtype)
        if x.requires_grad:
            # lazy parent read: the weight as it is at backward time
            _accumulate(x, np.matmul(g, weight.data.T))
        if weight.requires_grad:
            _accumulate(weight, np.matmul(x.data.T, g))

    return _result(out_data, (x, weight, bias), _bw)


# -- reductions ----------------------------------------------------------------


def _expand_reduced(g: np.ndarray, shape: tuple[int, ...], axis, keepdims: bool):
    if axis is None:
        return np.broadcast_to(g, shape)
    if not keepdims:
        axes = axis if isinstance(axis, tuple) else (axis,)
        axes = tuple(a % len(shape) for a in axes)
        g = np.expand_dims(g, axes)
    return np.broadcast_to(g, shape)


def tensor_sum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _ensure_tensor(a)
    out_data = a.data.sum(axis=axis, keepdims=keepdims)
    shape = a.data.shape

    def _bw(g: np.ndarray) -> None:
        _accumulate(a, _expand_reduced(g, shape, axis, keepdims).astype(g.dtype))

    return _result(out_data, (a,), _bw)


def tensor_mean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _ensure_tensor(a)
    out_data = a.data.mean(axis=axis, keepdims=keepdims)
    shape = a.data.shape
    count = a.data.size / max(out_data.size, 1)

    def _bw(g: np.ndarray) -> None:
        _accumulate(
            a, (_expand_reduced(g, shape, axis, keepdims) / count).astype(g.dtype)
        )

    return _result(out_data, (a,), _bw)


# -- shape ops -----------------------------------------------------------------


def reshape(a, shape) -> Tensor:
    """View/copy with a new shape (backward reshapes the gradient)."""
    a = _ensure_tensor(a)
    original = a.data.shape
    out_data = a.data.reshape(shape)

    def _bw(g: np.ndarray) -> None:
        _accumulate(a, g.reshape(original))

    return _result(out_data, (a,), _bw)


def transpose(a, axes: Sequence[int]) -> Tensor:
    """Permute axes (backward applies the inverse permutation)."""
    a = _ensure_tensor(a)
    axes = tuple(axes)
    inverse = tuple(np.argsort(axes))
    out_data = a.data.transpose(axes)

    def _bw(g: np.ndarray) -> None:
        _accumulate(a, g.transpose(inverse))

    return _result(out_data, (a,), _bw)


def zero_pad2d(data: np.ndarray, pad: int) -> np.ndarray:
    """``data`` (NCHW) inside a zeroed canvas ``pad`` wider on each
    spatial side — ``np.pad``'s result without its per-call Python."""
    n, c, h, w = data.shape
    canvas = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=data.dtype)
    canvas[:, :, pad:-pad, pad:-pad] = data
    return canvas


def pad2d(a, pad: int) -> Tensor:
    """Zero-pad the last two (spatial) dims of an NCHW tensor by ``pad``."""
    a = _ensure_tensor(a)
    if pad == 0:
        return a
    if a.ndim != 4:
        raise ValueError("pad2d expects an NCHW tensor")
    out_data = zero_pad2d(a.data, pad)

    def _bw(g: np.ndarray) -> None:
        # compact copy, not the strided window: an adopted view would pin
        # the whole padded gradient and change what downstream reductions
        # see (their summation order follows the memory layout)
        _accumulate(a, g[:, :, pad:-pad, pad:-pad].copy(order="K"))

    return _result(out_data, (a,), _bw)


def getitem(a, idx) -> Tensor:
    a = _ensure_tensor(a)
    out_data = a.data[idx]
    shape = a.data.shape

    def _bw(g: np.ndarray) -> None:
        full = np.zeros(shape, dtype=g.dtype)
        np.add.at(full, idx, g)
        _accumulate(a, full)

    return _result(out_data, (a,), _bw)


# -- nonlinearities ------------------------------------------------------------


def relu(a) -> Tensor:
    """Rectified linear unit (mask captured at forward time)."""
    a = _ensure_tensor(a)
    mask = a.data > 0  # forward capture: the activation mask
    # -0 and NaN map to +0, exactly as the mask selects them;
    # np.maximum would propagate NaN
    out_data = np.fmax(a.data, 0.0)

    def _bw(g: np.ndarray) -> None:
        _accumulate(a, g * mask)

    return _result(out_data, (a,), _bw)


def exp(a) -> Tensor:
    """Elementwise exponential."""
    a = _ensure_tensor(a)
    out_data = np.exp(a.data)
    captured = out_data  # forward capture

    def _bw(g: np.ndarray) -> None:
        _accumulate(a, g * captured)

    return _result(out_data, (a,), _bw)


def log(a) -> Tensor:
    """Elementwise natural logarithm."""
    a = _ensure_tensor(a)
    captured = a.data.copy()  # forward capture of the activation
    out_data = np.log(captured)

    def _bw(g: np.ndarray) -> None:
        _accumulate(a, g / captured)

    return _result(out_data, (a,), _bw)


def sqrt(a) -> Tensor:
    """Elementwise square root."""
    a = _ensure_tensor(a)
    out_data = np.sqrt(a.data)
    captured = out_data

    def _bw(g: np.ndarray) -> None:
        _accumulate(a, g * 0.5 / captured)

    return _result(out_data, (a,), _bw)


# -- classification heads ------------------------------------------------------


def log_softmax_array(z: np.ndarray, axis: int = -1) -> np.ndarray:
    """Log-softmax of a NumPy array along ``axis``: max-shift, then
    log-sum-exp.  The one kernel under :func:`log_softmax`,
    :func:`cross_entropy`, ``train.metrics.batch_nll`` and the pipeline's
    loss stage, so all four agree bit for bit."""
    zmax = z.max(axis=axis, keepdims=True)
    shifted = z - zmax
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    return shifted - lse


def log_softmax(a, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    a = _ensure_tensor(a)
    out_data = log_softmax_array(a.data, axis)
    probs = np.exp(out_data)  # forward capture

    def _bw(g: np.ndarray) -> None:
        _accumulate(a, g - probs * g.sum(axis=axis, keepdims=True))

    return _result(out_data, (a,), _bw)


def softmax(a, axis: int = -1) -> Tensor:
    """Softmax built on :func:`log_softmax` (numerically stable)."""
    return exp(log_softmax(a, axis=axis))


def cross_entropy(logits, labels, reduction: str = "mean") -> Tensor:
    """Fused softmax cross-entropy against integer class labels.

    Parameters
    ----------
    logits:
        ``(N, K)`` tensor of unnormalized scores.
    labels:
        ``(N,)`` integer array (NumPy, list, or integer Tensor data).
    reduction:
        ``"mean"`` (default) or ``"sum"``.
    """
    logits = _ensure_tensor(logits)
    if isinstance(labels, Tensor):
        labels = labels.data
    labels = np.asarray(labels).astype(np.int64).reshape(-1)
    z = logits.data
    if z.ndim != 2 or labels.shape[0] != z.shape[0]:
        raise ValueError(
            f"cross_entropy expects (N,K) logits and (N,) labels; "
            f"got {z.shape} and {labels.shape}"
        )
    if reduction not in ("mean", "sum"):
        raise ValueError(f"unknown reduction {reduction!r}")
    n = z.shape[0]
    log_probs = log_softmax_array(z, axis=1)
    nll = -log_probs[np.arange(n), labels]
    out_val = nll.mean() if reduction == "mean" else nll.sum()
    probs = np.exp(log_probs)  # forward capture

    def _bw(g: np.ndarray) -> None:
        scale = float(g) / n if reduction == "mean" else float(g)
        grad = probs.copy()
        grad[np.arange(n), labels] -= 1.0
        _accumulate(logits, grad * scale)

    return _result(np.asarray(out_val, dtype=z.dtype), (logits,), _bw)
