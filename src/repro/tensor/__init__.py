"""Reverse-mode autodiff on NumPy arrays.

Public surface:

* :class:`~repro.tensor.tensor.Tensor` — array with gradient tracking.
* :func:`~repro.tensor.tensor.no_grad` — context manager disabling graph
  construction.
* op functions (also exposed as :class:`Tensor` methods where natural):
  arithmetic, ``matmul``, reductions, shape ops, ``relu``, ``log_softmax``,
  ``cross_entropy``.
* :mod:`~repro.tensor.ops_conv` — ``conv2d``, ``max_pool2d``,
  ``avg_pool2d``.
* :mod:`~repro.tensor.ops_norm` — ``group_norm``, one graph node per layer
  (as is ``linear``), bit-identical to the chain of primitives it replaced.
* :mod:`~repro.tensor.grad_check` — central-difference gradient checking
  used throughout the test suite.

Design note (load-bearing for this reproduction): backward closures read the
*current* value of parent tensors wherever the math needs the parent's value
(e.g. the weight matrix in ``matmul``/``conv2d`` input-gradients), and
capture forward-time intermediates by value where the math needs
forward-time activations (e.g. ReLU masks, im2col buffers, normalization
statistics).  Mutating a parameter's ``.data`` between a forward and its
backward therefore reproduces exactly the weight-inconsistency semantics of
pipelined backpropagation without weight stashing (paper §2, Appendix G.2).

Gradient ownership: the first gradient to reach a tensor is *adopted* — it
becomes ``.grad`` without a copy, so several tensors may hold the same
array (an ``add`` hands one to both operands).  That is safe because every
later contribution is summed out-of-place (``t.grad = t.grad + g``) and
nothing under ``src/repro`` writes a ``.grad`` in place.  Two edges keep
the aliasing inside one backward walk: the root seed is copied (callers
recycle it — a pipeline worker hands in views of a ring slot it releases
as soon as the call returns), and a backward closure never hands a reused
scratch buffer to the graph — whatever it passes on is freshly allocated
or a compact view of something that is.  ``tests/test_fused_kernels.py``
pins all three.
"""

from repro.tensor.tensor import (
    Tensor,
    no_grad,
    grad_enabled,
    add,
    sub,
    mul,
    div,
    matmul,
    linear,
    relu,
    exp,
    log,
    sqrt,
    tanh,
    sigmoid,
    reshape,
    transpose,
    pad2d,
    log_softmax,
    cross_entropy,
    softmax,
)
from repro.tensor.ops_conv import (
    conv2d,
    max_pool2d,
    avg_pool2d,
    im2col,
    col2im,
)
from repro.tensor.ops_norm import group_norm
from repro.tensor.grad_check import numerical_grad, check_gradients

__all__ = [
    "Tensor",
    "no_grad",
    "grad_enabled",
    "add",
    "sub",
    "mul",
    "div",
    "matmul",
    "linear",
    "relu",
    "exp",
    "log",
    "sqrt",
    "tanh",
    "sigmoid",
    "reshape",
    "transpose",
    "pad2d",
    "log_softmax",
    "softmax",
    "cross_entropy",
    "conv2d",
    "max_pool2d",
    "avg_pool2d",
    "im2col",
    "col2im",
    "group_norm",
    "numerical_grad",
    "check_gradients",
]
