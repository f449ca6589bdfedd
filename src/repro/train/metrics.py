"""Evaluation metrics: accuracy, per-sample loss, split evaluation."""

from __future__ import annotations

import numpy as np

from repro.nn.module import Module, modules_eval_mode
from repro.tensor.tensor import Tensor, log_softmax_array, no_grad


def accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Top-1 accuracy of an ``(N, K)`` logit array."""
    preds = np.asarray(logits).argmax(axis=1)
    return float((preds == np.asarray(labels)).mean())


def batch_nll(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Per-sample softmax cross-entropy of an ``(N, K)`` logit array.

    One NumPy pass over the kernel :func:`repro.tensor.tensor.cross_entropy`
    runs (:func:`~repro.tensor.tensor.log_softmax_array`, then a
    gather), so its values are bit-equal to what the Tensor-based loss
    computes on the same logits; the evaluation loop below relies on
    that to stay bit-exact with its pre-vectorization form (pinned in
    ``tests/test_train.py``).
    """
    z = np.asarray(logits)
    labels = np.asarray(labels).astype(np.int64).reshape(-1)
    log_probs = log_softmax_array(z, axis=1)
    return -log_probs[np.arange(z.shape[0]), labels]


def evaluate(
    model: Module,
    x: np.ndarray,
    y: np.ndarray,
    batch_size: int = 64,
) -> tuple[float, float]:
    """Mean loss and top-1 accuracy over a dataset split (eval mode).

    The split streams through the model in vectorized ``(B, ...)``
    batches of ``batch_size`` samples — one forward op and one fused
    loss pass per batch, never a per-sample loop (the per-sample form
    is ~the batch speedup slower).  The per-batch reduction
    (``mean * len`` summed, divided by ``n``) is kept bit-identical to
    the historical implementation so curves pinned before the
    vectorization still match hex for hex.

    An empty split returns ``(nan, nan)`` — the no-data answer — rather
    than dividing by zero; callers aggregating curves can then filter on
    finiteness instead of crashing on a degenerate val set.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    n = x.shape[0]
    if n == 0:
        return float("nan"), float("nan")
    losses = []
    correct = 0
    with modules_eval_mode([model]), no_grad():
        for start in range(0, n, batch_size):
            xb = x[start : start + batch_size]
            yb = y[start : start + batch_size]
            logits = model(Tensor(xb)).data
            losses.append(float(batch_nll(logits, yb).mean()) * len(yb))
            correct += int((logits.argmax(axis=1) == yb).sum())
    return float(np.sum(losses) / n), correct / n

