"""Evaluation metrics and training-curve records."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.nn.module import Module
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
    was_training = getattr(model, "training", True)
    n = x.shape[0]
    if n == 0:
        return float("nan"), float("nan")
    model.eval()
    losses = []
    correct = 0
    with no_grad():
        for start in range(0, n, batch_size):
            xb = x[start : start + batch_size]
            yb = y[start : start + batch_size]
            logits = model(Tensor(xb)).data
            losses.append(float(batch_nll(logits, yb).mean()) * len(yb))
            correct += int((logits.argmax(axis=1) == yb).sum())
    model.train(was_training)
    return float(np.sum(losses) / n), correct / n


@dataclass
class TrainingHistory:
    """Per-evaluation-point curves for one training run."""

    label: str = "run"
    samples_seen: list[int] = field(default_factory=list)
    train_loss: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    val_acc: list[float] = field(default_factory=list)

    def record(
        self,
        samples: int,
        train_loss: float,
        val_loss: float,
        val_acc: float,
    ) -> None:
        self.samples_seen.append(int(samples))
        self.train_loss.append(float(train_loss))
        self.val_loss.append(float(val_loss))
        self.val_acc.append(float(val_acc))

    @property
    def final_val_acc(self) -> float:
        return self.val_acc[-1] if self.val_acc else float("nan")

    @property
    def best_val_acc(self) -> float:
        return max(self.val_acc) if self.val_acc else float("nan")

    @property
    def final_train_loss(self) -> float:
        return self.train_loss[-1] if self.train_loss else float("nan")

    def as_dict(self) -> dict:
        return {
            "label": self.label,
            "samples_seen": list(self.samples_seen),
            "train_loss": list(self.train_loss),
            "val_loss": list(self.val_loss),
            "val_acc": list(self.val_acc),
        }
