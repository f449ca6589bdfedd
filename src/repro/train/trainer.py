"""Batch training for plain and delay-simulated optimization.

:func:`train_step` is the one flat "forward → loss → backward → step"
body, over either :class:`~repro.optim.sgd.SGDM` (reference runs) or
:class:`~repro.core.delayed_sgd.DelayedSGDM` (Appendix-G.2 staleness
studies); :class:`Trainer` drives it over a dataset epoch by epoch with
optional augmentation and LR scheduling, and the experiment loops drive
it over :func:`~repro.data.loader.iterate_steps`.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.core.delayed_sgd import DelayedSGDM
from repro.data.loader import iterate_batches
from repro.data.synthetic import Dataset
from repro.nn.module import Module
from repro.optim.sgd import SGDM
from repro.tensor.tensor import Tensor, cross_entropy
from repro.train.metrics import TrainingHistory, evaluate
from repro.utils.rng import derive_seed, new_rng


def train_step(
    optimizer: SGDM | DelayedSGDM,
    model: Module,
    x: np.ndarray | Tensor,
    y: np.ndarray | Sequence[int],
) -> float:
    """One full optimizer step on a (batched) sample; returns the loss.

    The only place that knows the two optimizers' protocols differ: a
    :class:`DelayedSGDM` loads stale (or predicted) weights before the
    forward pass and picks the backward-pass weights after it.
    """
    delayed = isinstance(optimizer, DelayedSGDM)
    if delayed:
        optimizer.begin_step()
        optimizer.load_forward_weights()
    loss = cross_entropy(model(x if isinstance(x, Tensor) else Tensor(x)), y)
    if delayed:
        optimizer.prepare_backward()
    optimizer.zero_grad()
    loss.backward()
    optimizer.step()
    return float(loss.data)


class Trainer:
    """Epoch-based training of a model on a dataset.

    Parameters
    ----------
    model, optimizer, dataset:
        The optimizer may be :class:`SGDM` or :class:`DelayedSGDM`; the
        trainer adapts the step protocol automatically.
    batch_size:
        Update size per step.
    augment:
        Optional callable ``(batch, rng) -> batch``.
    lr_schedule:
        Optional callable ``step -> lr`` applied before every update.
    """

    def __init__(
        self,
        model,
        optimizer: SGDM | DelayedSGDM,
        dataset: Dataset,
        batch_size: int = 32,
        augment=None,
        lr_schedule: Callable[[int], float] | None = None,
        seed: int = 0,
        label: str = "run",
    ):
        self.model = model
        self.optimizer = optimizer
        self.dataset = dataset
        self.batch_size = int(batch_size)
        self.augment = augment
        self.lr_schedule = lr_schedule
        self.rng = new_rng(derive_seed(seed, "trainer", label))
        self.history = TrainingHistory(label=label)
        self.step_count = 0
        self.samples_seen = 0

    def _train_step(self, xb: np.ndarray, yb: np.ndarray) -> float:
        if self.lr_schedule is not None:
            self.optimizer.lr = self.lr_schedule(self.step_count)
        loss = train_step(self.optimizer, self.model, xb, yb)
        self.step_count += 1
        self.samples_seen += len(yb)
        return loss

    def train_epochs(
        self, epochs: int, eval_every: int = 1
    ) -> TrainingHistory:
        """Run ``epochs`` passes; evaluate every ``eval_every`` epochs.

        ``eval_every`` must be >= 1 (1 evaluates after every epoch; the
        final epoch is always evaluated regardless).  There is no
        "never evaluate" setting — pass a value larger than ``epochs``
        to get only the final evaluation.
        """
        if eval_every < 1:
            raise ValueError(
                f"eval_every must be >= 1, got {eval_every} (use a value "
                "larger than epochs to evaluate only at the end)"
            )
        ds = self.dataset
        for epoch in range(int(epochs)):
            self.model.train()
            losses = []
            for xb, yb in iterate_batches(
                ds.x_train,
                ds.y_train,
                self.batch_size,
                rng=self.rng,
                augment=self.augment,
            ):
                losses.append(self._train_step(xb, yb))
            if (epoch + 1) % eval_every == 0 or epoch == epochs - 1:
                val_loss, val_acc = evaluate(self.model, ds.x_val, ds.y_val)
                self.history.record(
                    self.samples_seen,
                    float(np.mean(losses)) if losses else float("nan"),
                    val_loss,
                    val_acc,
                )
        return self.history
