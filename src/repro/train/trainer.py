"""Batch training for plain and delay-simulated optimization.

:func:`train_step` is the one flat "forward → loss → backward → step"
body, over either :class:`~repro.optim.sgd.SGDM` (reference runs) or
:class:`~repro.core.delayed_sgd.DelayedSGDM` (Appendix-G.2 staleness
studies); the experiment loops drive it over
:func:`~repro.data.loader.iterate_steps`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.delayed_sgd import DelayedSGDM
from repro.nn.module import Module
from repro.optim.sgd import SGDM
from repro.tensor.tensor import Tensor, cross_entropy


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

