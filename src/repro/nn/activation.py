"""Activation modules (thin wrappers over tensor ops)."""

from __future__ import annotations

from repro.nn.module import Module
from repro.tensor.tensor import Tensor, relu


class ReLU(Module):
    """Rectified linear unit layer."""
    def forward(self, x: Tensor) -> Tensor:
        return relu(x)

