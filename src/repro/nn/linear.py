"""Fully-connected layer and the Flatten helper."""

from __future__ import annotations

import numpy as np

from repro.nn import init
from repro.nn.module import Module, Parameter
from repro.tensor.tensor import Tensor, linear, matmul
from repro.utils.rng import new_rng


class Linear(Module):
    """Affine map ``y = x @ W + b`` with ``W`` of shape ``(in, out)``."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: np.random.Generator | None = None,
    ):
        super().__init__()
        rng = rng if rng is not None else new_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            init.uniform_fan_in((in_features, out_features), rng)
        )
        self.bias = Parameter(init.zeros((out_features,))) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        if self.bias is None:
            return matmul(x, self.weight)
        if x.ndim != 2:
            return matmul(x, self.weight) + self.bias
        return linear(x, self.weight, self.bias)

    def __repr__(self) -> str:
        return (
            f"Linear(in={self.in_features}, out={self.out_features}, "
            f"bias={self.bias is not None})"
        )


class Flatten(Module):
    """Flatten all dims after the batch dim (NCHW -> N,(C*H*W))."""

    def forward(self, x: Tensor) -> Tensor:
        return x.flatten(start_dim=1)
