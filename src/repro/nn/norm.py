"""Normalization layers.

The paper trains at per-worker batch size one, which rules out Batch
Normalization; Group Normalization (Wu & He 2018) is used instead with an
initial group *size* of two (channels per group).  ``BatchNorm2d`` is kept
for the Appendix-B-style delay experiments and for the BN-vs-GN
delay-tolerance comparison mentioned in the paper's discussion.

``GroupNorm`` — on every stage's hot path at batch size one — is a single
graph node (:func:`repro.tensor.ops_norm.group_norm`), pinned bit-for-bit
against the composite of autodiff primitives it replaced
(``tests/test_fused_kernels.py``).  ``BatchNorm2d`` stays such a composite,
its backward correct by construction (and verified by grad-checks).
"""

from __future__ import annotations

import numpy as np

from repro.nn import init
from repro.nn.module import Module, Parameter
from repro.tensor.ops_norm import group_norm
from repro.tensor.tensor import Tensor, sqrt


class GroupNorm(Module):
    """Group normalization over an NCHW tensor.

    Statistics are computed per sample over each group of channels, making
    the layer independent of batch size — the property PB training at
    update-size one requires.
    """

    def __init__(
        self,
        num_groups: int,
        num_channels: int,
        eps: float = 1e-5,
        affine: bool = True,
    ):
        super().__init__()
        if num_channels % num_groups:
            raise ValueError(
                f"channels ({num_channels}) must divide into groups ({num_groups})"
            )
        self.num_groups = num_groups
        self.num_channels = num_channels
        self.eps = eps
        self.affine = affine
        if affine:
            self.weight = Parameter(init.ones((1, num_channels, 1, 1)))
            self.bias = Parameter(init.zeros((1, num_channels, 1, 1)))
        else:
            self.weight = None
            self.bias = None

    def forward(self, x: Tensor) -> Tensor:
        n, c, h, w = x.shape
        if c != self.num_channels:
            raise ValueError(f"expected {self.num_channels} channels, got {c}")
        return group_norm(x, self.num_groups, self.eps, self.weight, self.bias)

    def __repr__(self) -> str:
        return (
            f"GroupNorm(groups={self.num_groups}, channels={self.num_channels})"
        )


def group_norm_for(channels: int, group_size: int = 2) -> GroupNorm:
    """GroupNorm with a fixed *channels-per-group* size (paper: size two).

    Falls back to one group when ``channels < group_size`` and reduces the
    group size until it divides ``channels``.
    """
    size = min(group_size, channels)
    while channels % size:
        size -= 1
    return GroupNorm(num_groups=channels // size, num_channels=channels)


class BatchNorm2d(Module):
    """Batch normalization over (N, H, W) per channel with running stats."""

    def __init__(
        self,
        num_channels: int,
        eps: float = 1e-5,
        momentum: float = 0.1,
        affine: bool = True,
    ):
        super().__init__()
        self.num_channels = num_channels
        self.eps = eps
        self.momentum = momentum
        self.affine = affine
        if affine:
            self.weight = Parameter(init.ones((1, num_channels, 1, 1)))
            self.bias = Parameter(init.zeros((1, num_channels, 1, 1)))
        else:
            self.weight = None
            self.bias = None
        self.register_buffer("running_mean", np.zeros(num_channels))
        self.register_buffer("running_var", np.ones(num_channels))

    def forward(self, x: Tensor) -> Tensor:
        n, c, h, w = x.shape
        if c != self.num_channels:
            raise ValueError(f"expected {self.num_channels} channels, got {c}")
        if self.training:
            mu = x.mean(axis=(0, 2, 3), keepdims=True)
            centered = x - mu
            var = (centered * centered).mean(axis=(0, 2, 3), keepdims=True)
            # update running stats outside the graph
            m = self.momentum
            count = n * h * w
            unbiased = var.data.reshape(-1) * count / max(count - 1, 1)
            self.set_buffer(
                "running_mean",
                (1 - m) * self.running_mean + m * mu.data.reshape(-1),
            )
            self.set_buffer(
                "running_var", (1 - m) * self.running_var + m * unbiased
            )
            normalized = centered / sqrt(var + self.eps)
        else:
            mu = self.running_mean.reshape(1, c, 1, 1)
            var = self.running_var.reshape(1, c, 1, 1)
            normalized = (x - mu) / np.sqrt(var + self.eps)
        if self.affine:
            normalized = normalized * self.weight + self.bias
        return normalized

    def __repr__(self) -> str:
        return f"BatchNorm2d(channels={self.num_channels})"
