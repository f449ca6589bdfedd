"""Neural-network layers built on :mod:`repro.tensor`.

Torch-like ``Module``/``Parameter`` system with the layers the paper's
models need: ``Conv2d``, ``Linear``, ``GroupNorm`` (the paper's batch-free
normalizer), ``BatchNorm2d`` (for the BN-vs-GN delay-tolerance extension
experiments), ReLU/pooling/dropout, and loss modules.
"""

from repro.nn.module import Module, Parameter, Sequential, ModuleList
from repro.nn.linear import Linear, Flatten
from repro.nn.conv import Conv2d
from repro.nn.norm import GroupNorm, BatchNorm2d, group_norm_for
from repro.nn.activation import ReLU
from repro.nn.pooling import MaxPool2d, AvgPool2d, GlobalAvgPool
from repro.nn.dropout import Dropout
from repro.nn.loss import CrossEntropyLoss, MSELoss
from repro.nn import init

__all__ = [
    "Module",
    "Parameter",
    "Sequential",
    "ModuleList",
    "Linear",
    "Flatten",
    "Conv2d",
    "GroupNorm",
    "BatchNorm2d",
    "group_norm_for",
    "ReLU",
    "MaxPool2d",
    "AvgPool2d",
    "GlobalAvgPool",
    "Dropout",
    "CrossEntropyLoss",
    "MSELoss",
    "init",
]
