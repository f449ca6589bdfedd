"""Model zoo: pre-activation ResNets, VGG, and small test networks.

Every model is expressed as a :class:`~repro.models.arch.StageGraphModel`
— a linear sequence of pipeline-stage definitions (compute stages, residual
sum nodes, structural softmax/loss stages).  The same object trains as an
ordinary module *and* partitions 1:1 into fine-grained pipeline stages,
reproducing the paper's Table 1 stage counts exactly.
"""

from repro.models.arch import (
    StageDef,
    StageGraphModel,
    PreActConvUnit,
)
from repro.models.resnet import (
    preact_resnet_cifar,
    preact_resnet50,
    resnet20,
    resnet32,
    resnet44,
    resnet56,
    resnet110,
    resnet_tiny,
    resnet50_tiny,
)
from repro.models.vgg import vgg11, vgg13, vgg16, vgg_tiny
from repro.models.simple import small_cnn, mlp
from repro.models.registry import build_model, MODEL_BUILDERS, PAPER_STAGE_COUNTS

__all__ = [
    "StageDef",
    "StageGraphModel",
    "PreActConvUnit",
    "preact_resnet_cifar",
    "preact_resnet50",
    "resnet20",
    "resnet32",
    "resnet44",
    "resnet56",
    "resnet110",
    "resnet_tiny",
    "resnet50_tiny",
    "vgg11",
    "vgg13",
    "vgg16",
    "vgg_tiny",
    "small_cnn",
    "mlp",
    "build_model",
    "MODEL_BUILDERS",
    "PAPER_STAGE_COUNTS",
]
