"""The eq.-12 update kernel, optimizers, LR schedules, and the paper's
batch-size scaling rules.

:func:`sgdm_update` is the single definition of the momentum update
(plain, Nesterov and spike-compensated alike); :class:`SGDM`,
:class:`~repro.core.delayed_sgd.DelayedSGDM` and
:class:`~repro.pipeline.stage.PipelineStage` all step through it and
differ only in where the gradient's delay comes from (none / a history
buffer / the pipeline).
"""

from repro.optim.sgd import SGDM, sgdm_update
from repro.optim.scaling import (
    HyperParams,
    HE_CIFAR_REFERENCE,
    HE_IMAGENET_REFERENCE,
    scale_for_batch_size,
)
from repro.optim.lr_schedule import (
    ConstantSchedule,
    StepSchedule,
    WarmupSchedule,
)

__all__ = [
    "SGDM",
    "sgdm_update",
    "HyperParams",
    "HE_CIFAR_REFERENCE",
    "HE_IMAGENET_REFERENCE",
    "scale_for_batch_size",
    "ConstantSchedule",
    "StepSchedule",
    "WarmupSchedule",
]
