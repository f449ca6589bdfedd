"""The paper's contribution: delay mitigation for pipelined backpropagation.

The arithmetic lives in two places and nowhere else: the eq.-12 update in
:func:`repro.optim.sgd.sgdm_update`, and the eq.-18/19 forward-time
prediction in :meth:`PredictionConfig.predict`.  This package supplies
their *arguments*:

* :mod:`~repro.core.compensation` — the Spike Compensation coefficients
  ``(a, b)`` of eq. 12 (SC_D default, eq. 14).
* :mod:`~repro.core.prediction` — Linear Weight Prediction in velocity and
  weight-difference form (eqs. 18-19) and the horizons, including the
  SpecTrain-style extended one (Appendix C).
* :mod:`~repro.core.mitigation` — :class:`MitigationConfig`, bundling
  spike compensation, weight prediction, weight stashing, and the
  gradient-shrinking baseline into one declarative object with the paper's
  named presets.
* :mod:`~repro.core.staleness` — delay profiles (constant, per-parameter /
  per-stage, random ASGD-style).
* :mod:`~repro.core.delayed_sgd` — :class:`DelayedSGDM`, the Appendix-G.2
  delay simulator: the kernel driven with delays replayed from a history
  buffer (stale gradients, consistent or inconsistent weights, any
  mitigation) instead of arising in a pipeline.  Step it with
  :func:`repro.train.trainer.train_step`.
"""

from repro.core.compensation import SpikeConfig, spike_coefficients
from repro.core.prediction import (
    PredictionConfig,
    predict_velocity_form,
    predict_weight_diff_form,
)
from repro.core.mitigation import MitigationConfig
from repro.core.staleness import (
    ConstantDelay,
    PerParamDelay,
    RandomDelay,
    DelayProfile,
)
from repro.core.delayed_sgd import DelayedSGDM

__all__ = [
    "SpikeConfig",
    "spike_coefficients",
    "PredictionConfig",
    "predict_velocity_form",
    "predict_weight_diff_form",
    "MitigationConfig",
    "ConstantDelay",
    "PerParamDelay",
    "RandomDelay",
    "DelayProfile",
    "DelayedSGDM",
]
