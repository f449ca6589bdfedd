"""repro — reproduction of "Pipelined Backpropagation at Scale" (MLSYS 2021).

This package implements, from scratch on NumPy:

* a reverse-mode autodiff engine and NN layer library (:mod:`repro.tensor`,
  :mod:`repro.nn`, :mod:`repro.models`),
* the paper's delay-mitigation methods — Spike Compensation and Linear
  Weight Prediction — plus baselines (:mod:`repro.core`),
* a cycle-accurate fine-grained pipelined-backpropagation executor and the
  pipeline timing/utilization model (:mod:`repro.pipeline`),
* the convex-quadratic staleness analysis (:mod:`repro.quadratic`),
* synthetic datasets, trainers and one experiment entry point per paper
  table/figure (:mod:`repro.data`, :mod:`repro.train`,
  :mod:`repro.experiments`).

Quickstart::

    import repro
    from repro.data import SyntheticCifar
    from repro.models import resnet_tiny
    from repro.train import PipelinedTrainer
    from repro.core import MitigationConfig

    data = SyntheticCifar(seed=0)
    model = resnet_tiny(num_classes=data.num_classes)
    trainer = PipelinedTrainer(model, data,
                               mitigation=MitigationConfig.lwp_plus_sc())
    trainer.train_samples(2000)
"""

from repro.version import __version__

from repro import config

__all__ = ["__version__", "config"]
