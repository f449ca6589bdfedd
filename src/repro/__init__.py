"""repro — reproduction of "Pipelined Backpropagation at Scale" (MLSYS 2021).

This package implements, from scratch on NumPy:

* a reverse-mode autodiff engine and NN layer library (:mod:`repro.tensor`,
  :mod:`repro.nn`, :mod:`repro.models`),
* the paper's delay-mitigation methods — Spike Compensation and Linear
  Weight Prediction — plus baselines (:mod:`repro.core`),
* a cycle-accurate fine-grained pipelined-backpropagation executor and the
  pipeline timing/utilization model (:mod:`repro.pipeline`),
* the convex-quadratic staleness analysis (:mod:`repro.quadratic`),
* synthetic datasets, the flat train step and evaluation, and one
  experiment entry point per paper table/figure (:mod:`repro.data`,
  :mod:`repro.train`, :mod:`repro.experiments`).

Quickstart::

    from repro.core import MitigationConfig
    from repro.data import ResumableSampleStream, SyntheticCifar
    from repro.models import resnet_tiny
    from repro.optim import HE_CIFAR_REFERENCE
    from repro.pipeline import make_pipeline_engine
    from repro.train import evaluate
    from repro.utils import new_rng

    data = SyntheticCifar(seed=0)
    model = resnet_tiny(num_classes=data.num_classes)
    hp = HE_CIFAR_REFERENCE.scaled_to(1)  # eq. 9 at pb's update size
    engine = make_pipeline_engine("sim", model, lr=hp.lr,
                                  momentum=hp.momentum,
                                  weight_decay=hp.weight_decay,
                                  mitigation=MitigationConfig.lwp_plus_sc())
    stream = ResumableSampleStream(data.x_train, data.y_train, 1, new_rng(0))
    engine.train(*stream.next_chunk(2000))
    val_loss, val_acc = evaluate(model, data.x_val, data.y_val)
"""

from repro.version import __version__

from repro import config

__all__ = ["__version__", "config"]
