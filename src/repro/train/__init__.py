"""Training harness: the flat train step and the evaluation metrics.

Pipelined runs drive an engine directly
(:func:`repro.pipeline.make_pipeline_engine`; see ``examples/quickstart.py``).
"""

from repro.train.metrics import accuracy, evaluate
from repro.train.trainer import train_step

__all__ = [
    "accuracy",
    "evaluate",
    "train_step",
]
