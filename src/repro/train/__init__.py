"""Training harness: the flat train step, batch trainer, pipelined
trainer, metrics."""

from repro.train.metrics import accuracy, evaluate, TrainingHistory
from repro.train.trainer import Trainer, train_step
from repro.train.pb_trainer import PipelinedTrainer

__all__ = [
    "accuracy",
    "evaluate",
    "TrainingHistory",
    "Trainer",
    "train_step",
    "PipelinedTrainer",
]
