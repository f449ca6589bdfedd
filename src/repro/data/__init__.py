"""Synthetic datasets and batching.

CIFAR-10/ImageNet are not available offline, so the experiments run on
seeded synthetic image-classification tasks with the same interface (see
DESIGN.md for why this preserves the paper's comparisons: every experiment
measures *relative* degradation/recovery between training methods, not
absolute accuracy).
"""

from repro.data.synthetic import (
    Dataset,
    make_synthetic,
    SyntheticCifar,
    SyntheticImageNet,
)
from repro.data.loader import (
    ResumableSampleStream,
    iterate_batches,
    iterate_steps,
    sample_stream,
    shard_positions,
)

__all__ = [
    "Dataset",
    "make_synthetic",
    "SyntheticCifar",
    "SyntheticImageNet",
    "ResumableSampleStream",
    "iterate_batches",
    "iterate_steps",
    "sample_stream",
    "shard_positions",
]
