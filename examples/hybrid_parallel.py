"""Hybrid parallelism: data-parallel replicas of a pipelined model.

Trains the same model/stream three ways and shows the replica-parity
contract from ``tests/test_replica_parity.py`` live:

1. one discrete-time pipeline at global update size ``R*U`` (the
   reference trajectory);
2. ``R`` process-runtime pipeline replicas at per-replica update size
   ``U`` — disjoint block-cyclic shards, gradients chain-reduced across
   replicas at every barrier.  Bit-identical to (1);
3. a replicated training run whose hyperparameters are the paper's
   eq.-9 scaling of a reference batch to the engine's *effective*
   update size ``runner.update_size == R*U``.

Run:  PYTHONPATH=src python examples/hybrid_parallel.py
"""

from __future__ import annotations

from functools import partial

import numpy as np

from repro.data import ResumableSampleStream, SyntheticCifar
from repro.models import small_cnn
from repro.optim import HE_CIFAR_REFERENCE
from repro.pipeline import (
    PipelineExecutor,
    ReplicatedPipelineRunner,
    make_pipeline_engine,
)
from repro.train import evaluate
from repro.utils import format_table
from repro.utils.rng import derive_seed, new_rng

REPLICAS = 2
UPDATE = 4          # per-replica update size; global update = REPLICAS*UPDATE
SAMPLES = 64
LR, MOMENTUM, WEIGHT_DECAY = 0.05, 0.9, 1e-4


def main() -> None:
    data = SyntheticCifar(seed=0, image_size=8, train_size=128, val_size=64)
    factory = partial(small_cnn, num_classes=data.num_classes,
                      widths=(8, 16), seed=11)
    rng = np.random.default_rng(42)
    order = rng.permutation(data.x_train.shape[0])[:SAMPLES]
    X, Y = data.x_train[order], data.y_train[order]

    # 1. the reference: one pipeline, one big update of R*U samples
    ref_model = factory()
    ref = PipelineExecutor(
        ref_model, lr=LR, momentum=MOMENTUM, weight_decay=WEIGHT_DECAY,
        mode="fill_drain", update_size=REPLICAS * UPDATE,
    ).train(X, Y)

    # 2. R replicas at U: disjoint shards + chain reduce at each barrier
    rep_model = factory()
    runner = ReplicatedPipelineRunner(
        rep_model, lr=LR, momentum=MOMENTUM, weight_decay=WEIGHT_DECAY,
        mode="fill_drain", update_size=UPDATE, replicas=REPLICAS,
        model_factory=factory,
    )
    rep = runner.train(X, Y)

    losses_equal = bool(np.array_equal(ref.losses, rep.losses))
    weights_equal = all(
        np.array_equal(a.data, b.data)
        for a, b in zip(ref_model.parameters(), rep_model.parameters())
    )
    print(format_table(
        [
            {
                "run": f"1 pipeline, update {REPLICAS * UPDATE}",
                "updates": ref.updates_per_stage[0],
                "mean_loss": ref.mean_loss,
            },
            {
                "run": f"{REPLICAS} replicas, update {UPDATE}",
                "updates": rep.updates_per_stage[0],
                "mean_loss": rep.mean_loss,
            },
        ],
        title="Replica parity (fill_drain)",
    ))
    print(f"\nper-sample losses bit-identical: {losses_equal}")
    print(f"final weights bit-identical:     {weights_equal}")
    assert losses_equal and weights_equal, "replica parity violated"

    # 3. eq. 9 keys off the engine: synchronous replicas reduce into one
    #    update of R*U samples, so that is the size the reference scales to
    assert runner.update_size == REPLICAS * UPDATE
    hp = HE_CIFAR_REFERENCE.scaled_to(runner.update_size)
    model = factory()
    engine = make_pipeline_engine(
        "process", model, lr=hp.lr, momentum=hp.momentum,
        weight_decay=hp.weight_decay, mode="fill_drain", update_size=UPDATE,
        replicas=REPLICAS, model_factory=factory,
    )
    print(f"\n{REPLICAS} replicas at update {UPDATE}: eq.-9 scaled "
          f"lr={hp.lr:.4g} for effective update {runner.update_size} "
          f"(engine update_size={engine.update_size})")
    stream = ResumableSampleStream(
        data.x_train, data.y_train, 1, new_rng(derive_seed(0, "pb_trainer"))
    )
    engine.train(*stream.next_chunk(stream.samples_per_epoch))
    _, val_acc = evaluate(model, data.x_val, data.y_val)
    print(f"one epoch through {REPLICAS} replicas: val_acc={val_acc:.3f}")
    print("\n(pb/1f1b replicas skip the reduce and average weight deltas "
          "at the drain barrier instead — see README 'Hybrid "
          "parallelism'.)")


if __name__ == "__main__":
    np.seterr(all="ignore")
    main()
