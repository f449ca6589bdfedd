"""Quickstart: train a small CNN with fine-grained pipelined backprop.

Builds a stage-graph model, scales a reference batch's hyperparameters
to update size one (eq. 9), streams samples through the cycle-accurate
pipeline executor at batch size one (the paper's setting) and evaluates
after every epoch, comparing plain PB against PB with the combined
mitigation (LWPv_D + SC_D).

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import numpy as np

from repro.core import MitigationConfig
from repro.data import ResumableSampleStream, SyntheticCifar
from repro.models import resnet_tiny
from repro.optim import HyperParams
from repro.pipeline import make_pipeline_engine
from repro.train import evaluate
from repro.utils import format_table
from repro.utils.rng import derive_seed, new_rng

# A hotter reference than He et al. so a seconds-long demo shows movement;
# eq. 9 scales it to the engine's update size (one, for pb).
REFERENCE = HyperParams(lr=0.5, momentum=0.9, batch_size=32, weight_decay=1e-4)
EPOCHS = 3


def main() -> None:
    # A CIFAR-like synthetic task (no network access needed) and a small
    # pre-activation ResNet expressed as pipeline stages.
    data = SyntheticCifar(seed=0, image_size=8, train_size=512, val_size=256)
    print(data)

    model = resnet_tiny(num_classes=data.num_classes, widths=(4, 8, 16), seed=0)
    print(f"model: {model.name} with {model.num_stages} pipeline stages, "
          f"{model.num_parameters()} parameters")
    print(f"max gradient delay: {2 * (model.num_stages - 1)} samples\n")

    hp = REFERENCE.scaled_to(1)  # eq. 9 at pb's update size
    rows = []
    for mitigation in (MitigationConfig.none(), MitigationConfig.lwp_plus_sc()):
        m = resnet_tiny(num_classes=data.num_classes, widths=(4, 8, 16), seed=0)
        engine = make_pipeline_engine(
            "sim", m, lr=hp.lr, momentum=hp.momentum,
            weight_decay=hp.weight_decay, mitigation=mitigation, mode="pb",
        )
        print(f"training with {mitigation.name} "
              f"(lr={hp.lr:.2e}, m={hp.momentum:.5f}, "
              f"update size {engine.update_size})...")
        # the lazy shuffled stream: one epoch in memory at a time
        stream = ResumableSampleStream(
            data.x_train, data.y_train, EPOCHS,
            new_rng(derive_seed(0, "pb_trainer")),
        )
        val_accs = []
        for _ in range(EPOCHS):
            stats = engine.train(*stream.next_chunk(stream.samples_per_epoch))
            val_accs.append(evaluate(m, data.x_val, data.y_val)[1])
        rows.append(
            {
                "method": mitigation.name,
                "final_val_acc": val_accs[-1],
                "best_val_acc": max(val_accs),
                "train_loss": stats.mean_loss,
            }
        )

    print()
    print(format_table(rows, title="Pipelined backpropagation quickstart"))
    print("\n(PB+LWPv_D+SC_D mitigates the per-stage gradient staleness "
          "2(S-1-s) that plain PB suffers.)")


if __name__ == "__main__":
    np.seterr(all="ignore")
    main()
