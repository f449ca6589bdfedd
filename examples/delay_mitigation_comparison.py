"""Compare delay mitigations with the Appendix-G.2 flat simulator.

Trains the same CNN with a constant gradient delay under every mitigation
the paper discusses — plain delayed SGDM, weight stashing, gradient
shrinking, SC_D, LWP_D (both forms), SpecTrain, and the combined method —
and tabulates final validation accuracy.

Run:  python examples/delay_mitigation_comparison.py
"""

from __future__ import annotations

import warnings

import numpy as np

from repro.core import DelayedSGDM, MitigationConfig
from repro.data import SyntheticCifar, iterate_steps
from repro.models import small_cnn
from repro.optim import HyperParams
from repro.train import evaluate, train_step
from repro.utils import format_table
from repro.utils.rng import derive_seed, new_rng

DELAY = 2  # in optimizer steps at batch 16 => 32 samples of staleness
STEPS = 160
BATCH = 16
REFERENCE = HyperParams(lr=0.5, momentum=0.9, batch_size=32, weight_decay=1e-4)


def run(mitigation: MitigationConfig, consistent: bool, delay: int, data) -> float:
    hp = REFERENCE.scaled_to(BATCH)
    model = small_cnn(num_classes=data.num_classes, widths=(8, 16), seed=3)
    opt = DelayedSGDM(
        model, lr=hp.lr, momentum=hp.momentum, weight_decay=hp.weight_decay,
        delay=delay, mitigation=mitigation, consistent=consistent,
    )
    rng = new_rng(derive_seed(0, "example", mitigation.name, consistent, delay))
    for xb, yb in iterate_steps(data.x_train, data.y_train, BATCH, STEPS, rng):
        train_step(opt, model, xb, yb)
    _, acc = evaluate(model, data.x_val, data.y_val)
    return acc


def main() -> None:
    warnings.filterwarnings("ignore", category=RuntimeWarning)
    data = SyntheticCifar(seed=0, image_size=8, train_size=512, val_size=256)

    configs = [
        ("no delay (reference)", MitigationConfig.none(), True, 0),
        ("delayed (consistent)", MitigationConfig.none(), True, DELAY),
        ("delayed (inconsistent)", MitigationConfig.none(), False, DELAY),
        ("weight stashing", MitigationConfig.stashing(), False, DELAY),
        ("gradient shrinking", MitigationConfig.gradient_shrinking(), True, DELAY),
        ("SC_D", MitigationConfig.sc(), True, DELAY),
        ("LWP_D (velocity)", MitigationConfig.lwp("v"), True, DELAY),
        ("LWP_D (weight diff)", MitigationConfig.lwp("w"), True, DELAY),
        ("SpecTrain", MitigationConfig.spectrain(), False, DELAY),
        ("LWPv_D + SC_D", MitigationConfig.lwp_plus_sc(), True, DELAY),
    ]
    rows = []
    for label, mit, consistent, delay in configs:
        acc = run(mit, consistent, delay, data)
        rows.append({"method": label, "delay": delay, "val_acc": acc})
        print(f"  {label:24s} -> {acc:.3f}")
    print()
    print(format_table(rows, title=f"Delay mitigation comparison "
                                   f"(D={DELAY}, {STEPS} steps)"))


if __name__ == "__main__":
    np.seterr(all="ignore")
    main()
