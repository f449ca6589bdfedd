"""ASGD-style random-staleness simulation (Appendix G.2's closing remark).

The delay simulator accepts a random delay profile modelling asynchronous
SGD, where the master-worker round-trip makes gradient age a random
variable.  This example compares constant vs random delay of the same
mean, with and without spike compensation.

Run:  python examples/asgd_simulation.py
"""

from __future__ import annotations

import warnings

import numpy as np

from repro.core import (
    ConstantDelay,
    DelayedSGDM,
    MitigationConfig,
    RandomDelay,
)
from repro.data import SyntheticCifar, iterate_steps
from repro.models import small_cnn
from repro.optim import HyperParams
from repro.train import evaluate, train_step
from repro.utils import format_table
from repro.utils.rng import derive_seed, new_rng

STEPS = 160
BATCH = 16
REFERENCE = HyperParams(lr=0.5, momentum=0.9, batch_size=32, weight_decay=1e-4)


def run(profile, mitigation, data, tag) -> float:
    hp = REFERENCE.scaled_to(BATCH)
    model = small_cnn(num_classes=data.num_classes, widths=(8, 16), seed=3)
    opt = DelayedSGDM(
        model, lr=hp.lr, momentum=hp.momentum, weight_decay=hp.weight_decay,
        delay=profile, mitigation=mitigation, consistent=True,
    )
    rng = new_rng(derive_seed(0, "asgd", tag))
    for xb, yb in iterate_steps(data.x_train, data.y_train, BATCH, STEPS, rng):
        train_step(opt, model, xb, yb)
    _, acc = evaluate(model, data.x_val, data.y_val)
    return acc


def main() -> None:
    warnings.filterwarnings("ignore", category=RuntimeWarning)
    data = SyntheticCifar(seed=0, image_size=8, train_size=512, val_size=256)

    rows = []
    for label, profile_fn in [
        ("no delay", lambda: ConstantDelay(0)),
        ("constant D=2", lambda: ConstantDelay(2)),
        ("random D~U[0,4] (ASGD)", lambda: RandomDelay(0, 4, seed=9)),
    ]:
        for mname, mit in [
            ("plain", MitigationConfig.none()),
            ("SC_D", MitigationConfig.sc()),
        ]:
            acc = run(profile_fn(), mit, data, f"{label}-{mname}")
            rows.append({"staleness": label, "method": mname, "val_acc": acc})
            print(f"  {label:26s} {mname:6s} -> {acc:.3f}")
    print()
    print(format_table(rows, title="Random (ASGD) vs constant staleness"))
    print("\nNote: SC_D resolves its coefficients from each step's delay, "
          "so it adapts to the random profile automatically.")


if __name__ == "__main__":
    np.seterr(all="ignore")
    main()
