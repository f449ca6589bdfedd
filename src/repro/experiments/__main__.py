"""CLI: run a paper experiment and print its result.

Usage::

    python -m repro.experiments                 # list experiments
    python -m repro.experiments fig05           # run one (bench scale)
    python -m repro.experiments table1 --scale paper
    python -m repro.experiments fig08 --save    # also write results/<id>.json
    python -m repro.experiments schedule_comparison --schedule gpipe
    python -m repro.experiments schedule_comparison --runtime process
"""

from __future__ import annotations

import argparse
import sys
import warnings

import numpy as np

from repro.experiments import EXPERIMENTS, get_scale, run_experiment
from repro.pipeline.schedule import SCHEDULE_NAMES
from repro.utils import ResultStore, format_table
from repro.utils.render import format_series


def _print_payload(exp_id: str, payload: dict) -> None:
    if "rows" in payload:
        print(format_table(payload["rows"], title=f"[{exp_id}]"))
    if "series" in payload and isinstance(payload["series"], dict):
        xkey = next(
            (k for k in ("kappa", "delay", "delays", "momentum") if k in payload),
            None,
        )
        if xkey is not None:
            print(
                format_series(
                    payload[xkey], payload["series"], x_name=xkey,
                    floatfmt="{:.4g}",
                )
            )
    meta = payload.get("meta", {})
    if "paper" in meta:
        print(f"\npaper: {meta['paper']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Run one of the paper's table/figure experiments.",
    )
    parser.add_argument("experiment", nargs="?", help="experiment id")
    parser.add_argument(
        "--scale", choices=["bench", "paper"], default=None,
        help="override REPRO_SCALE",
    )
    parser.add_argument(
        "--schedule", choices=list(SCHEDULE_NAMES), default=None,
        help="restrict a schedule-aware experiment (e.g. "
        "schedule_comparison) to one pipeline schedule",
    )
    parser.add_argument(
        "--runtime", choices=["sim", "threaded", "process"], default=None,
        help="pipeline engine for runtime-aware experiments (e.g. "
        "schedule_comparison): the discrete-time simulator (sim), the "
        "concurrent multi-worker thread runtime (threaded, free-running) "
        "or the process-per-stage runtime with shared-memory transport "
        "(process, free-running)",
    )
    parser.add_argument(
        "--save", action="store_true", help="persist to results/<id>.json"
    )
    args = parser.parse_args(argv)

    if not args.experiment:
        rows = [
            {"id": exp_id, "description": desc}
            for exp_id, (_, desc) in sorted(EXPERIMENTS.items())
        ]
        print(format_table(rows, title="Available experiments"))
        return 0

    warnings.filterwarnings("ignore", category=RuntimeWarning)
    np.seterr(all="ignore")
    scale = get_scale(args.scale) if args.scale else None
    overrides = {
        name: getattr(args, name)
        for name in ("schedule", "runtime")
        if getattr(args, name) is not None
    }
    payload = run_experiment(args.experiment, scale, **overrides)
    _print_payload(args.experiment, payload)
    if args.save:
        path = ResultStore().save(args.experiment, payload)
        print(f"\nsaved: {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
