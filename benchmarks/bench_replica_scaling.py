"""Hybrid parallelism — replica-count vs wall-clock scaling.

Regenerates the ``hybrid_parallelism`` experiment (R data-parallel
pipeline replicas vs one pipeline at ``R*U``, with the bit-exactness
check for the synchronous schedules and the per-replica eq.-5 staleness
check for pb/1f1b), then times the scaling claim directly: a fixed
global update size ``G`` is trained by ``R`` process-runtime pipeline
replicas at per-replica update size ``G/R`` for ``R`` in 1, 2, 4.  By
the replica-parity contract every configuration computes the *identical*
trajectory (asserted bit-exactly on the losses), so the wall-clock
column isolates the cost/benefit of data-parallel scale-out.

Persists everything as ``results/BENCH_replicas.json``.

Honest-measurement note: R replicas each stream ``n/R`` samples, but
also spawn ``R`` times the worker processes and pay a chain all-reduce
per barrier — on a host without ``R * num_stages`` spare cores the
replicas time-slice and the speedup column can sit below 1.  The JSON
records ``cpu_count`` next to the measured ratios either way; no
speedup is asserted, only bit-exact equivalence.

Set ``REPRO_BENCH_SMOKE=1`` for a minutes-scale CI smoke version (fewer
repeats, shorter streams, R up to 2) that still exercises the reduce
plane and both parity checks.

Runs only under ``pytest -m bench`` (see ``benchmarks/conftest.py``).
"""

from __future__ import annotations

import os
import time
from functools import partial

import numpy as np
import pytest

from benchmarks.conftest import print_rows, run_and_save

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")


def _wall_seconds(build_model, X, Y, global_update: int, replicas: int,
                  repeats: int) -> tuple[float, object]:
    """Best-of-``repeats`` wall seconds for R replicas at per-replica
    update size ``global_update // replicas`` (fresh model each round so
    every configuration does identical numerical work)."""
    from repro.pipeline import ProcessPipelineRunner, ReplicatedPipelineRunner

    update = global_update // replicas
    best, best_stats = float("inf"), None
    for _ in range(repeats):
        model = build_model()
        if replicas == 1:
            runner = ProcessPipelineRunner(
                model, lr=0.01, momentum=0.9, mode="fill_drain",
                update_size=global_update, model_factory=build_model,
            )
        else:
            runner = ReplicatedPipelineRunner(
                model, lr=0.01, momentum=0.9, mode="fill_drain",
                update_size=update, replicas=replicas,
                model_factory=build_model,
            )
        t0 = time.perf_counter()
        stats = runner.train(X, Y)
        elapsed = time.perf_counter() - t0
        if elapsed < best:
            best, best_stats = elapsed, stats
    return best, best_stats


@pytest.mark.benchmark(group="replicas")
def test_replica_scaling(benchmark, store):
    # -- parity + staleness checks (the registry experiment) --------------
    result = run_and_save(benchmark, "hybrid_parallelism")
    print_rows("hybrid_parallelism", result)
    rows = {r["schedule"]: r for r in result["rows"]}
    assert set(rows) == {"pb", "fill_drain", "gpipe", "1f1b"}
    # synchronous schedules: R replicas at U must be bit-identical to
    # one pipeline at R*U (losses and final weights)
    assert rows["fill_drain"]["parity"] and rows["gpipe"]["parity"], (
        "replicated synchronous run diverged from the R*U simulator"
    )
    # asynchronous schedules: every replica obeys the eq.-5 ceiling
    assert rows["pb"]["staleness_ok"] and rows["1f1b"]["staleness_ok"], (
        "a replica exceeded the eq.-5 staleness ceiling"
    )

    # -- replica-count vs wall-clock on one fixed workload ----------------
    from repro.models.simple import small_cnn

    repeats = 1 if SMOKE else 3
    n = 48 if SMOKE else 192
    global_update = 8
    replica_counts = (1, 2) if SMOKE else (1, 2, 4)
    build_model = partial(small_cnn, num_classes=10, widths=(8, 16), seed=3)
    rng = np.random.default_rng(0)
    X = rng.normal(size=(n, 3, 8, 8))
    Y = rng.integers(0, 10, size=n)

    cpu_count = os.cpu_count() or 1
    scaling = []
    base_s = None
    base_losses = None
    for replicas in replica_counts:
        wall_s, stats = _wall_seconds(
            build_model, X, Y, global_update, replicas, repeats
        )
        if base_s is None:
            base_s = wall_s
            base_losses = np.asarray(stats.losses).copy()
        losses_equal = bool(
            np.array_equal(base_losses, np.asarray(stats.losses))
        )
        row = {
            "replicas": replicas,
            "update_size": global_update // replicas,
            "global_update": global_update,
            "samples": n,
            "wall_seconds": wall_s,
            "speedup_vs_1": base_s / wall_s,
            "losses_equal_r1": losses_equal,
            "mean_loss": float(stats.mean_loss),
            "mean_busy_fraction": stats.mean_busy_fraction,
        }
        scaling.append(row)
        print(
            f"\n[replicas] R={replicas} (U={row['update_size']}): "
            f"{wall_s*1e3:.0f} ms ({row['speedup_vs_1']:.2f}x vs R=1, "
            f"{cpu_count} cpu), losses_equal={losses_equal}"
        )
        # the contract: every replica count computes the identical
        # trajectory — bit-exact losses against the R=1 run
        assert losses_equal, (
            f"R={replicas} losses diverged from the single-pipeline run"
        )
        assert stats.samples == n

    store.save(
        "BENCH_replicas",
        {
            "parity_rows": result["rows"],
            "scaling": scaling,
            "cpu_count": cpu_count,
            "smoke": SMOKE,
            "meta": {
                "paper": "Hybrid parallelism: data-parallel replication "
                "of the fine-grained pipeline.  R replicas at update "
                "size G/R chain-reduce per-packet gradient segments in "
                "rank order, reproducing one pipeline at update size G "
                "bit-for-bit (losses_equal_r1 must be True for every "
                "R); wall-clock vs replica count is recorded honestly "
                "against cpu_count.",
            },
        },
    )
