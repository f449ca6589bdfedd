"""Pipeline schedules, utilization and delay structure (Figures 1-2).

Renders the occupancy grids of all four schedules the unified engine
supports (``pb``, ``fill_drain``, ``gpipe``, ``1f1b``), runs each of them
through the cycle-accurate executor on one tiny model for a numeric
side-by-side, tabulates utilization for the paper's networks (eq. 1),
prints the per-stage delay law for a real stage-partitioned model, and
finishes with the concurrent multi-worker runtime (``--runtime
threaded``): lockstep bit-exactness vs the simulator, then a
free-running run with *measured* per-stage busy fractions.

Run:  python examples/pipeline_schedules.py
"""

from __future__ import annotations

import contextlib

import numpy as np

from repro.models import build_model, small_cnn, PAPER_STAGE_COUNTS
from repro.pipeline import (
    ConcurrentPipelineRunner,
    PipelineExecutor,
    SCHEDULE_NAMES,
    fill_drain_occupancy,
    fill_drain_utilization,
    gpipe_occupancy,
    make_schedule,
    one_f_one_b_occupancy,
    pb_occupancy,
    pb_utilization,
    render_occupancy,
    schedule_utilization,
    stage_delay_table,
    utilization_upper_bound,
)
from repro.pipeline import runtime
from repro.utils import format_table


def schedules() -> None:
    print("Fill-and-drain mini-batch SGD, 4 stages, batch 3, 2 batches")
    print("(F forward, B backward, X both, . idle):\n")
    occ = fill_drain_occupancy(num_stages=4, batch_size=3, num_batches=2)
    print(render_occupancy(occ))
    print(f"utilization: {schedule_utilization(occ):.3f}\n")

    print("Pipelined backpropagation, 4 stages, continuous stream:")
    occ = pb_occupancy(num_stages=4, num_samples=20)
    print(render_occupancy(occ))
    print(f"utilization over 20 samples: {schedule_utilization(occ):.3f} "
          "(approaches 1 as the stream grows)\n")


def schedule_zoo() -> None:
    """All four schedules side by side: timing grids, then numerics."""
    print("=" * 64)
    print("Schedule zoo — one engine, four schedules")
    print("=" * 64)

    print("\ngpipe, 4 stages, 3 micro-batches/update, 2 updates")
    print("(each cell is a vectorized micro-batch op, not one sample):")
    occ = gpipe_occupancy(num_stages=4, num_micro_batches=3, num_batches=2)
    print(render_occupancy(occ))
    print(f"slot utilization: {schedule_utilization(occ):.3f} "
          "(= fill/drain at micro-batch granularity)\n")

    print("1f1b, 4 stages, continuous stream (PB timing, PipeDream weight")
    print("stashing — the grid is identical to pb, the weights are not):")
    occ = one_f_one_b_occupancy(num_stages=4, num_samples=20)
    print(render_occupancy(occ))
    print()

    # numeric side-by-side through the cycle-accurate executor
    n, update_size, micro = 64, 8, 4
    rng = np.random.default_rng(0)
    X = rng.normal(size=(n, 3, 8, 8))
    Y = rng.integers(0, 10, size=n)
    rows = []
    for name in SCHEDULE_NAMES:
        sched = make_schedule(
            name, update_size=update_size, micro_batch_size=micro
        )
        model = small_cnn(num_classes=10, widths=(4, 8), seed=42)
        stats = PipelineExecutor(
            model, lr=0.02, momentum=0.9, schedule=sched
        ).train(X, Y)
        rows.append(
            {
                "schedule": name,
                "update_size": sched.update_size,
                "micro_batch": sched.micro_batch,
                "stashing": sched.stash_weights,
                "time_steps": stats.time_steps,
                "utilization": round(stats.utilization, 4),
                "mean_loss": round(stats.mean_loss, 4),
            }
        )
    print(format_table(
        rows,
        title=f"{n} samples through a small_cnn (same stream, same init)",
    ))
    print(
        "\npb/1f1b: per-gradient updates, continuous injection (high\n"
        "utilization; 1f1b additionally stashes forward weights so each\n"
        "sample's backward is consistent).  fill_drain/gpipe: synchronous\n"
        "averaged updates; gpipe moves micro-batches as single (B, ...)\n"
        "vectorized ops, finishing the same stream in fewer steps.\n"
    )


def utilization_table() -> None:
    rows = []
    for net, S in PAPER_STAGE_COUNTS.items():
        rows.append(
            {
                "net": net,
                "stages": S,
                "fill_drain@N=32": fill_drain_utilization(S, 32),
                "eq1_bound@N=32": utilization_upper_bound(S, 32),
                "PB (50k stream)": pb_utilization(S, 50_000),
            }
        )
    print(format_table(rows, title="Utilization by network (paper stage "
                                   "counts)"))
    print()


def delay_structure() -> None:
    model = build_model("rn20")
    rows = stage_delay_table(model)
    print(f"{model.name}: {model.num_stages} stages; per-stage gradient "
          "delay 2(S-1-s) in samples (first/last stages shown):")
    print(format_table(rows[:5] + rows[-5:]))


def _hex(losses) -> list[str]:
    return [float(v).hex() for v in losses]


@contextlib.contextmanager
def _usable_cpus(k: int):
    """Launches in this block see ``k`` usable CPUs."""
    real = runtime.usable_cpus
    runtime.usable_cpus = lambda: k
    try:
        yield
    finally:
        runtime.usable_cpus = real


def threaded_runtime() -> None:
    """The concurrent runtime: same schedules, real worker threads.

    ``--runtime threaded`` on the experiments CLI (in code,
    ``make_pipeline_engine("threaded", ...)``) swaps the discrete-time
    simulator for
    :class:`~repro.pipeline.runtime.ConcurrentPipelineRunner` — worker
    threads, packets through in-process channels.

    * **lockstep** (``lockstep=True``): the stages are cut into one
      contiguous group per usable CPU, and every worker runs its
      group's ops of the simulator's compiled plan in order, which
      makes the run bit-exact with the simulator for every schedule
      and every cut.  Use it whenever reproducibility matters
      (goldens, regression tests, paper-number regeneration).
      ``fill_drain``/``gpipe`` always run this way: they only update on
      a fully drained pipeline, so no timing could change them.
    * **free-running** (the default for ``--runtime threaded``): one
      worker per stage, each op run the moment its packet arrives.
      ``pb``/``1f1b`` trajectories then depend on thread timing
      (staleness is still bounded by eq. 5 — never worse than the
      model).  Use it to *measure* busy/idle wall-clock per stage
      rather than model it.
    """
    print("=" * 64)
    print("Concurrent runtime — lockstep parity, then measured busy time")
    print("=" * 64)
    n = 48
    rng = np.random.default_rng(0)
    X = rng.normal(size=(n, 3, 8, 8))
    Y = rng.integers(0, 10, size=n)

    sim_model = small_cnn(num_classes=10, widths=(4, 8), seed=42)
    sim = PipelineExecutor(
        sim_model, lr=0.02, momentum=0.9, mode="pb"
    ).train(X, Y)
    lock_model = small_cnn(num_classes=10, widths=(4, 8), seed=42)
    lock = ConcurrentPipelineRunner(
        lock_model, lr=0.02, momentum=0.9, mode="pb", lockstep=True
    ).train(X, Y)
    print(
        "\nlockstep vs simulator (pb): losses bit-identical ="
        f" {bool(np.array_equal(sim.losses, lock.losses))}"
        f" (groups {lock.control['groups']})"
    )
    # the group count K follows the CPUs a launch may use; pretend the
    # host has K of them to see that the cut cannot change a bit
    S = sim_model.num_stages
    for k in (1, 2, S):
        with _usable_cpus(k):
            grouped = ConcurrentPipelineRunner(
                small_cnn(num_classes=10, widths=(4, 8), seed=42), lr=0.02,
                momentum=0.9, mode="pb", lockstep=True,
            ).train(X, Y)
        same = _hex(grouped.losses) == _hex(sim.losses)
        assert same, f"K={k}: lockstep losses drifted from the simulator"
        print(
            f"lockstep at K={k} groups {grouped.control['groups']}: loss hex"
            f" matches the simulator = {same}"
        )

    free_model = small_cnn(num_classes=10, widths=(4, 8), seed=42)
    runner = ConcurrentPipelineRunner(
        free_model, lr=0.02, momentum=0.9, mode="pb", lockstep=False
    )
    stats = runner.train(X, Y)
    print(
        f"free-running (pb, {n} samples): wall {stats.wall_seconds*1e3:.1f} ms,"
        f" measured per-stage busy fractions below (modeled utilization"
        f" {stats.utilization:.3f}):"
    )
    print(format_table(stats.summary_rows()))

    # the process backend: same contract, stages in separate processes,
    # packets through shared-memory rings (zero-copy, no pickling).  The
    # factory keeps this portable: non-Linux hosts default to spawn,
    # whose workers rebuild their stage from it
    from functools import partial

    from repro.pipeline import ProcessPipelineRunner

    factory = partial(small_cnn, num_classes=10, widths=(4, 8), seed=42)
    proc = ProcessPipelineRunner(
        factory(), lr=0.02, momentum=0.9, mode="pb", lockstep=True,
        model_factory=factory,
    ).train(X, Y)
    print(
        "process backend, lockstep vs simulator (pb): losses "
        f"bit-identical = {bool(np.array_equal(sim.losses, proc.losses))}"
        f" (backend={proc.backend})"
    )
    print(
        "\nDeterminism caveats: free-running pb/1f1b losses and weights\n"
        "vary run to run (thread timing decides how fresh each forward's\n"
        "weights are, within the eq.-5 ceiling); fill_drain/gpipe stay\n"
        "exact.  Lockstep is always bit-exact with the simulator.\n"
    )


if __name__ == "__main__":
    schedules()
    schedule_zoo()
    utilization_table()
    delay_structure()
    threaded_runtime()
