"""Concurrent runtime parallelism — sim vs threaded vs process backends.

Regenerates the ``runtime_comparison`` experiment (simulator, threaded
lockstep/free, process lockstep/free per schedule, with both bit-exactness
checks), then times the headline claims on two multi-stage models:

* **free-running beats lockstep** within the threaded backend (no
  per-step scatter/gather barrier);
* **process beats threads** for free-running once real cores exist: the
  process backend's stages execute in separate interpreters, so NumPy
  work overlaps fully instead of serializing on the GIL, and packets
  cross stage boundaries through shared-memory rings (one memcpy, no
  pickling).

Persists everything as ``results/BENCH_runtime.json``.

Honest-measurement note: on a single-CPU host neither threads nor
processes can overlap compute, so the process backend only *pays* its
transport/fork overhead there — the JSON records ``cpu_count`` and the
measured ratio either way, and the hard process>threads assertion only
arms on hosts with enough cores to run the stages concurrently.

Set ``REPRO_BENCH_SMOKE=1`` to run a minutes-scale CI smoke version
(fewer repeats, shorter streams) that still exercises every backend and
both parity checks.

Runs only under ``pytest -m bench`` (see ``benchmarks/conftest.py``).
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from benchmarks.conftest import print_rows, run_and_save

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")


def _engine(backend: str):
    from repro.pipeline import ConcurrentPipelineRunner, ProcessPipelineRunner

    return {
        "threaded": ConcurrentPipelineRunner,
        "process": ProcessPipelineRunner,
    }[backend]


def _best_wall_seconds(
    build_model, n: int, shape: tuple, mode: str, backend: str,
    lockstep: bool, repeats: int, **kw,
) -> tuple[float, object]:
    """Best-of-``repeats`` wall seconds for a fresh model each round
    (min suppresses scheduler noise; each round re-trains from init so
    every configuration does identical numerical work)."""
    rng = np.random.default_rng(0)
    X = rng.normal(size=(n, *shape))
    Y = rng.integers(0, 10, size=n)
    if backend == "process":
        # spawn-safe on non-Linux hosts (build_model is a partial)
        kw = dict(kw, model_factory=build_model)
    best, best_stats = float("inf"), None
    for _ in range(repeats):
        model = build_model()
        runner = _engine(backend)(
            model, lr=0.01, momentum=0.9, mode=mode, lockstep=lockstep, **kw
        )
        t0 = time.perf_counter()
        stats = runner.train(X, Y)
        elapsed = time.perf_counter() - t0
        if elapsed < best:
            best, best_stats = elapsed, stats
    return best, best_stats


def _speedup_case(name: str, build_model, n: int, shape: tuple, mode: str,
                  repeats: int, **kw) -> dict:
    """Free-vs-lockstep within the threaded backend, plus the process
    backend (lockstep and free) on the same workload."""
    thr_lock_s, _ = _best_wall_seconds(
        build_model, n, shape, mode, "threaded", True, repeats, **kw
    )
    thr_free_s, thr_stats = _best_wall_seconds(
        build_model, n, shape, mode, "threaded", False, repeats, **kw
    )
    proc_lock_s, proc_lock_stats = _best_wall_seconds(
        build_model, n, shape, mode, "process", True, repeats, **kw
    )
    proc_free_s, proc_stats = _best_wall_seconds(
        build_model, n, shape, mode, "process", False, repeats, **kw
    )
    thr_rt, proc_rt = thr_stats, proc_stats
    return {
        "case": name,
        "num_stages": thr_rt.num_stages,
        "schedule": mode,
        "samples": n,
        "lockstep_seconds": thr_lock_s,
        "free_seconds": thr_free_s,
        "speedup": thr_lock_s / thr_free_s,
        "process_lockstep_seconds": proc_lock_s,
        "process_free_seconds": proc_free_s,
        "process_vs_threaded_free": thr_free_s / proc_free_s,
        "process_samples": int(proc_stats.samples),
        "process_mean_loss": float(proc_stats.mean_loss),
        "mean_busy_fraction": thr_rt.mean_busy_fraction,
        "process_mean_busy_fraction": proc_rt.mean_busy_fraction,
        "per_stage_busy_fraction": [
            thr_rt.busy_fraction(s) for s in range(thr_rt.num_stages)
        ],
        "process_per_stage_busy_fraction": [
            proc_rt.busy_fraction(s) for s in range(proc_rt.num_stages)
        ],
        # control-plane cost of the lockstep process run: the batched
        # step protocol's pipe traffic vs the modeled 2 msgs/worker/tick
        # (1 command + 1 ack) of a per-tick round-trip protocol
        "control": proc_lock_stats.control,
    }


@pytest.mark.benchmark(group="runtime")
def test_runtime_parallelism(benchmark, store):
    # -- parity + five-way engine comparison (the registry experiment) --
    result = run_and_save(benchmark, "runtime_comparison")
    print_rows("runtime_comparison", result)
    rows = {r["schedule"]: r for r in result["rows"]}
    assert set(rows) == {"pb", "fill_drain", "gpipe", "1f1b"}
    # the bit-exact contract: lockstep == simulator for every schedule,
    # for BOTH concurrent backends
    assert all(r["parity"] for r in rows.values()), (
        "lockstep threaded runtime diverged from the simulator"
    )
    assert all(r["proc_parity"] for r in rows.values()), (
        "lockstep process runtime diverged from the simulator"
    )

    # -- concurrency speedups on multi-stage models -----------------------
    from functools import partial

    from repro.models.simple import mlp, small_cnn

    repeats = 2 if SMOKE else 5
    n_mlp, n_cnn = (96, 32) if SMOKE else (256, 96)
    cases = [
        # 7 stages, matmul-heavy: the widest free-vs-lockstep margin
        _speedup_case(
            "mlp7_gpipe",
            partial(mlp, 192, 10, hidden=(256, 256, 256, 256), seed=3),
            n=n_mlp, shape=(3, 8, 8), mode="gpipe", repeats=repeats,
            update_size=32, micro_batch_size=16,
        ),
        # 5 stages, continuous pb injection
        _speedup_case(
            "cnn5_pb",
            partial(small_cnn, num_classes=10, widths=(32, 64), seed=3),
            n=n_cnn, shape=(3, 16, 16), mode="pb", repeats=repeats,
        ),
    ]
    cpu_count = os.cpu_count() or 1
    for case in cases:
        print(
            f"\n[runtime] {case['case']} ({case['num_stages']} stages, "
            f"{case['schedule']}): thr-lockstep "
            f"{case['lockstep_seconds']*1e3:.0f} ms, thr-free "
            f"{case['free_seconds']*1e3:.0f} ms ({case['speedup']:.2f}x), "
            f"proc-free {case['process_free_seconds']*1e3:.0f} ms "
            f"(proc/thr free {case['process_vs_threaded_free']:.2f}x, "
            f"{cpu_count} cpu)"
        )
        assert case["num_stages"] >= 4
        # the process backend must complete every workload correctly;
        # its wall-clock ratio is recorded honestly either way
        assert case["process_samples"] == case["samples"]
        assert case["process_mean_loss"] > 0.0  # CE losses are positive
        # control-plane: the batched lockstep protocol must beat the
        # modeled per-tick round-trip baseline (2 pipe msgs/worker/tick)
        control = case["control"]
        assert control is not None and control["protocol"] == "batched-step"
        print(
            f"[runtime]   control plane: {control['msgs_per_step']:.2f} "
            f"pipe msgs/step vs {control['baseline_msgs_per_step']} "
            f"baseline ({control['acks_received']} acks over "
            f"{control['time_steps']} steps, ack every "
            f"{control['ack_interval']})"
        )
        assert control["msgs_per_step"] < control["baseline_msgs_per_step"]
    if not SMOKE:
        # free-running beats lockstep wall-clock on a >=4-stage model.
        # The 7-stage matmul case carries the hard floor (observed
        # 1.19-1.54x on a single CPU); every case must at least not
        # regress.
        assert cases[0]["speedup"] >= 1.02, (
            f"free-running only {cases[0]['speedup']:.3f}x vs lockstep on "
            f"{cases[0]['case']} (floor 1.02x)"
        )
        assert max(c["speedup"] for c in cases) >= 1.05
    if cpu_count >= 4 and not SMOKE:
        # with real cores, escaping the GIL must win on a >=4-stage model
        assert max(c["process_vs_threaded_free"] for c in cases) >= 1.0, (
            "process backend slower than threads despite "
            f"{cpu_count} cores: "
            f"{[round(c['process_vs_threaded_free'], 3) for c in cases]}"
        )

    store.save(
        "BENCH_runtime",
        {
            "comparison_rows": result["rows"],
            "speedup_cases": cases,
            "cpu_count": cpu_count,
            "smoke": SMOKE,
            "meta": {
                "paper": "§2: pipelined backpropagation keeps every "
                "stage busy in wall-clock time.  Lockstep is the bit-"
                "exact contract (threads and processes); free-running "
                "is the performance mode — on one CPU the thread gap is "
                "barrier-sync savings, and only the process backend can "
                "turn spare cores into real compute overlap (its "
                "process_vs_threaded_free ratio is reported against "
                "cpu_count honestly).",
            },
        },
    )
