"""One workload in one fresh interpreter.

The parent (``cli.py``) starts this module with ``src`` on
``PYTHONPATH`` and the BLAS pools pinned to one thread (stage workers
are the parallelism; BLAS threads on top of them measure the
scheduler).  A fresh process isolates peak RSS and the process-global
grad mode.  The record goes to stdout as one JSON line; progress goes
to stderr.

Modes: ``--setup-only`` runs set-up and exits (the parent repeats it to
take a median); the default measures the end-to-end metrics untraced
(training on the simulator and the threaded runtime, the single server
on two backends);
``--trace`` runs the quarter-size layered pass that yields the per-layer
metrics (probes, every phase once with the span recorder on, and the
fleet).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time

import numpy as np

from repro.tensor import grad_enabled

from benchmarks.perf import phases
from benchmarks.perf.workloads import (
    E2E_RUNTIMES,
    E2E_SERVE_LOOPS,
    WORKLOADS,
)


def log(msg: str) -> None:
    print(f"[perf] {msg}", file=sys.stderr, flush=True)


def peak_rss_mib() -> float:
    """This process's peak plus the largest reaped worker's (Linux
    reports ``ru_maxrss`` in KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def environment() -> dict:
    blas = "unknown"
    try:
        from numpy.__config__ import CONFIG

        dep = CONFIG["Build Dependencies"]["blas"]
        blas = f"{dep.get('name')} {dep.get('version')}"
    except (ImportError, KeyError, TypeError):
        pass
    return {
        "cpu_count": os.cpu_count() or 1,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "machine": platform.machine(),
    }


def metric(value: float, unit: str, n: int | None = None, **extra) -> dict:
    out = {"value": float(value), "unit": unit}
    if n is not None:
        out["n"] = int(n)
    out.update(extra)
    return out


def from_summary(summary: dict, unit: str) -> dict:
    return metric(
        summary["value"], unit, summary["n"], q1=summary["q1"],
        median=summary["median"], q3=summary["q3"],
    )


def limited(name: str, summary: dict, limit_ms: float, failed: list) -> dict:
    """A latency metric with its limit; past it the run fails a check."""
    out = from_summary(summary, "ms")
    out["limit"] = limit_ms
    if not out["value"] <= limit_ms:
        failed.append(
            f"{name} {out['value']:.2f} ms is over its {limit_ms:g} ms limit"
        )
    return out


def end_to_end(inp: phases.Inputs) -> tuple[dict, list, int, int]:
    """The untraced pass: every end-to-end metric but ``setup_s``.

    ``PASSES`` round-robin passes over the timed phases; training
    engines live across passes (each pass trains on), servers are
    rebuilt per pass so no idle server shares the process with a
    measured one, and the process-backed one forks with no other
    thread alive."""
    share = 1.0 / phases.PASSES
    trainers = {rt: phases.TrainPhase(inp, rt) for rt in E2E_RUNTIMES}
    serve = {backend: [] for backend in E2E_SERVE_LOOPS}
    for p in range(phases.PASSES):
        for runtime, trainer in trainers.items():
            trainer.run(inp.pass_calls(runtime), turn=p)
        for backend, loops in E2E_SERVE_LOOPS.items():
            serve[backend].append(
                phases.serve_phase(inp, backend, share, turn=p, loops=loops)
            )
        log(f"pass {p + 1}/{phases.PASSES} done")

    metrics, failed = {}, []
    attempted = lost = 0
    train = {rt: trainer.result() for rt, trainer in trainers.items()}
    for runtime, phase in train.items():
        metrics[f"train_sps_{runtime}"] = from_summary(
            phase["sps"], "samples/s"
        )
        failed += phase["failed_checks"]
        attempted += phase["samples"]
        lost += phase["samples"] - sum(r.samples for r in phase["runs"])
        log(
            f"train[{runtime}] {phase['samples']} samples in "
            f"{sum(phase['walls']):.2f}s -> {phase['sps']['value']:.1f} sps"
        )
    failed += phases.cross_runtime_checks(inp, train)
    free = train["threaded"]
    n = free["samples"]
    metrics["train_loss_tail"] = metric(
        phases.loss_window(free, n // 4, n), "nats", n - n // 4
    )

    for backend, passes in serve.items():
        loops = phases.merge_loops(passes)
        if loops["rate"] is not None:
            metrics[f"serve_rps_{backend}"] = from_summary(
                loops["rate"], "req/s"
            )
        metrics[f"serve_p50_ms_{backend}"] = from_summary(loops["p50"], "ms")
        metrics[f"serve_p95_ms_{backend}"] = limited(
            f"serve_p95_ms_{backend}", loops["p95"], phases.SERVE_LIMIT_MS,
            failed,
        )
        failed += loops["failed_checks"]
        attempted += loops["attempted"]
        lost += loops["lost"]
        closed = (
            f"closed {loops['closed_n']} in {loops['closed_s']:.2f}s -> "
            f"{loops['rate']['value']:.0f} rps; "
            if loops["rate"] is not None
            else ""
        )
        log(
            f"serve[{backend}] {closed}open {loops['open_n']} @ "
            f"{inp.wl.serve.open_rate:.0f}/s in {loops['open_s']:.2f}s p50 "
            f"{loops['p50']['value']:.2f} p95 {loops['p95']['value']:.2f} ms, "
            f"generator late p99 {loops['late_p99_ms']:.3f} ms"
        )
    return metrics, failed, attempted, lost


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.perf.child")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--tmpdir", required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)

    wl = WORKLOADS[args.workload]
    inp = phases.build_inputs(wl, args.seed, args.scale, args.tmpdir)
    phases.warm_up(inp, layered=args.trace)
    # CLOCK_MONOTONIC is system-wide, so the parent's spawn instant and
    # this one are on the same clock: interpreter start and imports count
    setup_s = time.monotonic() - args.spawned_at
    log(f"{wl.name} seed {args.seed} scale {args.scale:g}: set-up {setup_s:.2f}s")
    record = {
        "workload": wl.name,
        "seed": args.seed,
        "scale": args.scale,
        "env": environment(),
        "setup_s": setup_s,
    }
    if not args.setup_only:
        if args.trace:
            from benchmarks.perf import layers

            metrics, failed, attempted, lost = layers.per_layer(
                inp, args.trace_out
            )
        else:
            metrics, failed, attempted, lost = end_to_end(inp)
            metrics["peak_rss_mb"] = metric(peak_rss_mib(), "MiB", 1)
        if not grad_enabled():
            failed.append("grad mode left disabled at child exit")
        record.update(
            metrics=metrics,
            failed_checks=failed,
            ops_attempted=attempted,
            ops_failed=lost + len(failed),
        )
    print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
