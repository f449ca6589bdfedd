"""Command line of the layered benchmark (the parent process).

The parent stays light — no numpy, no ``repro`` — and runs every pass of
every workload in a fresh child interpreter (``child.py``), relaying its
progress and collecting its one-line JSON record.

Per workload it runs, unless ``--trace`` narrows it:

* the **end-to-end pass** (``--trace 0``): set-up is repeated in
  ``SETUP_REPEATS`` children in total and ``setup_s`` is their median;
  the last child goes on to the timed phases, untraced;
* the **layered pass** (``--trace 1``): one child at quarter size with
  the span recorder on and the per-layer probes, which writes a
  chrome-trace file under ``results/perf/``.

With ``--workload`` given once, the last line of stdout is the driver
contract's object ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from benchmarks.perf.summary import quartiles
from benchmarks.perf.workloads import (
    RUN_SECONDS,
    SMOKE_SCALE,
    TRACE_SCALE,
    WORKLOADS,
)

ROOT = Path(__file__).resolve().parents[2]
SPEC_PATH = ROOT / "BENCHMARK.json"
RESULTS_DIR = ROOT / "results" / "perf"
#: set-ups per end-to-end run; ``setup_s`` is their median.  One set-up
#: is a second or two of single-shot work, at the mercy of whichever
#: gear the host is in for that second (README, "What the host does")
SETUP_REPEATS = 5
#: a child that runs longer than this is killed and the run fails
CHILD_TIMEOUT_S = 170.0
#: stands in for an infinite latency on the driver's result line (the
#: run is reported incorrect as well: lost requests are failures)
NO_ANSWER = 1e12


def load_spec() -> dict:
    with open(SPEC_PATH) as fh:
        return json.load(fh)


def child_env() -> dict:
    env = dict(os.environ)
    # stage workers are the parallelism; BLAS pools on top of them would
    # measure the scheduler.  Set before the child imports numpy.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    paths = [str(ROOT / "src"), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def run_child(workload: str, seed: int, scale: float, tmpdir: str,
              *extra: str) -> dict:
    """Start one child, wait for it, and return its record."""
    cmd = [
        sys.executable, "-m", "benchmarks.perf.child",
        "--workload", workload, "--seed", str(seed),
        "--scale", repr(scale), "--tmpdir", tmpdir,
        "--spawned-at", repr(time.monotonic()), *extra,
    ]
    # its own session, so that on a timeout the stage workers it forked
    # die with it
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(
            f"{workload}: child exceeded {CHILD_TIMEOUT_S:.0f}s and was killed"
        ) from None
    if proc.returncode != 0:
        raise RuntimeError(
            f"{workload}: child exited with code {proc.returncode}"
        )
    lines = out.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload}: child printed no record")
    return json.loads(lines[-1])


def run_workload(
    workload: str, seed: int, scale: float, passes: set,
    setup_repeats: int = SETUP_REPEATS,
) -> dict:
    """Both passes (or the one asked for) of one workload -> one record
    with ``end_to_end`` and/or ``per_layer`` metric maps."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    record = {"workload": workload, "seed": seed, "scale": scale}
    failed_checks, attempted, failed = [], 0, 0
    with tempfile.TemporaryDirectory(dir=RESULTS_DIR, prefix="tmp-") as tmp:
        if "end_to_end" in passes:
            setups = [
                run_child(workload, seed, scale, tmp, "--setup-only")["setup_s"]
                for _ in range(setup_repeats - 1)
            ]
            rec = run_child(workload, seed, scale, tmp)
            setups.append(rec["setup_s"])
            q1, med, q3 = quartiles(setups)
            rec["metrics"]["setup_s"] = {
                "value": med, "unit": "s", "n": len(setups), "q1": q1,
                "median": med, "q3": q3,
            }
            record["end_to_end"] = rec["metrics"]
            record["env"] = rec["env"]
            failed_checks += rec["failed_checks"]
            attempted += rec["ops_attempted"]
            failed += rec["ops_failed"]
        if "per_layer" in passes:
            trace_out = RESULTS_DIR / f"trace-{workload}-seed{seed}.json"
            rec = run_child(
                workload, seed, scale * TRACE_SCALE, tmp, "--trace",
                "--trace-out", str(trace_out),
            )
            record["per_layer"] = rec["metrics"]
            record["trace_file"] = str(trace_out.relative_to(ROOT))
            record.setdefault("env", rec["env"])
            failed_checks += rec["failed_checks"]
            attempted += rec["ops_attempted"]
            failed += rec["ops_failed"]
    record.update(
        failed_checks=failed_checks, ops_attempted=attempted,
        ops_failed=failed,
    )
    return record


def fmt_value(m: dict) -> str:
    value = m["value"]
    text = f"{value:.6g}" if math.isfinite(value) else str(value)
    text = f"{text} {m['unit']}"
    if "q1" in m:
        text += (
            f"  [q1 {m['q1']:.6g}, median {m['median']:.6g}, "
            f"q3 {m['q3']:.6g}]"
        )
    if "n" in m:
        text += f"  n={m['n']}"
    if "limit" in m:
        text += f"  limit {m['limit']:g} {m['unit']}"
    return text


def print_record(record: dict) -> None:
    env = record.get("env", {})
    print(
        f"== {record['workload']}  seed {record['seed']}  scale "
        f"{record['scale']:g}  cpu_count {env.get('cpu_count')}  numpy "
        f"{env.get('numpy')}  blas {env.get('blas')}"
    )
    for section in ("end_to_end", "per_layer"):
        metrics = record.get(section)
        if not metrics:
            continue
        print(f"-- {section}")
        width = max(len(name) for name in metrics)
        for name, m in metrics.items():
            print(f"   {name:<{width}}  {fmt_value(m)}")
    if "trace_file" in record:
        print(f"   chrome trace: {record['trace_file']}")
    print(
        f"   ops_attempted {record['ops_attempted']}  ops_failed "
        f"{record['ops_failed']}"
    )
    for msg in record["failed_checks"]:
        print(f"   FAILED CHECK: {msg}")


def contract_metrics(record: dict, spec: dict, passes: set) -> dict:
    """``{name: {"value", "unit"}}`` for exactly the metrics the spec
    lists for the passes that ran."""
    out = {}
    for section in ("end_to_end", "per_layer"):
        if section not in passes:
            continue
        for entry in spec[section]:
            m = record[section][entry["name"]]
            # more than the percentile's share of requests lost: the
            # latency is infinite, which JSON cannot carry
            value = m["value"] if math.isfinite(m["value"]) else NO_ANSWER
            out[entry["name"]] = {"value": value, "unit": m["unit"]}
    return out


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "compare":
        from benchmarks.perf.compare import main as compare_main

        return compare_main(argv[1:])
    spec = load_spec()
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.perf",
        description="Layered end-to-end + per-layer benchmark "
        "(see benchmarks/perf/README.md); `compare A.json B.json` "
        "compares two result files.",
    )
    parser.add_argument(
        "--workload", action="append", choices=sorted(WORKLOADS),
        help="run only this workload (repeatable; default: all three)",
    )
    parser.add_argument("--seed", type=int, default=0, help="workload seed")
    parser.add_argument(
        "--seconds", type=float, default=float(RUN_SECONDS),
        help="size of the run: every count is scaled by seconds / "
        f"{RUN_SECONDS} (default {RUN_SECONDS})",
    )
    parser.add_argument(
        "--trace", nargs="?", type=int, const=1, default=None,
        choices=(0, 1),
        help="0: end-to-end pass only, untraced; 1 (or bare --trace): "
        "traced per-layer pass only; omitted: both",
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help=f"run at {SMOKE_SCALE:g}x size (same metric names, flagged)",
    )
    parser.add_argument(
        "--repeat", type=int, default=1,
        help="runs per workload, seeds seed..seed+repeat-1 (for compare)",
    )
    parser.add_argument("--out", help="write the full records to this file")
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.repeat < 1:
        parser.error("--seconds must be > 0 and --repeat >= 1")

    names = args.workload or list(WORKLOADS)
    passes = {
        None: {"end_to_end", "per_layer"},
        0: {"end_to_end"},
        1: {"per_layer"},
    }[args.trace]
    scale = args.seconds / RUN_SECONDS * (SMOKE_SCALE if args.smoke else 1.0)

    records = []
    for name in names:
        for k in range(args.repeat):
            record = run_workload(
                name, args.seed + k, scale, passes,
                # a smoke run only has to show that everything runs
                setup_repeats=1 if args.smoke else SETUP_REPEATS,
            )
            record["smoke"] = bool(args.smoke)
            print_record(record)
            records.append(record)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(
                {"run_seconds": args.seconds, "smoke": bool(args.smoke),
                 "records": records},
                fh, indent=1,
            )
            fh.write("\n")

    correct = all(not r["failed_checks"] for r in records)
    attempted = sum(r["ops_attempted"] for r in records)
    failed = sum(r["ops_failed"] for r in records)
    if len(records) == 1:
        metrics = contract_metrics(records[0], spec, passes)
    else:
        metrics = {
            f"{r['workload']}/{r['seed']}": contract_metrics(r, spec, passes)
            for r in records
        }
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed,
             "metrics": metrics}
        )
    )
    return 0 if correct else 1
