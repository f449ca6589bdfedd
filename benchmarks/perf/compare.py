"""``python -m benchmarks.perf compare A.json B.json``.

Each file is what ``--out`` wrote, ideally with ``--repeat`` >= 5 so
every workload has a set of runs.  For every workload x end-to-end
metric the table gives both sets' medians and quartiles, the ratio
B / A (A is the base), the bound BENCHMARK.json fixes, and a verdict:

``unresolved``
    a set's run-to-run spread (interquartile distance over its median;
    within-run segment quartiles when a set holds a single run) exceeds
    the bound — the metric cannot tell the two apart, which is not the
    same as "unchanged";
``worse`` / ``better``
    B's median is beyond the bound in that direction;
``same``
    within the bound either way.

Exit code 1 if any row is ``worse``.
"""

from __future__ import annotations

import json
import math
import sys

from benchmarks.perf.cli import load_spec
from benchmarks.perf.summary import quartiles


def _sets(path: str) -> dict:
    """``{workload: [end_to_end metric map, ...]}`` of one result file."""
    with open(path) as fh:
        data = json.load(fh)
    out: dict = {}
    for record in data["records"]:
        if "end_to_end" in record:
            out.setdefault(record["workload"], []).append(record["end_to_end"])
    return out


def _stats(runs: list, name: str) -> tuple[float, float, float, int]:
    """Median and quartiles of one metric over a set of runs."""
    if len(runs) == 1:
        m = runs[0][name]
        return m.get("q1", m["value"]), m["value"], m.get("q3", m["value"]), 1
    q1, med, q3 = quartiles([run[name]["value"] for run in runs])
    return q1, med, q3, len(runs)


def _spread(q1: float, med: float, q3: float) -> float:
    if not math.isfinite(med) or med == 0:
        return math.inf
    return (q3 - q1) / abs(med)


def verdict(a: tuple, b: tuple, better: str, bound: float) -> tuple[str, float]:
    """``(verdict, ratio B/A)`` for one row."""
    ratio = b[1] / a[1] if a[1] else math.inf
    if max(_spread(*a[:3]), _spread(*b[:3])) > bound:
        return "unresolved", ratio
    worsening = (ratio - 1.0) if better == "lower" else (1.0 - ratio)
    if worsening > bound:
        return "worse", ratio
    if worsening < -bound:
        return "better", ratio
    return "same", ratio


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python -m benchmarks.perf compare A.json B.json",
              file=sys.stderr)
        return 2
    spec = load_spec()
    a_sets, b_sets = _sets(argv[0]), _sets(argv[1])
    header = (
        f"{'workload':<20} {'metric':<26} {'A median [q1, q3] n':<34} "
        f"{'B median [q1, q3] n':<34} {'B/A':>7} {'bound':>6}  verdict"
    )
    print(f"base A = {argv[0]}\n     B = {argv[1]}\n{header}")
    worse = 0
    for workload in (w for w in a_sets if w in b_sets):
        for entry in spec["end_to_end"]:
            name = entry["name"]
            a = _stats(a_sets[workload], name)
            b = _stats(b_sets[workload], name)
            what, ratio = verdict(a, b, entry["better"], entry["bound"])
            worse += what == "worse"
            cells = [
                f"{s[1]:.5g} [{s[0]:.5g}, {s[2]:.5g}] {s[3]}" for s in (a, b)
            ]
            print(
                f"{workload:<20} {name:<26} {cells[0]:<34} {cells[1]:<34} "
                f"{ratio:>7.3f} {entry['bound']:>6.2f}  {what}"
            )
    return 1 if worse else 0
