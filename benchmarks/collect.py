"""Collect every ``results/BENCH_*.json`` into one summary table.

Each benchmark persists its payload under ``results/`` via
:class:`repro.utils.ResultStore`; this script is the roll-up: one row
per ``BENCH_*`` file with its timestamp, smoke flag, row count and a
benchmark-specific headline metric, rendered with the same
:func:`repro.utils.format_table` the benches print with.  CI's
bench-smoke job runs it after the smoke benches so the job log ends
with the whole suite's numbers in one place.

Usage::

    PYTHONPATH=src python benchmarks/collect.py [results_dir]

Exits non-zero if the results directory holds no ``BENCH_*`` files
(a smoke job that produced nothing is a broken job).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any


def _fmt(v: float, spec: str = "{:.2f}") -> str:
    return spec.format(v)


def _headline(name: str, p: dict[str, Any]) -> str:
    """One human line per known benchmark; generic fallback otherwise."""
    try:
        if name == "BENCH_precision":
            ratios = p["float32_ratio_by_runtime"]
            best = min(ratios, key=ratios.get)
            return (
                f"float32 {_fmt(ratios[best])}x float64 ({best}); "
                f"ring bytes {_fmt(p['ring_bytes']['ratio'])}x"
            )
        if name == "BENCH_runtime":
            cases = p["speedup_cases"]
            best = max(cases, key=lambda c: c["speedup"])
            line = f"free {_fmt(best['speedup'])}x lockstep ({best['case']})"
            control = best.get("control")
            if control:
                line += (
                    f"; control {_fmt(control['msgs_per_step'])} vs "
                    f"{control['baseline_msgs_per_step']} msgs/step"
                )
            return line
        if name == "BENCH_optim":
            rows = [r for r in p["rows"] if "alloc_kb_naive" in r]
            if rows:
                r = rows[0]
                return (
                    f"in-place {_fmt(r['alloc_kb_inplace'])} KiB/step vs "
                    f"naive {_fmt(r['alloc_kb_naive'])}"
                )
        if name == "BENCH_replicas":
            pts = p.get("scaling") or []
            if pts:
                last = pts[-1]
                return (
                    f"{last.get('replicas', '?')} replicas: "
                    f"{_fmt(float(last.get('speedup_vs_1', 0)))}x vs 1"
                )
        if name == "BENCH_serving":
            rows = p.get("rows") or []
            if rows:
                r = rows[-1]
                for key in ("p99_ms", "p95_ms", "latency_p99_ms"):
                    if key in r:
                        return f"{r.get('case', 'slo')}: {key} {_fmt(float(r[key]))}"
        if name == "BENCH_fleet":
            acc = p["acceptance"]
            return (
                f"fleet sustains c={acc['fleet_max_sustained']} vs "
                f"single c={acc['single_max_sustained']} "
                f"(interactive p99 <= "
                f"{_fmt(float(p['interactive_deadline_ms']), '{:.0f}')} ms, "
                f"across rolling hot-swap, "
                f"{acc['dropped']} dropped / {acc['duplicates']} dup)"
            )
    except (KeyError, TypeError, ValueError, IndexError):
        pass  # fall through to the generic summary
    for key in ("rows", "comparison_rows", "parity_rows", "scaling"):
        if isinstance(p.get(key), list):
            return f"{len(p[key])} {key}"
    return ", ".join(sorted(p.keys())[:4])


def collect(results_dir: str | Path = "results") -> list[dict[str, Any]]:
    """One summary row per ``BENCH_*.json`` under ``results_dir``."""
    rows = []
    for path in sorted(Path(results_dir).glob("BENCH_*.json")):
        try:
            record = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            rows.append({
                "benchmark": path.stem, "written_at": "-", "smoke": "-",
                "headline": f"unreadable: {exc}",
            })
            continue
        payload = record.get("payload", {})
        rows.append({
            "benchmark": path.stem,
            "written_at": record.get("written_at", "-"),
            "smoke": payload.get("smoke", "-"),
            "headline": _headline(path.stem, payload),
        })
    return rows


def main(argv: list[str]) -> int:
    results_dir = Path(argv[1]) if len(argv) > 1 else Path("results")
    rows = collect(results_dir)
    if not rows:
        print(f"no BENCH_*.json under {results_dir}/", file=sys.stderr)
        return 1
    try:
        from repro.utils import format_table

        print(format_table(rows, title=f"[collect] {results_dir}/BENCH_*"))
    except ImportError:  # pragma: no cover - PYTHONPATH=src not set
        for r in rows:
            print(r)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
