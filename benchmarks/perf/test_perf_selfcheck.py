"""Self-check of the layered benchmark: the smoke run reports exactly
the metrics BENCHMARK.json names, for every workload, and passes its own
correctness checks.

Collected under ``benchmarks/``, so ``benchmarks/conftest.py`` marks it
``bench`` and tier-1 (``-m "not bench"``) never runs it.  Run it with
``PYTHONPATH=src python -m pytest -m bench
benchmarks/perf/test_perf_selfcheck.py``.
"""

from __future__ import annotations

import json
import subprocess
import sys

from benchmarks.perf.cli import ROOT, load_spec


def test_smoke_run_matches_benchmark_json(tmp_path):
    out = tmp_path / "smoke.json"
    proc = subprocess.run(
        [sys.executable, "-m", "benchmarks.perf", "--smoke", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert summary["correct"] is True and summary["failed"] == 0

    spec = load_spec()
    with open(out) as fh:
        data = json.load(fh)
    assert data["smoke"] is True
    records = data["records"]
    assert [r["workload"] for r in records] == [
        w["name"] for w in spec["workloads"]
    ]
    for record in records:
        assert record["smoke"] is True
        assert record["env"]["cpu_count"] >= 1
        assert record["failed_checks"] == []
        for section in ("end_to_end", "per_layer"):
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {name: m["unit"] for name, m in record[section].items()}
            assert got == want, (record["workload"], section)
            for name, m in record[section].items():
                assert "n" in m, (name, "reports no sample count")
