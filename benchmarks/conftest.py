"""Shared helpers for the benchmark harness.

Each bench regenerates one paper table/figure via
:mod:`repro.experiments`, prints the rows/series the paper reports,
persists the payload under ``results/``, and asserts the paper's
qualitative claims (orderings, crossovers, stability regions).  Absolute
values are not expected to match — the substrate is a synthetic-data CPU
simulation — but the *shape* of every result is checked.

Every test collected from this directory is auto-marked ``bench`` so the
tier-1 suite (which deselects ``-m "not bench"`` via ``pytest.ini``)
never runs them.  Run with ``pytest -m bench`` (or ``pytest -m bench
benchmarks/bench_fig02_utilization.py`` for one file); set
``REPRO_SCALE=paper`` for full-size runs.
"""

from __future__ import annotations

import warnings
from pathlib import Path

import pytest

from repro.experiments import run_experiment
from repro.utils import ResultStore, format_table

warnings.filterwarnings("ignore", category=RuntimeWarning)

_STORE = ResultStore()

_BENCH_DIR = Path(__file__).resolve().parent


def pytest_collection_modifyitems(config, items):
    """Mark everything under benchmarks/ as ``bench`` (tier-1 deselects)."""
    for item in items:
        try:
            path = Path(str(item.fspath)).resolve()
        except OSError:  # pragma: no cover - defensive
            continue
        if _BENCH_DIR in path.parents:
            item.add_marker(pytest.mark.bench)


@pytest.fixture(scope="session")
def store() -> ResultStore:
    return _STORE


def run_and_save(benchmark, exp_id: str) -> dict:
    """Run an experiment exactly once under pytest-benchmark timing."""
    result = benchmark.pedantic(
        lambda: run_experiment(exp_id), rounds=1, iterations=1
    )
    _STORE.save(exp_id, result)
    return result


def print_rows(exp_id: str, result: dict) -> None:
    if "rows" in result:
        print()
        print(format_table(result["rows"], title=f"[{exp_id}] regenerated"))
    if "meta" in result and "paper" in result["meta"]:
        print(f"[{exp_id}] paper: {result['meta']['paper']}")
