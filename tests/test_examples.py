"""The system examples are the demos of record: each must keep running.

Every script asserts its own parity lines (lockstep bit-exactness,
checkpoint resume, replica parity, serving correctness, fleet
exactly-once), so exit code 0 is the whole check.  Each runs in a
subprocess from a temp directory: nothing is written into the tree, and
the timeout turns a hung worker into a failure.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script",
    [
        "pipeline_schedules.py",
        "durable_training.py",
        "hybrid_parallel.py",
        "serving_demo.py",
        "serving_fleet.py",
    ],
)
def test_system_example_runs(script, tmp_path):
    proc = subprocess.run(
        [sys.executable, str(REPO / "examples" / script)],
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        cwd=tmp_path,
        timeout=120,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
