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


def _quickstart_block() -> str:
    """The indented ``Quickstart::`` block of the package docstring."""
    import repro

    lines = repro.__doc__.split("Quickstart::", 1)[1].splitlines()[1:]
    block = []
    for line in lines:
        if line.strip() and not line.startswith("    "):
            break
        block.append(line[4:])
    return "\n".join(block)


def test_package_quickstart_calls_exist():
    """The package docstring's quickstart compiles, and every attribute
    it calls exists on what it calls it on: a name it imports, or the
    class whose constructor bound the name.  Nothing is trained."""
    import ast
    import importlib

    tree = ast.parse(compile(_quickstart_block(), "quickstart", "exec",
                             ast.PyCF_ONLY_AST))
    names: dict = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name] = importlib.import_module(
                    alias.name
                )
        elif isinstance(node, ast.ImportFrom):
            module = importlib.import_module(node.module)
            for alias in node.names:
                names[alias.asname or alias.name] = getattr(module, alias.name)
    for node in tree.body:  # a constructed name stands for its class
        if (
            isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Call)
            and isinstance(node.value.func, ast.Name)
            and isinstance(names.get(node.value.func.id), type)
        ):
            for target in node.targets:
                names[target.id] = names[node.value.func.id]
    calls = [
        node.func
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id in names
    ]
    assert calls, "the quickstart calls no attribute"
    missing = [
        f"{call.value.id}.{call.attr}"
        for call in calls
        if not hasattr(names[call.value.id], call.attr)
    ]
    assert missing == []
