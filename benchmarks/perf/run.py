"""Entry point named by ``BENCHMARK.json``.

``python3 benchmarks/perf/run.py --workload NAME --seed N --seconds S
--trace 0|1`` from the root of a checkout: puts the checkout on
``sys.path`` (so it needs no ``PYTHONPATH``) and hands over to
``cli.py``.  It fails, with a non-zero exit and no result line, in a
directory that lacks the program under test (``src/repro``).
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

if __name__ == "__main__":
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"benchmarks/perf: no program to measure under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT))
    from benchmarks.perf.cli import main

    sys.exit(main())
