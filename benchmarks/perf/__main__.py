"""``PYTHONPATH=src python -m benchmarks.perf`` (see ``cli.py``)."""

import sys

from benchmarks.perf.cli import main

sys.exit(main())
