"""The repo's layered performance benchmark (see ``README.md`` here).

Run it with ``PYTHONPATH=src python -m benchmarks.perf`` (every
workload, human-readable report) or through the driver contract of
``BENCHMARK.json``: ``python3 benchmarks/perf/run.py --workload NAME
--seed N --seconds S --trace 0|1``.  Importing the package does
nothing; each workload runs in a fresh child interpreter
(:mod:`benchmarks.perf.child`).
"""
