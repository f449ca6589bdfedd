"""Shared utilities: seeded RNG handling, ASCII rendering, result storage."""

from repro.utils.rng import new_rng
from repro.utils.render import ascii_heatmap, format_table
from repro.utils.results import ResultStore

__all__ = [
    "new_rng",
    "ascii_heatmap",
    "format_table",
    "ResultStore",
]
