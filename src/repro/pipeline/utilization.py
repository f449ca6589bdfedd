"""Closed-form pipeline utilization (paper §2, eq. 1).

A mini-batch SGD update of ``N`` samples on an ``S``-stage pipeline takes
``N + 2S - 2`` steps of which only ``N`` are fully-utilized equivalents,
bounding utilization by ``N / (N + 2S)`` (eq. 1; the exact finite-pipeline
value is ``N / (N + 2S - 2)``).  Pipelined backpropagation pays the fill
cost once, so utilization approaches one.
"""

from __future__ import annotations


def _slots_over_steps(num_stages: int, slots: int, what: str) -> float:
    """``x / (x + 2S - 2)``: ``x`` busy slots out of the ``x + 2S - 2``
    steps one fill + drain of an ``S``-stage pipeline takes."""
    if num_stages < 1 or slots < 1:
        raise ValueError(f"need at least one stage and one {what}")
    return slots / (slots + 2 * num_stages - 2)


def utilization_upper_bound(num_stages: int, batch_size: int) -> float:
    """Eq. 1: ``N / (N + 2S)``."""
    if num_stages < 1 or batch_size < 1:
        raise ValueError("need at least one stage and one sample")
    return batch_size / (batch_size + 2 * num_stages)


def fill_drain_utilization(num_stages: int, batch_size: int) -> float:
    """Exact steady-state utilization of fill-and-drain mini-batch SGD."""
    return _slots_over_steps(num_stages, batch_size, "sample")


def pb_utilization(num_stages: int, total_samples: int) -> float:
    """Utilization of PB over a finite stream (one fill+drain total)."""
    return _slots_over_steps(num_stages, total_samples, "sample")
