"""Stage-graph validation and contiguous partitioning.

The model builders in :mod:`repro.models` emit stage lists directly, so
"partitioning" a model means *validating* that a stage list is executable
as a pipeline (balanced skip stack, unique names, terminal loss).
:func:`contiguous_partition` then cuts that list into fewer, coarser
groups of adjacent stages by cost — PipeDream's DP over contiguous layer
ranges and torchgpipe's balance — which is how a training run fits its
stages onto the CPUs it has (:mod:`repro.pipeline.runtime`, "Stage
groups").
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.models.arch import StageDef


def validate_stage_graph(stages: list[StageDef]) -> None:
    """Raise ``ValueError`` for any structural problem in a stage list.

    Checks: non-empty; unique names; exactly one loss stage, last; the
    skip stack is balanced (every push has a matching sum; never pops
    empty); skip-path compute stages only appear while the stack is
    non-empty.
    """
    if not stages:
        raise ValueError("empty stage list")
    names = [s.name for s in stages]
    if len(set(names)) != len(names):
        raise ValueError("duplicate stage names")
    loss_idx = [i for i, s in enumerate(stages) if s.kind == "loss"]
    if loss_idx != [len(stages) - 1]:
        raise ValueError("need exactly one loss stage, in final position")
    depth = 0
    for s in stages:
        if s.kind == "compute":
            if s.channel == -1 and depth == 0:
                raise ValueError(
                    f"stage {s.name!r} operates on an empty skip stack"
                )
            if s.push_skip:
                depth += 1
        elif s.kind == "sum":
            if depth == 0:
                raise ValueError(f"sum stage {s.name!r} pops an empty stack")
            depth -= 1
    if depth != 0:
        raise ValueError(f"{depth} unconsumed skip connections")


def contiguous_partition(
    costs: Sequence[float], k: int
) -> list[tuple[int, ...]]:
    """Cut ``len(costs)`` stages into ``min(k, len(costs))`` contiguous,
    non-empty groups whose costliest group is as cheap as possible.

    Returns each group's stage indices, in order.  A group's cost is
    ``sum(costs[i:j])``.  Among optimal cuts, each boundary is placed as
    early as the optimum allows (first group first), so equal inputs
    always give the same groups and equal costs put the larger groups
    last.  Exact dynamic programme, ``O(k n^2)``.
    """
    n = len(costs)
    if n == 0:
        raise ValueError("nothing to partition")
    if k < 1:
        raise ValueError(f"need k >= 1 groups, got {k}")
    if not all(math.isfinite(c) and c >= 0 for c in costs):
        raise ValueError(f"costs must be finite and >= 0, got {list(costs)}")
    k = min(k, n)
    # best[g][i]: least worst-group cost of costs[i:] cut into g groups.
    # A span is summed left to right as it grows, which is
    # ``sum(costs[i:j])`` to the bit.
    best = [[math.inf] * (n + 1) for _ in range(k + 1)]
    best[0][n] = 0.0
    for g in range(1, k + 1):
        for i in range(n - g, -1, -1):
            span = 0.0
            for j in range(i + 1, n - g + 2):
                span += costs[j - 1]
                best[g][i] = min(best[g][i], max(span, best[g - 1][j]))
    groups = []
    i = 0
    for g in range(k, 0, -1):
        span = 0.0
        for j in range(i + 1, n - g + 2):
            span += costs[j - 1]
            if max(span, best[g - 1][j]) == best[g][i]:
                break
        groups.append(tuple(range(i, j)))
        i = j
    return groups
