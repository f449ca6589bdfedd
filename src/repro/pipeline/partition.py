"""Stage-graph validation.

The model builders in :mod:`repro.models` emit stage lists directly, so
"partitioning" a model means *validating* that a stage list is executable
as a pipeline (balanced skip stack, unique names, terminal loss).
"""

from __future__ import annotations

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
