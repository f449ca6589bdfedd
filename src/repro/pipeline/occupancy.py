"""Occupancy-grid timing model of pipeline schedules (Figures 1-2).

These are pure timing constructs (no numerics): a grid with one row per
pipeline stage and one column per time step, each cell recording which
packet's forward and/or backward transformation the worker performs.  Used
to regenerate Figure 2 (utilization of fill-and-drain SGD at small/large
batch vs pipelined backpropagation), the Figure-1 style timelines, and the
side-by-side schedule comparison in ``examples/pipeline_schedules.py``.

A "packet" is the unit that occupies one pipeline slot per step: a single
sample for ``pb`` / ``fill_drain`` / ``1f1b``, a micro-batch for
``gpipe``.  Every grid is rendered from a schedule's compiled
:class:`~repro.pipeline.schedule.Plan` (:meth:`Occupancy.from_plan`) —
the same plan the simulator and the stage workers execute — with packet
ordinals as cell ids.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.pipeline.schedule import (
    BWD,
    FWD,
    FillDrainSchedule,
    OneFOneBSchedule,
    PipelinedBackpropSchedule,
    Plan,
)

#: Cell encoding: 0 idle, 1 forward only, 2 backward only, 3 both.
IDLE, BOTH = 0, FWD | BWD

_CELL_CHARS = {IDLE: ".", FWD: "F", BWD: "B", BOTH: "X"}


@dataclass
class Occupancy:
    """A stage x time occupancy grid plus per-cell packet ids."""

    grid: np.ndarray  # (S, T) of {IDLE, FWD, BWD, BOTH}
    fwd_sample: np.ndarray  # (S, T) packet id or -1
    bwd_sample: np.ndarray  # (S, T) packet id or -1

    @property
    def num_stages(self) -> int:
        return self.grid.shape[0]

    @property
    def time_steps(self) -> int:
        return self.grid.shape[1]

    @classmethod
    def from_plan(cls, plan: Plan) -> "Occupancy":
        """The plan's forward/backward ops, one cell per (stage, tick)."""
        S, T = plan.num_stages, len(plan.ticks)
        occ = cls(
            grid=np.zeros((S, T), dtype=np.int8),
            fwd_sample=np.full((S, T), -1, dtype=np.int64),
            bwd_sample=np.full((S, T), -1, dtype=np.int64),
        )
        for t, tick in enumerate(plan.ticks):
            for kind, s, p in tick:
                if kind & BOTH:  # FLUSH / SET_LR occupy no slot
                    occ.grid[s, t] |= kind
                    ids = occ.fwd_sample if kind == FWD else occ.bwd_sample
                    ids[s, t] = p
        return occ


def pb_occupancy(num_stages: int, num_samples: int) -> Occupancy:
    """Pipelined backpropagation: continuous injection, one sample/step.

    Sample ``i``: ``F_s`` at ``t = i + s``; ``B_s`` at ``t = i + 2S-2-s``
    (the last stage does F and B of the same sample in one step).
    """
    return Occupancy.from_plan(
        PipelinedBackpropSchedule().plan(num_samples, num_stages)
    )


def fill_drain_occupancy(
    num_stages: int, batch_size: int, num_batches: int = 1
) -> Occupancy:
    """Fill-and-drain mini-batch SGD: each batch takes ``N + 2S - 2``
    steps; the next batch starts only after the previous drains."""
    return Occupancy.from_plan(
        FillDrainSchedule(batch_size).plan(
            batch_size * num_batches, num_stages
        )
    )


def gpipe_occupancy(
    num_stages: int, num_micro_batches: int, num_batches: int = 1
) -> Occupancy:
    """GPipe micro-batched fill-and-drain at *micro-batch* granularity.

    Each cell is one micro-batch transformation (a vectorized ``(B, ...)``
    op), so the grid is the fill-and-drain grid with ``M`` packets per
    mini-batch instead of ``N`` samples.  Slot utilization is therefore
    ``M / (M + 2S - 2)`` — micro-batching recovers utilization without
    giving up synchronous mini-batch semantics (Huang et al. 2019).
    """
    return fill_drain_occupancy(
        num_stages, num_micro_batches, num_batches=num_batches
    )


def one_f_one_b_occupancy(num_stages: int, num_samples: int) -> Occupancy:
    """PipeDream-style 1F1B timing (Harlap et al. 2018).

    In this fine-grained model (one sample per slot, every stage doing at
    most one F and one B per step) steady-state 1F1B occupies exactly the
    same cells as pipelined backpropagation: each worker alternates one
    forward and one backward per step.  The schedules differ in *weight
    semantics* (1F1B stashes the forward weights for the backward pass),
    which timing grids cannot express — see
    :class:`~repro.pipeline.schedule.OneFOneBSchedule`.
    """
    return Occupancy.from_plan(
        OneFOneBSchedule().plan(num_samples, num_stages)
    )


def schedule_utilization(occ: Occupancy) -> float:
    """Fraction of worker-step capacity used (1 F + 1 B per worker-step)."""
    work = np.count_nonzero(occ.grid & FWD) + np.count_nonzero(occ.grid & BWD)
    capacity = 2.0 * occ.grid.size
    return work / capacity


def render_occupancy(occ: Occupancy, max_cols: int = 120) -> str:
    """ASCII rendering: rows are stages (top = first stage), columns time.

    ``F`` forward only, ``B`` backward only, ``X`` both, ``.`` idle.
    """
    cols = min(occ.time_steps, max_cols)
    lines = []
    for s in range(occ.num_stages):
        row = "".join(_CELL_CHARS[int(c)] for c in occ.grid[s, :cols])
        lines.append(f"stage {s:3d} |{row}|")
    if cols < occ.time_steps:
        lines.append(f"... ({occ.time_steps - cols} more steps)")
    return "\n".join(lines)

