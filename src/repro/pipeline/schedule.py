"""Pluggable pipeline schedules, and the plan that compiles them.

A :class:`Schedule` makes the decisions of the paper's discrete-time
pipeline (§2, Fig. 2) at three points of every time step:

* **inject** — :meth:`Schedule.inject_size` returns how many samples to
  inject as one packet at stage 0 this step (0 = hold injection, e.g.
  while a fill-and-drain batch drains).  A packet moves through one stage
  per step as a single vectorized ``(B, ...)`` operation.
* **update** — after a stage finishes a packet's backward transformation,
  :meth:`Schedule.update_after_backward` says whether that stage applies
  its accumulated gradient immediately (update size one, the PB / 1F1B
  discipline) or keeps accumulating (fill-and-drain / GPipe).
* **end of step** — :meth:`Schedule.end_step` runs batch-boundary logic:
  the synchronous schedules flush an averaged update once every sample of
  the current mini-batch has drained.

Two more knobs are static per schedule: :attr:`Schedule.micro_batch` (the
nominal packet size) and :attr:`Schedule.stash_weights` (PipeDream-style
per-stage weight stashing: every stage reuses its forward-pass weights on
the backward pass, making each sample's pass consistent).

The plan
--------

Tick semantics live in one place, :meth:`Schedule.plan`.  It runs the
hooks above on packet *metadata* only and applies the timing rule — a
packet enters stage 0 when that stage's forward slot is free, moves one
stage per tick, and the loss stage's forward seeds its backward in the
same tick, so a packet occupies ``2S - 1`` ticks — to produce a
:class:`Plan`: the ops of every tick.  Each op is ``(kind, stage, arg)``:

``(FWD, s, p)`` / ``(BWD, s, p)``
    stage ``s`` transforms packet ordinal ``p`` (``Plan.packets[p]`` is
    its ``(start, size)``).  Within a tick forwards run in stage order,
    then backwards in reverse stage order, as the paper draws them.
``(FLUSH, -1, count)``
    every stage applies the averaged update of ``count`` samples, after
    the tick whose batch boundary produced it.
``(SET_LR, -1, lr)``
    every stage takes a new learning rate after the tick (only when the
    engine passes its LR schedule).

Every reader of tick semantics reads the plan: the simulator
(:meth:`~repro.pipeline.executor.PipelineExecutor._run`) runs every op
in order, a worker hosting stages ``a..b`` runs :meth:`Plan.ops`
``(a, b)`` in order, a free-running worker of one stage runs its
:meth:`Plan.column` flush to flush, and
:meth:`~repro.pipeline.occupancy.Occupancy.from_plan` renders it as a
grid.

Four schedules reproduce the systems the paper positions itself against:

``pb``
    Pipelined backpropagation (the paper's subject): continuous
    injection, per-gradient updates, *no* stashing — forward weights lag
    by eq. 5, backward weights are current (the PB inconsistency).
``fill_drain``
    Pipeline-parallel mini-batch SGD: inject ``N`` samples, drain, apply
    the averaged update.  Numerically identical to sequential mini-batch
    SGDM (the Figure-16 validation).
``gpipe``
    Micro-batched fill-and-drain (Huang et al. 2019; torchgpipe): the
    mini-batch moves as ``M = N/B`` packets of ``B`` samples, each a
    single vectorized op, recovering ``M/(M + 2S - 2)`` slot utilization
    while keeping exact mini-batch SGDM semantics.
``1f1b``
    PipeDream's one-forward-one-backward with weight stashing (Harlap et
    al. 2018): PB timing and per-gradient updates, but every stage
    stashes its forward weights so forward and backward of a sample see
    the same (stale) weights — zero inconsistency, staleness unchanged.

A forward-only run is not a schedule: with no backward sweep there is
no delay, update or stash to decide, so serving keeps only a packet
width (:class:`~repro.pipeline.inference.InferenceSchedule`).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable

#: Canonical schedule names, in presentation order.
SCHEDULE_NAMES = ("pb", "fill_drain", "gpipe", "1f1b")

#: Plan op kinds.  ``FWD`` and ``BWD`` double as the occupancy grid's
#: cell bits (:mod:`repro.pipeline.occupancy`).
FWD, BWD, FLUSH, SET_LR = 1, 2, 4, 8


@dataclass
class ScheduleState:
    """Mutable per-run view the executor shares with the schedule."""

    num_samples: int
    next_sample: int = 0  # next sample index to inject
    completed: int = 0  # samples whose backward fully drained
    step: int = 0  # time steps elapsed


@dataclass(frozen=True)
class Plan:
    """A schedule compiled for one run of ``num_samples`` samples over
    ``num_stages`` stages (see the module docstring)."""

    num_stages: int
    #: ``(start, size)`` of every packet, in injection order
    packets: list[tuple[int, int]]
    #: the ``(kind, stage, arg)`` ops of every tick, in execution order
    ticks: list[list[tuple]]

    def ops(self, lo: int, hi: int) -> list[tuple]:
        """The ``(kind, stage, arg)`` ops of stages ``lo..hi`` and every
        stage-wide op, in execution order: what a worker hosting that
        contiguous range runs (all of them: what the simulator runs)."""
        return [
            op for tick in self.ticks for op in tick
            if lo <= op[1] <= hi or op[1] < 0
        ]

    def column(self, stage: int) -> list[tuple]:
        """Stage ``stage``'s ops in order, as ``(kind, arg)`` pairs: what
        a free-running worker of that one stage runs."""
        return [(kind, arg) for kind, _, arg in self.ops(stage, stage)]


class Schedule(ABC):
    """Per-step decisions: inject / update / flush / stash (see module
    docstring).  Instances hold per-run state and are reset by the
    executor at the start of every :meth:`PipelineExecutor.train` call,
    so one schedule instance belongs to one executor."""

    name: str = "?"
    #: Samples per injected packet (the vectorized ``(B, ...)`` width).
    micro_batch: int = 1
    #: PipeDream weight stashing: backward reuses the forward weights.
    stash_weights: bool = False
    #: Samples averaged per weight update (1 for the per-gradient
    #: schedules); hyperparameter scaling (eq. 9) keys off this.
    update_size: int = 1

    def reset(self, num_samples: int) -> None:
        """Start a fresh run of ``num_samples`` samples."""

    @abstractmethod
    def inject_size(self, state: ScheduleState) -> int:
        """Samples to inject as one packet this step (0 = none)."""

    def update_after_backward(self, stage_index: int) -> bool:
        """Apply the stage's gradient immediately after its backward?"""
        return False

    def end_step(
        self, flush: Callable[[int], None], state: ScheduleState
    ) -> None:
        """Batch-boundary hook, called once per time step after both
        sweeps; ``flush(count)`` applies the averaged update of ``count``
        accumulated gradients on every stage."""

    def drain_span(self, num_samples: int, num_stages: int) -> int:
        """Pipeline steps until the ``num_samples``-th sample's backward
        drains at stage 0 (0 for an empty stream).  Continuous-injection
        schedules pay the fill cost once: ``k + 2S - 2``.  Schedules with
        batch boundaries must override this to match their injection
        gating."""
        if num_samples < 1:
            return 0
        return num_samples + 2 * num_stages - 2

    def plan(
        self,
        num_samples: int,
        num_stages: int,
        lr_at: Callable[[int], float] | None = None,
    ) -> Plan:
        """Compile one run (see the module docstring).  Resets the
        schedule, then runs its hooks on metadata only.  ``lr_at(k)``,
        when given, is the learning rate once ``k`` samples of this run
        have completed; it is evaluated after every tick and emitted as
        ``SET_LR`` on the first tick and whenever it changes."""
        n, S = num_samples, num_stages
        self.reset(n)
        state = ScheduleState(num_samples=n)
        packets: list[tuple[int, int]] = []
        ticks: list[list[tuple]] = []
        flushes: list[int] = []
        fwd: dict[int, int] = {}  # stage -> packet it forwards this tick
        bwd: dict[int, int] = {}  # stage -> packet it backwards this tick
        lr = None
        while state.next_sample < n or fwd or bwd:
            # stage 0's forward slot is free every tick: inject if allowed
            if state.next_sample < n:
                size = min(self.inject_size(state), n - state.next_sample)
                if size > 0:
                    fwd[0] = len(packets)
                    packets.append((state.next_sample, size))
                    state.next_sample += size
            ops = []
            new_fwd: dict[int, int] = {}
            new_bwd: dict[int, int] = {}
            for s in sorted(fwd):
                p = fwd[s]
                ops.append((FWD, s, p))
                if s == S - 1:
                    bwd[s] = p  # the loss seeds its backward this tick
                else:
                    new_fwd[s + 1] = p
            for s in sorted(bwd, reverse=True):
                p = bwd[s]
                ops.append((BWD, s, p))
                if s > 0:
                    new_bwd[s - 1] = p
                else:
                    state.completed += packets[p][1]
            fwd, bwd = new_fwd, new_bwd
            state.step += 1
            self.end_step(flushes.append, state)
            ops.extend((FLUSH, -1, count) for count in flushes)
            flushes.clear()
            if lr_at is not None:
                now = float(lr_at(state.completed))
                if now != lr:
                    ops.append((SET_LR, -1, now))
                    lr = now
            ticks.append(ops)
        return Plan(num_stages=S, packets=packets, ticks=ticks)

    def describe(self) -> str:
        return f"{self.name} (update_size={self.update_size}, " \
               f"micro_batch={self.micro_batch})"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.describe()}>"


class PipelinedBackpropSchedule(Schedule):
    """``pb`` — continuous injection, update size one, no stashing."""

    name = "pb"

    def inject_size(self, state: ScheduleState) -> int:
        return 1 if state.next_sample < state.num_samples else 0

    def update_after_backward(self, stage_index: int) -> bool:
        return True


class OneFOneBSchedule(PipelinedBackpropSchedule):
    """``1f1b`` — PipeDream semantics (Harlap et al. 2018).

    In this fine-grained model PB's steady state already *is* one-forward-
    one-backward per worker per step, so the timing is inherited from
    :class:`PipelinedBackpropSchedule`; what changes is the weight
    discipline: every stage stashes the weights used on a sample's
    forward and reloads them around that sample's backward.  Forward
    staleness still follows eq. 5, but forward and backward of a sample
    are mutually consistent — equivalent to
    :class:`~repro.core.delayed_sgd.DelayedSGDM` with the pipeline delay
    profile and ``consistent=True`` (property-tested).
    """

    name = "1f1b"
    stash_weights = True


class FillDrainSchedule(Schedule):
    """``fill_drain`` — synchronous mini-batch SGD, one sample per slot.

    Injection is gated to the current mini-batch; once all its samples
    have drained, every stage applies the averaged update (plain SGDM —
    the pipeline is consistent and empty at that point).
    """

    name = "fill_drain"

    def __init__(self, update_size: int):
        if update_size < 1:
            raise ValueError(
                f"{self.name} needs update_size >= 1, got {update_size}"
            )
        self.update_size = int(update_size)
        self._batch_start = 0

    def reset(self, num_samples: int) -> None:
        self._batch_start = 0

    def _batch_end(self, state: ScheduleState) -> int:
        return min(state.num_samples, self._batch_start + self.update_size)

    def inject_size(self, state: ScheduleState) -> int:
        return 1 if state.next_sample < self._batch_end(state) else 0

    def end_step(
        self, flush: Callable[[int], None], state: ScheduleState
    ) -> None:
        batch_n = self._batch_end(state) - self._batch_start
        if batch_n and state.completed >= self._batch_start + batch_n:
            flush(batch_n)
            self._batch_start += batch_n

    def drain_span(self, num_samples: int, num_stages: int) -> int:
        """Synchronous schedules pay ``P + 2S - 2`` per mini-batch of
        ``P`` packets (samples / micro-batch width); the final batch is
        charged only for the packets it actually holds, so a sample in
        the middle of a batch drains with that batch's partial span."""
        if num_samples < 1:
            return 0
        fill = 2 * num_stages - 2
        full_batches = (num_samples - 1) // self.update_size
        remainder = num_samples - full_batches * self.update_size
        packets_per_batch = -(-self.update_size // self.micro_batch)
        remainder_packets = -(-remainder // self.micro_batch)
        return (
            full_batches * (packets_per_batch + fill)
            + remainder_packets
            + fill
        )


class GPipeSchedule(FillDrainSchedule):
    """``gpipe`` — micro-batched fill-and-drain (Huang et al. 2019).

    Identical update semantics to :class:`FillDrainSchedule` (averaged
    update once the mini-batch drains) but samples travel in micro-batch
    packets of ``micro_batch`` samples, each processed by a stage as one
    vectorized ``(B, ...)`` NumPy op.  With ``micro_batch=1`` this *is*
    fill-and-drain, bit for bit (golden-tested).
    """

    name = "gpipe"

    def __init__(self, update_size: int, micro_batch_size: int = 1):
        if micro_batch_size < 1:
            raise ValueError(
                f"gpipe needs micro_batch_size >= 1, got {micro_batch_size}"
            )
        if update_size == 1:
            # the default "unset" update size: one micro-batch per update
            update_size = micro_batch_size
        elif update_size < micro_batch_size:
            raise ValueError(
                f"gpipe update_size ({update_size}) must be >= "
                f"micro_batch_size ({micro_batch_size}), or 1 for one "
                "micro-batch per update"
            )
        super().__init__(int(update_size))
        self.micro_batch = int(micro_batch_size)

    def inject_size(self, state: ScheduleState) -> int:
        return max(
            0, min(self.micro_batch, self._batch_end(state) - state.next_sample)
        )


def make_schedule(
    mode: str, update_size: int = 1, micro_batch_size: int = 1
) -> Schedule:
    """Build a schedule by name (``pb``/``fill_drain``/``gpipe``/``1f1b``).

    ``update_size`` applies to the synchronous schedules; for ``gpipe``,
    ``micro_batch_size`` sets the packet width (and an ``update_size``
    of 1 means "one micro-batch per update").
    """
    if mode == "pb":
        return PipelinedBackpropSchedule()
    if mode == "1f1b":
        return OneFOneBSchedule()
    if mode == "fill_drain":
        return FillDrainSchedule(update_size)
    if mode == "gpipe":
        return GPipeSchedule(update_size, micro_batch_size)
    raise ValueError(f"mode must be one of {SCHEDULE_NAMES}, got {mode!r}")
