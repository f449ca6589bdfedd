"""Cycle-accurate pipeline engine (the "GProp" role).

Discrete-time simulation of the paper's fine-grained pipeline: at each
time step every stage performs at most one forward and one backward
transformation; packets travel one stage per step; the last stage
computes the loss and seeds the backward pass in the same step, so a
packet occupies ``2S - 1`` steps (paper §2).

The engine itself is schedule-agnostic and owns no tick logic: it
compiles the run's :class:`~repro.pipeline.schedule.Plan` with
:meth:`Schedule.plan <repro.pipeline.schedule.Schedule.plan>` — where
injection, update and flush timing are decided — and interprets it tick
by tick.  The schedules it runs:

* ``"pb"`` — pipelined backpropagation: continuous injection, each stage
  updates its weights the moment a gradient arrives (update size one).
  Weight versions then follow eq. 5 exactly: the forward pass of sample
  ``i`` at stage ``s`` sees weights with ``max(0, i - 2(S-1-s))`` updates
  applied (property-tested).
* ``"fill_drain"`` — pipeline-parallel mini-batch SGD: inject ``N``
  samples, drain completely, apply the averaged update, repeat.  This is
  numerically identical to sequential mini-batch SGDM (the Figure-16
  validation) and exposes the fill/drain utilization penalty of eq. 1.
* ``"gpipe"`` — micro-batched fill-and-drain (Huang et al. 2019): same
  update semantics as ``fill_drain`` but ``B`` samples move through a
  stage as one batched NumPy op, which is both the utilization story of
  GPipe and this executor's vectorized hot path.
* ``"1f1b"`` — PipeDream's one-forward-one-backward with per-stage
  weight stashing (Harlap et al. 2018): PB timing, but each sample's
  backward reuses its forward weights (zero inconsistency).

Schedules with packet size one reproduce the original per-sample engine
bit for bit (golden-tested in ``tests/test_schedules_golden.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from types import SimpleNamespace
from typing import Callable, Sequence

import numpy as np

from repro.core.mitigation import MitigationConfig
from repro.models.arch import StageGraphModel
from repro.optim.sgd import _check_lr_momentum
from repro.pipeline.schedule import (
    BWD,
    FLUSH,
    FWD,
    SET_LR,
    Plan,
    Schedule,
    make_schedule,
)
from repro.pipeline.stage import PipelineStage, load_stage_states
from repro.precision.policy import PrecisionPolicy, resolve_precision
from repro.tensor.tensor import log_softmax_array


def softmax_xent_grad_batch(
    logits: np.ndarray, labels: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Fused CE loss and dL/dlogits for a packet ``(B, K)``.

    Returns per-sample losses ``(B,)`` and the *unreduced* gradient
    ``(B, K)`` (one full gradient per sample; the schedules decide how
    gradients are averaged into updates).
    """
    B = logits.shape[0]
    log_probs = log_softmax_array(logits.reshape(B, -1), axis=1)
    rows = np.arange(B)
    labels = np.asarray(labels, dtype=np.int64).reshape(B)
    losses = -log_probs[rows, labels]
    grad = np.exp(log_probs)
    grad[rows, labels] -= 1.0
    return losses, grad.reshape(logits.shape)


def check_stages_drained(stages: Sequence["PipelineStage"]) -> None:
    """Raise if any stage still holds stashed packets after a run —
    shared post-train invariant of both pipeline engines."""
    for st in stages:
        if st.stash:
            raise RuntimeError(
                f"stage {st.index} finished with {len(st.stash)} stashed "
                "packets — pipeline did not drain"
            )


#: Seconds any single wait may block before a run is declared stalled.
#: Generous for real work, small enough that a deadlocked test fails
#: loudly instead of hanging CI.
DEFAULT_STALL_TIMEOUT = 60.0


@dataclass
class StageCounters:
    """Per-stage activity of one run (or one inference stream's
    lifetime): counted by the simulator's sweeps, or measured by the
    stage's own worker and collected at drain time."""

    index: int
    forward_ops: int = 0
    backward_ops: int = 0
    forward_samples: int = 0
    backward_samples: int = 0
    busy_seconds: float = 0.0
    #: a worker host's time blocked — idle, on a packet that has not
    #: arrived, on a full channel — and its returns from those blocks
    wait_seconds: float = 0.0
    wakeups: int = 0
    #: ... and its time handing packets on without blocking: taking one
    #: that is there, a send into a channel with room, a slot release
    handoff_seconds: float = 0.0
    #: a process host's placement diagnostics, read for its reply: the
    #: worker's context switches (``ru_nvcsw`` / ``ru_nivcsw``) and the
    #: CPUs it may run on
    voluntary_switches: int = 0
    involuntary_switches: int = 0
    cpus: tuple[int, ...] = ()

    @property
    def busy_steps(self) -> int:
        """Slot occupancy: one per packet transformation, the measured
        counterpart of one non-idle cell in an occupancy grid row."""
        return self.forward_ops + self.backward_ops

    def add(self, other: "StageCounters") -> None:
        """Fold in the same stage's counters from a concurrent replica:
        work, waits and switches sum, CPU sets unite."""
        for name in _SUMMED_COUNTERS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        self.cpus = tuple(sorted({*self.cpus, *other.cpus}))


_SUMMED_COUNTERS = tuple(
    f.name for f in fields(StageCounters) if f.name not in ("index", "cpus")
)


@dataclass
class PipelineRunStats:
    """The one record of a pipeline run — any engine, any host,
    training (``losses``) or forward-only (``outputs``).

    Its data is one :class:`StageCounters` per stage plus the run's
    span: everything else is derived.  ``stages[s].forward_ops`` /
    ``backward_ops`` count *slot* occupancy (one packet transformation
    each) and equal row ``s`` of the schedule's occupancy grid
    (:mod:`repro.pipeline.occupancy`); ``forward_samples`` /
    ``backward_samples`` count sample transformations, so a
    micro-batched op of ``B`` samples adds ``1`` to the former and ``B``
    to the latter.  ``time_steps`` is the plan's tick count (any
    training run; free-running workers have no global clock, so for
    them it is the span the plan models) or, forward-only,
    :meth:`InferenceSchedule.drain_span
    <repro.pipeline.inference.InferenceSchedule.drain_span>`: the span
    utilization — the paper's eq. 1 — is judged against.

    ``backend`` names the host that ran the stages (``"sim"``,
    ``"threaded"`` or ``"process"``) and ``mode`` how they were clocked
    (``"lockstep"`` or ``"free_running"``).  A worker host also measures:
    ``wall_seconds`` is stage 0's own span, from its first forward to the
    end of its last op, on its worker's clock, and each
    stage's ``busy_seconds`` sums its time inside forward/backward
    transformations, so :meth:`idle_seconds` is measured (not modeled)
    pipeline bubble time; ``wait_seconds`` / ``wakeups`` are the part of
    it the worker spent blocked, and how often it was woken, and
    ``handoff_seconds`` the part it spent passing packets on.  The
    simulator leaves them all at zero.
    """

    stages: list[StageCounters]
    time_steps: int
    schedule: str = "pb"
    micro_batch: int = 1
    #: per-sample training losses, in stream order (``None`` for a
    #: forward-only run)
    losses: np.ndarray | None = None
    #: the last compute stage's logits, one row per input sample in
    #: input order (``None`` for a training run)
    outputs: np.ndarray | None = None
    updates_per_stage: list[int] = field(default_factory=list)
    wall_seconds: float = 0.0
    backend: str = "sim"
    mode: str = "lockstep"
    #: Data-parallel pipeline replicas this record aggregates
    #: (:meth:`merge_replicas`).  The replicas ran concurrently over one
    #: window, so every capacity — worker steps, per-stage wall budget —
    #: scales by it; without the factor R perfectly busy replicas would
    #: report R× utilization.
    replicas: int = 1
    #: control-plane traffic of a worker-hosted training run, lockstep
    #: or free-running — both run the plan (``protocol: "plan"``): the
    #: parent sends nothing and receives one reply per worker
    #: (``msgs_received`` is the stage count, ``msgs_per_step`` that over
    #: the plan's ticks, no acks).  ``None`` for the simulator,
    #: forward-only runs and merged replica records.
    control: dict | None = None

    @property
    def runtime(self) -> "PipelineRunStats | None":
        """Read-only compatibility member for ``benchmarks/perf``
        (frozen for the PR that folded ``RuntimeStats`` into this
        record): ``None`` for a simulator run, else the record itself.
        The next ``[benchmark]`` PR removes it."""
        return None if self.backend == "sim" else self

    @property
    def num_stages(self) -> int:
        return len(self.stages)

    @property
    def samples(self) -> int:
        data = self.outputs if self.losses is None else self.losses
        return int(data.shape[0])

    @property
    def forward_ops(self) -> int:
        return sum(st.forward_ops for st in self.stages)

    @property
    def backward_ops(self) -> int:
        return sum(st.backward_ops for st in self.stages)

    @property
    def forward_samples(self) -> int:
        return sum(st.forward_samples for st in self.stages)

    @property
    def backward_samples(self) -> int:
        return sum(st.backward_samples for st in self.stages)

    @property
    def utilization(self) -> float:
        """Fraction of worker-step capacity used.

        Each worker can process one forward and one backward packet of up
        to ``micro_batch`` samples per step, so capacity is counted in
        sample transformations (``2 * S * T * B`` per replica, ``R``
        replicas) and work in actual sample transformations — a
        partially-filled tail micro-batch counts fractionally rather
        than as a full op.

        A zero-step run (empty stream) has zero capacity *and* zero
        work; its utilization is defined as 0.0 rather than left to a
        0/0 accident.
        """
        if self.time_steps <= 0:
            return 0.0
        capacity = (
            2.0 * self.num_stages * self.time_steps
            * max(self.micro_batch, 1) * max(self.replicas, 1)
        )
        return (self.forward_samples + self.backward_samples) / capacity

    @property
    def busy_seconds(self) -> float:
        return sum(st.busy_seconds for st in self.stages)

    def busy_fraction(self, stage_index: int) -> float:
        if self.wall_seconds <= 0.0:
            return 0.0
        wall = self.wall_seconds * max(self.replicas, 1)
        return self.stages[stage_index].busy_seconds / wall

    def idle_seconds(self, stage_index: int) -> float:
        wall = self.wall_seconds * max(self.replicas, 1)
        return max(0.0, wall - self.stages[stage_index].busy_seconds)

    @property
    def mean_busy_fraction(self) -> float:
        if not self.stages:
            return 0.0
        return sum(
            self.busy_fraction(s) for s in range(self.num_stages)
        ) / self.num_stages

    def summary_rows(self) -> list[dict]:
        """One row per stage, ready for ``format_table``."""
        return [
            {
                "stage": st.index,
                "fwd_ops": st.forward_ops,
                "bwd_ops": st.backward_ops,
                "busy_s": round(st.busy_seconds, 6),
                "busy_frac": round(self.busy_fraction(s), 4),
            }
            for s, st in enumerate(self.stages)
        ]

    @property
    def throughput(self) -> float:
        """Samples per wall-clock second (NaN for an unmeasured run)."""
        if self.wall_seconds <= 0.0:
            return float("nan")
        return self.samples / self.wall_seconds

    @property
    def mean_loss(self) -> float:
        """Mean per-sample loss; NaN (not a crash, not 0.0) for the
        empty stream and for a forward-only run, which has no losses,
        so downstream aggregation can't mistake a run that computed no
        loss for a perfectly-converged one."""
        if self.losses is None or not self.losses.size:
            return float("nan")
        return float(self.losses.mean())

    @staticmethod
    def merge_replicas(
        parts: Sequence["PipelineRunStats"],
        losses: np.ndarray,
        updates_per_stage: list[int] | None = None,
    ) -> "PipelineRunStats":
        """Merge per-replica run records into one sample-accurate record.

        ``losses`` is the already-scattered global loss array (per-replica
        losses mapped back to their global stream positions).  The
        replicas ran concurrently over one window, so per-stage work
        (ops, samples, busy and wait seconds, wake-ups) is summed
        (:meth:`StageCounters.add`) while ``time_steps`` and
        ``wall_seconds`` are the *max* — never the sum, which would
        double-count capacity and deflate utilization — and ``replicas``
        accumulates so every capacity scales by ``R``.
        """
        if not parts:
            raise ValueError("merge_replicas needs at least one record")
        first = parts[0]
        for p in parts[1:]:
            if (
                p.num_stages != first.num_stages
                or p.schedule != first.schedule
                or p.micro_batch != first.micro_batch
            ):
                raise ValueError(
                    "merge_replicas: mismatched per-replica records "
                    f"({p.schedule}/{p.num_stages}/{p.micro_batch} vs "
                    f"{first.schedule}/{first.num_stages}/"
                    f"{first.micro_batch})"
                )
        stages = []
        for s in range(first.num_stages):
            merged = StageCounters(index=s)
            for p in parts:
                merged.add(p.stages[s])
            stages.append(merged)
        return PipelineRunStats(
            stages=stages,
            time_steps=max(p.time_steps for p in parts),
            schedule=first.schedule,
            micro_batch=first.micro_batch,
            losses=losses,
            updates_per_stage=list(
                first.updates_per_stage
                if updates_per_stage is None
                else updates_per_stage
            ),
            wall_seconds=max(p.wall_seconds for p in parts),
            backend=first.backend,
            mode=first.mode,
            replicas=sum(max(p.replicas, 1) for p in parts),
        )


class PipelineExecutor:
    """Drive a :class:`StageGraphModel` through the pipeline, updating the
    model's parameters in place (they are shared with the stages).

    The schedule may be named via ``mode`` (with ``update_size`` /
    ``micro_batch_size`` forwarded to :func:`make_schedule`) or passed
    ready-made via ``schedule`` (which then wins).

    This class is the engine surface of every runtime: the worker-hosted
    engines of :mod:`repro.pipeline.runtime` subclass it and override
    only how a validated batch is run (:meth:`_run`) and the attributes
    below, which the run record keys on.  It trains; to serve its
    weights, open :meth:`InferenceSession.from_engine
    <repro.serve.session.InferenceSession.from_engine>` on it.
    """

    #: the host that runs the stages: ``"sim"`` is this class's own loop
    _backend = "sim"
    #: the simulator is the tick-by-tick reference by construction
    lockstep = True
    replicas = 1

    def __init__(
        self,
        model: StageGraphModel,
        lr: float,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
        mitigation: MitigationConfig | None = None,
        mode: str = "pb",
        update_size: int = 1,
        micro_batch_size: int = 1,
        lr_schedule: Callable[[int], float] | None = None,
        record_versions: bool = False,
        schedule: Schedule | None = None,
        precision: "PrecisionPolicy | str | None" = None,
    ):
        _check_lr_momentum(lr, momentum)
        if schedule is None:
            schedule = make_schedule(
                mode, update_size=update_size, micro_batch_size=micro_batch_size
            )
        specs = model.stage_defs
        if not specs or specs[-1].kind != "loss":
            raise ValueError("model must end with a loss stage")
        self.precision = resolve_precision(precision)
        if not self.precision.trainable:
            raise ValueError(
                f"precision mode {self.precision.mode!r} is serving-only; "
                "training engines accept 'float64', 'float32' or 'bf16'"
            )
        if not self.precision.is_reference:
            # one-time cast: parameters/buffers land on the policy's
            # storage grid, so activations, gradients and (in the
            # process runtime) every shm-ring slot follow its dtype
            self.precision.cast_model(model)
        self.model = model
        self.schedule = schedule
        self.mode = schedule.name
        self.update_size = schedule.update_size
        self.lr_schedule = lr_schedule
        self.mitigation = mitigation or MitigationConfig.none()
        self.stages = [
            PipelineStage(
                i,
                spec,
                len(specs),
                lr=lr,
                momentum=momentum,
                weight_decay=weight_decay,
                mitigation=self.mitigation,
                precision=self.precision,
            )
            for i, spec in enumerate(specs)
        ]
        for st in self.stages:
            st.record_versions = record_versions
            st.always_stash = schedule.stash_weights
        self.samples_completed = 0
        #: the record the latest ``train()`` call returned
        self.last_runtime_stats: PipelineRunStats | None = None

    @property
    def num_stages(self) -> int:
        return len(self.stages)

    @property
    def runtime_mode(self) -> str:
        return "lockstep" if self.lockstep else "free_running"

    def set_lr(self, lr: float) -> None:
        for st in self.stages:
            st.lr = float(lr)

    # -- engine state (checkpoint/resume) -----------------------------------

    def state_dict(self) -> dict:
        """Complete engine state at a drain barrier.

        Captures every stage's weights/velocity/previous-weights/counters
        (via :meth:`PipelineStage.state_dict`, which refuses mid-flight
        stages) plus the engine-level progress counter that drives the LR
        schedule, tagged with the schedule identity so a restore into a
        differently-configured engine fails loudly.  Valid only between
        :meth:`train` calls — exactly the safe points the checkpoint
        subsystem (:mod:`repro.pipeline.checkpoint`) snapshots at.
        """
        return {
            "schedule": {
                "name": self.schedule.name,
                "update_size": int(self.schedule.update_size),
                "micro_batch": int(self.schedule.micro_batch),
            },
            "num_stages": self.num_stages,
            "samples_completed": int(self.samples_completed),
            "stages": [st.state_dict() for st in self.stages],
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot into this engine.

        The schedule identity and stage count must match, and every
        stage's arrays are validated *before* any stage is mutated, so a
        mismatched checkpoint can never leave the engine torn.  Stashes
        are cleared stage by stage (loaded state is a drain-barrier
        snapshot; anything in flight is stale by definition).
        """
        sched = state.get("schedule", {})
        mine = (
            self.schedule.name,
            int(self.schedule.update_size),
            int(self.schedule.micro_batch),
        )
        theirs = (
            sched.get("name"),
            int(sched.get("update_size", -1)),
            int(sched.get("micro_batch", -1)),
        )
        if mine != theirs:

            def _fmt(tag: tuple) -> str:
                return (
                    f"{tag[0]!r} (update_size={tag[1]}, "
                    f"micro_batch={tag[2]})"
                )

            # name BOTH schedule tags — the on-disk one and this
            # engine's — so a mis-paired checkpoint is diagnosable from
            # the message alone
            raise ValueError(
                "engine state was captured under schedule "
                f"{_fmt(theirs)} but this engine runs {_fmt(mine)}"
            )
        if int(state["num_stages"]) != self.num_stages:
            raise ValueError(
                f"engine state has {state['num_stages']} stages, this "
                f"engine has {self.num_stages}"
            )
        load_stage_states(self.stages, state["stages"])
        self.samples_completed = int(state["samples_completed"])

    # -- training -----------------------------------------------------------

    def train(self, X: np.ndarray, Y: Sequence[int]) -> PipelineRunStats:
        """Stream all samples through the pipeline (training mode)."""
        X = self.precision.cast_array(X)
        Y = np.asarray(Y)
        if X.shape[0] != Y.shape[0]:
            raise ValueError("X and Y length mismatch")
        stats = self.last_runtime_stats = self._run(X, Y)
        return stats

    def _record(
        self, stages: list[StageCounters], time_steps: int,
        losses: np.ndarray, **measured,
    ) -> PipelineRunStats:
        """The record of a training run on this engine."""
        return PipelineRunStats(
            stages=stages,
            time_steps=time_steps,
            schedule=self.schedule.name,
            micro_batch=self.schedule.micro_batch,
            losses=losses,
            updates_per_stage=[st.updates_applied for st in self.stages],
            backend=self._backend,
            mode=self.runtime_mode,
            replicas=self.replicas,
            **measured,
        )

    def _compile(self, num_samples: int) -> Plan:
        """This run's plan, with the LR schedule (if any) evaluated on the
        engine's running sample count."""
        lr_at = None
        if self.lr_schedule is not None:
            base, schedule = self.samples_completed, self.lr_schedule
            lr_at = lambda done: schedule(base + done)  # noqa: E731
        return self.schedule.plan(num_samples, self.num_stages, lr_at)

    def _run(self, X: np.ndarray, Y: np.ndarray) -> PipelineRunStats:
        """Run one validated batch: here, every op of the plan in order,
        over the whole stage range (packets are keyed by ordinal; each
        is at one stage per tick)."""
        plan = self._compile(X.shape[0])
        S = self.num_stages
        update = [self.schedule.update_after_backward(s) for s in range(S)]

        def complete(p: int, start: int, size: int, upstream) -> None:
            self.samples_completed += size

        # data into stage 0, completions out of it
        edges = SimpleNamespace(
            fwd_in=lambda p, start, size: [X[start : start + size]],
            bwd_out=complete,
        )
        ops = StageOps(self.stages, plan.packets, Y, edges, update)
        ops.run(plan.ops(0, S - 1))
        check_stages_drained(self.stages)
        return self._record(ops.counters, len(plan.ticks), ops.losses)


class StageOps:
    """The op bodies — ``FWD`` / ``BWD`` / ``FLUSH`` / ``SET_LR`` — over
    the contiguous stages ``stages`` (``a..b``), written once for the
    simulator (every stage), a stage-group worker and a free-running
    one-stage worker.  Inside the range packets pass through ``acts`` /
    ``grads``, keyed by packet ordinal (``packets[p]`` is its ``(start,
    size)``); ``edges`` supplies the rest: ``fwd_in`` into ``a`` (data at
    stage 0), ``fwd_out`` of ``b``, ``bwd_in`` into ``b`` (unless the
    loss stage seeds it) and ``bwd_out`` of ``a`` (at stage 0, the
    packet's completion).  ``clock`` times the transformations into
    ``busy_seconds``; the simulator's leaves them at zero."""

    def __init__(self, stages, packets, labels, edges, update, clock=None):
        self.stages = list(stages)
        self.lo, self.hi = self.stages[0].index, self.stages[-1].index
        self.packets = packets
        self.labels = labels
        self.edges = edges
        self.update = list(update)  # apply each stage's gradient at once?
        self.clock = clock or (lambda: 0.0)
        self.counters = [StageCounters(st.index) for st in self.stages]
        loss = self.stages[-1].spec.kind == "loss"
        self.losses = np.zeros(len(labels)) if loss else None
        self.grad_edge = None if loss else self.hi  # where bwd_in enters
        self.acts: dict[int, list] = {}  # payload entering a forward
        self.grads: dict[int, list] = {}  # ... and a backward
        #: the stage whose op runs now: an error names this stage
        self.active = self.lo
        self._step = {
            FWD: self.forward, BWD: self.backward,
            FLUSH: self.flush, SET_LR: self.set_lr,
        }

    def run(self, ops) -> None:
        """Run ``(kind, stage, arg)`` ops in order."""
        step = self._step
        for kind, s, arg in ops:
            step[kind](s, arg)

    def forward(self, s: int, p: int) -> None:
        self.active = s
        start, size = self.packets[p]
        k = s - self.lo
        stage = self.stages[k]
        payload = self.edges.fwd_in(p, start, size) if k == 0 else (
            self.acts.pop(p)
        )
        t0 = self.clock()
        if stage.spec.kind == "loss":
            lvec, glogits = softmax_xent_grad_batch(
                payload[0], self.labels[start : start + size]
            )
            self.losses[start : start + size] = lvec
            out = None
        else:
            out = stage.forward(start, payload)
        c = self.counters[k]
        c.forward_ops += 1
        c.forward_samples += size
        c.busy_seconds += self.clock() - t0
        if out is None:
            # the loss seeds this packet's backward (the plan's BWD in
            # the same tick); the gradient is a fresh array
            self.grads[p] = [glogits]
        elif s == self.hi:
            self.edges.fwd_out(p, start, size, out)
        else:
            self.acts[p] = out

    def backward(self, s: int, p: int) -> None:
        self.active = s
        start, size = self.packets[p]
        k = s - self.lo
        stage = self.stages[k]
        grads = self.edges.bwd_in(p, start, size) if s == self.grad_edge else (
            self.grads.pop(p)
        )
        t0 = self.clock()
        upstream = stage.backward(start, grads)
        if self.update[k]:
            stage.apply_update()
        c = self.counters[k]
        c.backward_ops += 1
        c.backward_samples += size
        c.busy_seconds += self.clock() - t0
        if k:
            self.grads[p] = upstream
        else:
            self.edges.bwd_out(p, start, size, upstream)

    def flush(self, _s: int, count: int) -> None:
        for stage in self.stages:
            stage.flush_update(count)

    def set_lr(self, _s: int, lr: float) -> None:
        for stage in self.stages:
            stage.lr = lr
