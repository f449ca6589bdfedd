"""Concurrent pipeline training engines (wall-clock counterparts of
:class:`~repro.pipeline.executor.PipelineExecutor`).

The executor is a discrete-time *simulation*: one Python loop plays every
stage's forward and backward sweep sequentially, so its utilization
numbers are modeled, never measured.  The engines here execute the same
pipeline the way PipeDream (Harlap et al. 2018) and torchgpipe (Kim et
al. 2020) actually run one — **one worker per stage**, each transforming
a ``(B, ...)`` micro-batch the moment it has one — by driving a
:class:`~repro.pipeline.worker.WorkerGroup` (the per-stage loop, its
channels and its control protocol are described once, in
:mod:`repro.pipeline.worker`).  The
:class:`~repro.pipeline.schedule.Schedule` protocol is reused unchanged:
injection gating, per-gradient vs averaged updates and weight stashing
are the schedule's decisions in every engine.

Every engine here *is* a :class:`PipelineExecutor` — same stages,
schedule, optimizer state, ``state_dict``, ``train`` and ``infer`` —
that overrides one step: how a validated batch is run.  This module is
that step's parent side: ``train`` → ``_run`` (the crash-recovery
restart loop) → ``_train_attempt`` → ``_launch`` (compile the plan,
start the group) → ``_drive`` (collect one reply per worker, tear the
group down).
:class:`ConcurrentPipelineRunner` and :class:`ProcessPipelineRunner`
differ only in which host the group uses (threads over the engine's own
stage objects, or processes over shared-memory rings with crash
recovery); :class:`ReplicatedPipelineRunner` runs ``R`` process
pipelines side by side with a cross-replica gradient reduction.

Two execution modes
-------------------

Both modes are one protocol.  Every launch compiles the schedule
(:meth:`Schedule.plan <repro.pipeline.schedule.Schedule.plan>`) and
ships each worker its own column — the same plan the simulator
interprets, flushes and LR changes included — and stage 0 the plan's
packets, which it reads itself.  The parent is off the hot path: it
sends nothing, writes no packet and waits for one ``("state", ...)``
reply per worker, each sent when that worker's column ends.  Stall
detection is progress-based without messages: the wait restarts its
deadline whenever stage 0's completion count (shared state beside the
abort flag) moves.  The modes differ only in how strictly a worker
follows its column (:mod:`repro.pipeline.worker`, "The loop").

**lockstep** (``lockstep=True``) runs the column op by op, blocking on
its channels.  A lockstep run is **bit-exact** with the simulator for
every schedule — the contract pinned by ``tests/test_runtime_parity.py``
and ``tests/test_process_runtime.py`` — without a per-tick barrier.

**free-running** (``lockstep=False``, the default) runs the ops between
two flushes as soon as packets arrive, which is the paper's actual
claim — fine-grained pipelining keeps all stages busy in *wall-clock*
time.  Losses and final weights are no longer bit-reproducible for the
asynchronous schedules (``pb``/``1f1b``), because how far a gradient has
travelled when a forward happens now depends on worker timing; what *is*
guaranteed is the eq.-5 staleness ceiling (the workers' in-flight caps),
packet FIFO ordering per stage, every op's learning rate (the one the
simulator gives it), and exact schedule semantics for the synchronous
schedules (``fill_drain``/``gpipe`` flush the averaged update between
the same two batches at every stage, so their losses and weights equal
the simulator's bit for bit).

Every run returns the same record the simulator does
(:class:`~repro.pipeline.executor.PipelineRunStats`, described there),
here with measured per-stage busy/idle wall-clock time next to the
per-stage op counts; the op counts equal the modeled occupancy-grid
totals of :mod:`repro.pipeline.occupancy` row by row (property-tested),
tying the measured runtime back to the paper's timing model.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

import numpy as np

from repro.core.mitigation import MitigationConfig
from repro.data.loader import shard_positions
from repro.models.arch import StageGraphModel
from repro.pipeline.executor import (
    DEFAULT_STALL_TIMEOUT,
    PipelineExecutor,
    PipelineRunStats,
    check_stages_drained,
)
from repro.pipeline.schedule import FLUSH, Plan, Schedule, make_schedule
from repro.pipeline.stage import STATE_ARRAYS, load_stage_states
from repro.pipeline.transport import ShmRing, build_reduce_rings
from repro.pipeline.worker import (
    PipelineRuntimeError,
    WorkerGroup,
    _ReduceSpec,
    resolve_start_method,
)


class _WorkerGroupEngine(PipelineExecutor):
    """A :class:`PipelineExecutor` whose batches run on a
    :class:`~repro.pipeline.worker.WorkerGroup` instead of the
    discrete-time loop: the training driver the concurrent runners
    share.  Subclasses pick the worker host through ``_backend``.
    """

    _backend = "threaded"
    max_restarts = 0
    #: the live worker group of the ``train()`` call in progress
    _group: WorkerGroup | None = None
    #: per-stage reduce slices, set by :class:`ReplicatedPipelineRunner`
    #: before a launch so flushes run the cross-replica reduction
    _reduce_plan: list[_ReduceSpec] | None = None
    #: the plan of the ``train()`` call in progress
    _plan: Plan | None = None

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
        lockstep: bool = False,
        stall_timeout: float = DEFAULT_STALL_TIMEOUT,
        precision: "str | None" = None,
    ):
        super().__init__(
            model, lr, momentum, weight_decay, mitigation, mode, update_size,
            micro_batch_size, lr_schedule, record_versions, schedule,
            precision,
        )
        self.lockstep = bool(lockstep)
        self.stall_timeout = float(stall_timeout)
        self.restarts_used = 0
        self._layout_cache: dict[tuple, list] = {}

    @property
    def _procs(self) -> list:
        """The live workers (empty between ``train()`` calls)."""
        group = self._group  # one read: other threads watch this
        return group.workers if group is not None else []

    @property
    def _rings(self) -> list:
        """The live channels (empty between ``train()`` calls)."""
        group = self._group
        return group.rings if group is not None else []

    # -- one batch ----------------------------------------------------------

    def _run(self, X: np.ndarray, Y: np.ndarray) -> PipelineRunStats:
        """Stream the batch through the worker pipeline.

        With ``max_restarts > 0`` a dead stage worker does not kill the
        run: the engine state captured at this call's entry (a drain
        barrier) is restored, all workers respawn from it, and the
        partial batch replays — bit-identical to a crash-free run (see
        :class:`ProcessPipelineRunner`).
        """
        if X.shape[0] == 0:
            # nothing to launch workers for: the discrete-time loop's
            # zero-step run is the record of an empty stream
            return super()._run(X, Y)
        X = np.ascontiguousarray(X)
        snapshot = self.state_dict() if self.max_restarts > 0 else None
        attempt = 0
        while True:
            try:
                return self._train_attempt(X, Y)
            except PipelineRuntimeError:
                if snapshot is None or attempt >= self.max_restarts:
                    raise
                attempt += 1
                self.restarts_used += 1
                # every worker (and its channels) is already gone — the
                # attempt tore its group down; rewind to the entry drain
                # barrier and replay the batch
                self.load_state_dict(snapshot)

    def _train_attempt(self, X: np.ndarray, Y: np.ndarray) -> PipelineRunStats:
        """One launch/drive cycle (crash recovery replays it)."""
        return self._drive(self._launch(X, Y))

    def _launch(
        self, X: np.ndarray, Y: np.ndarray, empty_rounds: int = 0
    ) -> WorkerGroup:
        """Compile the plan and start this attempt's workers, each on
        its stage's column, stage 0 with the plan's packets.  Apart from
        :meth:`_drive` because the replicated runner launches every
        group before it waits on any, and passes the reduce rounds a
        replica's shard holds no samples of — ``(FLUSH, 0)`` ops at the
        end of every column, which is also why an empty shard still
        launches workers."""
        self._plan = self._compile(X.shape[0])
        columns = [
            self._plan.column(s) + [(FLUSH, 0)] * empty_rounds
            for s in range(self.num_stages)
        ]
        inputs = [
            (start, start, size, [X[start : start + size]])
            for start, size in self._plan.packets
        ]
        width = max(1, self.schedule.micro_batch)
        self._group = WorkerGroup(
            self.stages,
            np.zeros((width,) + X.shape[1:], dtype=X.dtype),
            processes=self._backend == "process",
            name="pipeline-stage",
            stall_timeout=self.stall_timeout,
            plan=columns,
            lockstep=self.lockstep,
            update_after_backward=self.schedule.update_after_backward,
            batch=(inputs, Y),
            reduce_plan=self._reduce_plan,
            model_factory=self.model_factory,
            start_method=self.start_method,
            layout_cache=self._layout_cache,
        )
        return self._group

    def _drive(self, group: WorkerGroup, watch=None) -> PipelineRunStats:
        """Collect every worker's one reply — its measurements and, from
        a process host, its trained state — and tear the group down.
        ``watch`` replaces the group's own health check while waiting
        (:meth:`WorkerGroup.recv`)."""
        plan = self._plan
        S = self.num_stages
        failed = True
        try:
            payloads = [group.recv(s, "state", watch)[1] for s in range(S)]
            failed = False
        finally:
            group.teardown(failed)
            self._group = self._plan = None
        for stage, payload in zip(self.stages, payloads):
            if payload["state"] is not None:
                stage.load_state_dict(payload["state"])
            stage.version_trace.extend(payload["version_trace"])
        check_stages_drained(self.stages)
        losses = payloads[-1]["losses"]
        self.samples_completed += losses.shape[0]
        # free-running has no global clock: the plan's span is what
        # lockstep and the simulator take, so utilization stays comparable
        time_steps = len(plan.ticks)
        control = {
            "protocol": "plan",
            "time_steps": time_steps,
            "num_stages": S,
            # the parent sends nothing while a plan runs: its only
            # control traffic is each worker's one reply
            "msgs_received": S,
            "acks_received": 0,
            "msgs_per_step": S / time_steps if time_steps else 0.0,
        }
        return self._record(
            [c for payload in payloads for c in payload["counters"]],
            time_steps,
            losses,
            wall_seconds=payloads[0]["span"],
            control=control,
        )


class ConcurrentPipelineRunner(_WorkerGroupEngine):
    """Execute a :class:`StageGraphModel` pipeline with one worker thread
    per stage (see module docstring for the design).

    The constructor is :class:`PipelineExecutor`'s, plus:

    lockstep:
        ``True`` for the tick-by-tick mode that is bit-exact with the
        simulator; ``False`` (default, matching
        :func:`make_pipeline_engine`) for free-running.  The default is
        the performance mode — pass ``lockstep=True`` explicitly
        wherever reproducibility matters.
    stall_timeout:
        Seconds any coordinator wait may block before the run raises
        instead of hanging.

    The workers operate on ``self.stages`` themselves: nothing is copied
    or shipped, and a method shadowed on a stage instance is the one the
    worker calls — which is how the stress tests perturb interleavings
    (a ``tests/conftest.py`` helper wraps ``stage.forward`` /
    ``stage.backward`` in seeded sleeps; lockstep results must be — and
    are — unchanged under any interleaving).
    """


class ProcessPipelineRunner(_WorkerGroupEngine):
    """Execute a :class:`StageGraphModel` pipeline with one worker
    *process* per stage and shared-memory packet transport.

    The threaded runner shares one interpreter, so NumPy dispatch
    serializes on the GIL; here every stage is an OS process and
    activations/gradients move through the shared-memory rings of
    :mod:`repro.pipeline.transport`.  Same constructor as
    :class:`ConcurrentPipelineRunner`, plus:

    model_factory:
        Spawn-safe callable rebuilding the model from scratch (a
        module-level function or ``functools.partial``).  Required for
        ``start_method="spawn"``, unused under ``"fork"``.
    start_method:
        ``"fork"`` (default where available) or ``"spawn"``.  It alone
        picks the launch path: forked workers inherit the parent's stage
        objects, spawned workers reconstruct them from ``model_factory``
        via :class:`StageBuildSpec` and load the shipped
        ``PipelineStage.state_dict``.
    max_restarts:
        Crash recovery: how many times one :meth:`train` call may
        respawn its workers after a stage worker dies (``0``, the
        default, keeps the fail-fast behavior of raising
        :class:`PipelineRuntimeError`).  Every ``train`` entry is a
        drain barrier, so the runner snapshots the engine state there
        (:meth:`PipelineExecutor.state_dict`); when a worker is found
        dead — its control pipe hits EOF, or the liveness watchdog
        spots the exited process while another worker blocks on it —
        the run tears everything down, restores the snapshot, respawns
        all workers from it and replays the partial batch.  The replay
        starts from a consistent global state, so a recovered run is
        bit-identical to one that never crashed; ``restarts_used``
        counts the recoveries actually taken.  Recovery restarts *all*
        stages rather than just the dead one: in-flight packets die
        with the worker, and only drain-barrier state is globally
        consistent — a single-stage respawn could never be bit-exact.

    Workers hold a copy of their stage; trained weights, optimizer
    state, per-stage op counts/busy seconds, losses and version traces
    all ship back to the parent at drain time, so after ``train()`` the
    master model is updated in place just like with the other engines.
    Shared memory is created and torn down per ``train()`` call.
    """

    _backend = "process"

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
        lockstep: bool = False,
        stall_timeout: float = DEFAULT_STALL_TIMEOUT,
        model_factory: Callable[[], StageGraphModel] | None = None,
        start_method: str | None = None,
        max_restarts: int = 0,
        precision: "str | None" = None,
    ):
        super().__init__(
            model, lr, momentum, weight_decay, mitigation, mode, update_size,
            micro_batch_size, lr_schedule, record_versions, schedule,
            lockstep, stall_timeout, precision,
        )
        self.model_factory = model_factory
        self.start_method = resolve_start_method(start_method, model_factory)
        if max_restarts < 0:
            raise ValueError(f"max_restarts must be >= 0, got {max_restarts}")
        self.max_restarts = int(max_restarts)


class ReplicatedPipelineRunner(ProcessPipelineRunner):
    """Hybrid parallelism: ``R`` data-parallel copies of the ``S``-stage
    pipeline over the process runtime (PipeDream-2BW-style replication,
    Narayanan et al. 2021).

    Each replica is a full :class:`ProcessPipelineRunner` (one worker
    process per stage) consuming a disjoint **block-cyclic shard** of the
    sample stream: sample ``i`` belongs to replica ``(i // U) % R`` where
    ``U`` is the per-replica update size (see
    :func:`repro.data.loader.shard_positions`).  That layout makes each
    replica's contribution to global batch ``k`` a contiguous slice of
    the stream, which is what lets the reduction reproduce a single
    pipeline's gradient math bit for bit.

    Synchronous schedules (``fill_drain``/``gpipe``) reduce gradients at
    every update barrier over a shared-memory **chain reduce plane**
    (:func:`~repro.pipeline.transport.build_reduce_rings`): per-packet
    gradient segments fold across replicas in stream order, so the
    global sum — and therefore every update — is hex-identical to one
    pipeline running update size ``R*U``.  That is this runner's testable
    contract (``tests/test_replica_parity.py``): replication changes
    wall-clock parallelism, not the trajectory.

    Asynchronous schedules (``pb``/``1f1b``) keep their fine-grained
    per-gradient updates *within* each replica — reducing every
    per-sample update across replicas would serialize exactly what the
    paper pipelines — and merge at the ``train()`` drain barrier by
    averaging per-replica weight deltas (folded in rank order, so the
    merge is deterministic).  The eq.-5 staleness ceiling holds *per
    replica* with local sample indices, since each replica is an
    unmodified S-stage pipeline over its shard.

    Module buffers are the exception under both kinds of schedule:
    BatchNorm running statistics are *shard-local* (a replica
    normalizes only the samples it saw), so they are exempt from the
    replicas-agree check and merge as the rank-order mean.

    Contract deviations from the single-pipeline engines, documented:

    * ``model_factory`` is required (every replica rebuilds the model),
      and a ready-made ``schedule`` object is rejected — the runner
      derives the per-replica schedule (update size ``U``) and the
      master schedule (update size ``R*U`` for synchronous modes, so
      checkpoint schedule tags and :class:`DurableRun` cadences match
      the equivalent single pipeline).
    * ``lr_schedule`` is evaluated once per ``train()`` call at its
      entry drain barrier (on the master's ``samples_completed``), not
      per update: mid-batch LR changes cannot be reduced consistently
      across replicas without serializing them.
    * every parameter must receive a gradient in every packet's
      backward (true for all stage graphs in this repo); per-packet
      parameter sparsity is not supported in reduce mode.

    Crash recovery follows :class:`ProcessPipelineRunner`: with
    ``max_restarts > 0``, a dead worker in *any* replica aborts all
    replicas, restores the master snapshot taken at ``train()`` entry,
    and replays the batch — a replica death recovers exactly like a
    stage death, and the replay is bit-identical to a crash-free run.
    Checkpointing via :class:`DurableRun`/:func:`capture_checkpoint`
    works unchanged: between ``train()`` calls the authoritative state
    lives in this runner's own stages.
    """

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
        lockstep: bool = False,
        stall_timeout: float = DEFAULT_STALL_TIMEOUT,
        model_factory: Callable[[], StageGraphModel] | None = None,
        start_method: str | None = None,
        max_restarts: int = 0,
        replicas: int = 2,
        precision: "str | None" = None,
    ):
        if replicas < 2:
            raise ValueError(
                f"ReplicatedPipelineRunner needs replicas >= 2, got "
                f"{replicas} (use ProcessPipelineRunner for one replica)"
            )
        if schedule is not None:
            raise ValueError(
                "ReplicatedPipelineRunner derives its per-replica and "
                "master schedules from mode/update_size/micro_batch_size; "
                "a ready-made schedule object cannot be split"
            )
        if model_factory is None:
            raise ValueError(
                "ReplicatedPipelineRunner requires a spawn-safe "
                "model_factory: every replica rebuilds the model in its "
                "own worker processes"
            )
        self.replicas = int(replicas)
        rep_schedule = make_schedule(mode, update_size, micro_batch_size)
        if rep_schedule.forward_only:
            raise ValueError(
                f"schedule {rep_schedule.name!r} is forward-only; "
                "replication applies to training"
            )
        #: synchronous schedules reduce gradients at every update
        #: barrier; asynchronous ones run independent replicas merged
        #: at the train() drain barrier
        self._sync = not rep_schedule.update_after_backward(0)
        #: per-replica update size = the block-cyclic shard block
        self._block = max(1, int(rep_schedule.update_size))
        super().__init__(
            model, lr, momentum, weight_decay, mitigation, mode,
            self._block * self.replicas if self._sync else update_size,
            micro_batch_size, lr_schedule, record_versions, None,
            lockstep, stall_timeout, model_factory,
            start_method, max_restarts, precision,
        )
        #: the R inner single-pipeline runners (``replica_runners[r]``
        #: is rank r); exposed so tests can reach per-replica state
        #: (version traces, worker pids) directly
        self.replica_runners: list[ProcessPipelineRunner] = []
        for r in range(self.replicas):
            rep = ProcessPipelineRunner(
                model_factory(),
                lr,
                momentum,
                weight_decay,
                mitigation,
                mode,
                update_size,
                micro_batch_size,
                lr_schedule=None,  # evaluated once at the master barrier
                record_versions=record_versions,
                lockstep=lockstep,
                stall_timeout=stall_timeout,
                model_factory=model_factory,
                start_method=start_method,
                max_restarts=0,  # recovery is coordinated at this level
                precision=precision,
            )
            if rep.num_stages != self.num_stages:
                raise ValueError(
                    "model_factory builds a "
                    f"{rep.num_stages}-stage model but the master model "
                    f"has {self.num_stages} stages"
                )
            self.replica_runners.append(rep)

    # -- public entry -------------------------------------------------------

    def train(self, X: np.ndarray, Y: Sequence[int]) -> PipelineRunStats:
        """Shard the batch across the replicas and train them to the
        drain barrier (reducing per update for synchronous schedules,
        merging weight deltas at the end for asynchronous ones)."""
        if self.lr_schedule is not None and len(X):
            # once per train() call, at its entry drain barrier (see the
            # class docstring's contract deviations)
            self.set_lr(float(self.lr_schedule(self.samples_completed)))
        return super().train(X, Y)

    # -- one attempt --------------------------------------------------------

    def _train_attempt(self, X: np.ndarray, Y: np.ndarray) -> PipelineRunStats:
        n = X.shape[0]
        R = self.replicas
        block = self._block
        shards = [shard_positions(n, r, R, block=block) for r in range(R)]
        # global batches in this stream; shards that hold no samples of
        # the final (or only) batch still join its reduce with an empty
        # contribution so the chains stay aligned
        if self._sync:
            rounds = -(-n // (R * block))
            missing = [
                rounds - (-(-int(pos.size) // block)) for pos in shards
            ]
        else:
            missing = [0] * R
        # ship the master's drain-barrier state into every replica
        master_states = [st.state_dict() for st in self.stages]
        for rep in self.replica_runners:
            load_stage_states(rep.stages, master_states)
        reduce_rings: list[ShmRing] = []
        if self._sync:
            chain, result = build_reduce_rings(self.stages, R, slots=2)
            reduce_rings = [r for per in chain for r in per]
            reduce_rings += [r for per in result for r in per]
            for r, rep in enumerate(self.replica_runners):
                rep._reduce_plan = [
                    _ReduceSpec(
                        rank=r,
                        world=R,
                        chain_in=chain[s][r - 1] if r > 0 else None,
                        chain_out=chain[s][r] if r < R - 1 else None,
                        result_in=result[s][r] if r < R - 1 else None,
                        result_out=result[s][r - 1] if r > 0 else None,
                    )
                    for s in range(self.num_stages)
                ]
        parts = [(np.ascontiguousarray(X[pos]), Y[pos]) for pos in shards]
        groups: list[WorkerGroup] = []

        def watch() -> None:
            # the cross-replica watchdog: a worker that failed or died in
            # any replica fails the wait, which may be on another replica
            # blocked in a reduce the failed one will never join
            for group in groups:
                group.check_errors()

        try:
            for rep, part, empty in zip(self.replica_runners, parts, missing):
                groups.append(rep._launch(*part, empty_rounds=empty))
            part_stats = [
                rep._drive(rep._group, watch) for rep in self.replica_runners
            ]
        finally:
            for rep in self.replica_runners:
                # still here: never driven, because a launch or an
                # earlier replica's drive failed
                if rep._group is not None:
                    rep._group.teardown(failed=True)
                    rep._group = None
                rep._reduce_plan = None
            for ring in reduce_rings:
                ring.close()
                ring.unlink()
        self._merge_replicas(master_states)
        losses = np.zeros(n)
        for pos, part in zip(shards, part_stats):
            if pos.size:
                losses[pos] = part.losses
        self.samples_completed += n
        return PipelineRunStats.merge_replicas(
            part_stats,
            losses,
            updates_per_stage=[st.updates_applied for st in self.stages],
        )

    # -- merging ------------------------------------------------------------

    def _merge_replicas(self, master_states: list[dict]) -> None:
        """Fold the replicas' post-drive state into the master stages,
        key by key: synchronous schedules adopt rank 0 after checking
        the replicas agree bit for bit (the reduce synchronized every
        update, so a mismatch means the reduce plane is broken — fail
        loudly, never average it away), asynchronous ones average the
        deltas against the shipped base state, and buffers take the
        mean either way (class docstring)."""
        R = self.replicas

        def mean(per_rank) -> np.ndarray:
            return sum(per_rank[1:], per_rank[0]) / R  # rank-order fold

        merged_states = []
        for s, base in enumerate(master_states):
            per_rep = [
                rep.stages[s].state_dict() for rep in self.replica_runners
            ]
            counts = [p["updates_applied"] for p in per_rep]
            merged = dict(per_rep[0], lr=base["lr"])
            if not self._sync:
                merged["updates_applied"] = base["updates_applied"] + sum(
                    c - base["updates_applied"] for c in counts
                )
            for key in STATE_ARRAYS:
                # one tuple per array: that array on every rank
                ranks = list(zip(*(p[key] for p in per_rep)))
                if key == "buffers":
                    merged[key] = [mean(arrs) for arrs in ranks]
                elif not self._sync:
                    merged[key] = [
                        b + mean([a - b for a in arrs])
                        for b, arrs in zip(base[key], ranks)
                    ]
                elif len(set(counts)) > 1 or any(
                    a.tobytes() != arrs[0].tobytes()
                    for arrs in ranks
                    for a in arrs[1:]
                ):
                    raise RuntimeError(
                        f"replicas diverged at stage {s} ({key}) despite "
                        "synchronized updates — reduce plane violated "
                        "its contract"
                    )
            merged_states.append(merged)
        load_stage_states(self.stages, merged_states)


def make_pipeline_engine(
    runtime: str,
    model: StageGraphModel,
    lr: float,
    lockstep: bool = False,
    **kwargs: Any,
) -> PipelineExecutor:
    """Build the requested pipeline engine behind one switch.

    ``runtime="sim"`` returns the discrete-time :class:`PipelineExecutor`;
    ``runtime="threaded"`` a :class:`ConcurrentPipelineRunner` (one worker
    thread per stage); ``runtime="process"`` a
    :class:`ProcessPipelineRunner` (one worker process per stage,
    shared-memory transport).  ``replicas=R`` with ``R > 1`` (process
    runtime only) returns a :class:`ReplicatedPipelineRunner`: R
    data-parallel pipeline copies with cross-replica gradient reduction
    at update barriers.  The concurrent engines are free-running unless
    ``lockstep=True``.  Every engine is a :class:`PipelineExecutor`, so
    callers like :class:`~repro.train.pb_trainer.PipelinedTrainer`
    switch engines without touching their training loops.
    """
    replicas = int(kwargs.pop("replicas", 1) or 1)
    if replicas > 1:
        if runtime != "process":
            raise ValueError(
                f"replicas={replicas} requires runtime='process' (the "
                "replicated runner is built on the process pipeline), "
                f"got runtime={runtime!r}"
            )
        return ReplicatedPipelineRunner(
            model, lr, lockstep=lockstep, replicas=replicas, **kwargs
        )
    if runtime == "sim":
        return PipelineExecutor(model, lr, **kwargs)
    if runtime == "threaded":
        return ConcurrentPipelineRunner(model, lr, lockstep=lockstep, **kwargs)
    if runtime == "process":
        return ProcessPipelineRunner(model, lr, lockstep=lockstep, **kwargs)
    raise ValueError(
        f"runtime must be 'sim', 'threaded' or 'process', got {runtime!r}"
    )
