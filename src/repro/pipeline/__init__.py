"""Fine-grained pipeline-parallel training substrate.

* :mod:`~repro.pipeline.delays` — the per-stage delay law
  ``D_s = 2(S-1-s)`` and its projection onto flat delay profiles.
* :mod:`~repro.pipeline.stage` — a pipeline stage: module segment +
  per-stage optimizer state + activation/weight stash.
* :mod:`~repro.pipeline.schedule` — the pluggable
  :class:`~repro.pipeline.schedule.Schedule` protocol and its four
  implementations, compiled per run into a
  :class:`~repro.pipeline.schedule.Plan` (the ops of every tick):
  ``pb`` (pipelined backpropagation), ``fill_drain``
  (synchronous pipeline SGD), ``gpipe`` (micro-batched fill-and-drain,
  Huang et al. 2019) and ``1f1b`` (PipeDream one-forward-one-backward
  with weight stashing, Harlap et al. 2018).
* :mod:`~repro.pipeline.executor` — the cycle-accurate, schedule-driven
  engine running any of the above over a
  :class:`~repro.models.arch.StageGraphModel`, and the one set of op
  bodies (:class:`~repro.pipeline.executor.StageOps`) every host runs.
* :mod:`~repro.pipeline.worker` — the training workers
  (:class:`~repro.pipeline.worker.StageWorker`, a contiguous stage group
  in plan order; :class:`~repro.pipeline.worker.FreeStageWorker`, one
  free-running stage), the serving lane's forward loop
  (:class:`~repro.pipeline.worker.Lane`, every compute stage) and the
  one :class:`~repro.pipeline.worker.WorkerGroup` that hosts them as
  threads or as processes over shared-memory rings.
* :mod:`~repro.pipeline.runtime` — the concurrent training engines
  driving a worker group through the same schedules.  Lockstep mode is
  bit-exact with the executor; free-running mode measures real
  per-stage busy/idle wall-clock time.
* :mod:`~repro.pipeline.checkpoint` — durable training: versioned run
  checkpoints capturing every stage's state plus the data-stream cursor
  at drain barriers, bit-exact resume, and the :class:`DurableRun`
  driver that snapshots on a fixed cadence.
* :mod:`~repro.pipeline.inference` — forward-only serving: its streams
  (the synchronous reference and the one-lane-per-CPU worker stream on
  either host), the packet width that is all a forward-only run needs
  (:class:`~repro.pipeline.inference.InferenceSchedule`, not a
  schedule) and the batch driver behind :mod:`repro.serve`.
* :mod:`~repro.pipeline.occupancy` — occupancy grids rendered from a
  schedule's compiled plan, for Figures 1-2 and the schedule-comparison
  example.
* :mod:`~repro.pipeline.utilization` — closed-form utilization (eq. 1,
  per-sample and per-micro-batch).
* :mod:`~repro.pipeline.partition` — stage-graph validation and the
  contiguous cut a training run groups its stages by.
* :mod:`~repro.pipeline.costs` — the Appendix-A memory/communication
  model.
"""

from repro.pipeline.delays import (
    stage_delay,
    pipeline_delay_profile,
    stage_delay_table,
)
from repro.pipeline.stage import PipelineStage, StageBuildSpec
from repro.pipeline.schedule import (
    SCHEDULE_NAMES,
    Plan,
    Schedule,
    ScheduleState,
    PipelinedBackpropSchedule,
    FillDrainSchedule,
    GPipeSchedule,
    OneFOneBSchedule,
    make_schedule,
)
from repro.pipeline.executor import (
    PipelineExecutor,
    PipelineRunStats,
    StageCounters,
)
from repro.pipeline.inference import (
    InferenceSchedule,
    InferenceStreamError,
    PipelineInferenceStream,
    SimInferenceStream,
    open_inference_stream,
    run_inference,
)
from repro.pipeline.checkpoint import (
    CHECKPOINT_VERSION,
    CheckpointError,
    DurableRun,
    DurableRunResult,
    capture_checkpoint,
    load_checkpoint,
    model_fingerprint,
    restore_checkpoint,
    restore_inference_weights,
    save_checkpoint,
)
from repro.pipeline.runtime import (
    ConcurrentPipelineRunner,
    PipelineRuntimeError,
    ProcessPipelineRunner,
    ReplicatedPipelineRunner,
    make_pipeline_engine,
)
from repro.pipeline.transport import (
    ArraySpec,
    RingDescriptor,
    ShmRing,
    TransportError,
    TransportStall,
    build_inference_rings,
    build_pipeline_rings,
    build_reduce_rings,
    probe_boundary_layouts,
    ring_slots_for,
)
from repro.pipeline.occupancy import (
    pb_occupancy,
    fill_drain_occupancy,
    gpipe_occupancy,
    one_f_one_b_occupancy,
    render_occupancy,
    schedule_utilization,
)
from repro.pipeline.utilization import (
    fill_drain_utilization,
    pb_utilization,
    utilization_upper_bound,
)
from repro.pipeline.partition import contiguous_partition, validate_stage_graph
from repro.pipeline.costs import (
    pipeline_cost_model,
    batch_parallel_activation_elements,
    data_parallel_comm_per_update,
    pipeline_comm_per_step,
)

__all__ = [
    "stage_delay",
    "pipeline_delay_profile",
    "stage_delay_table",
    "PipelineStage",
    "StageBuildSpec",
    "SCHEDULE_NAMES",
    "Plan",
    "Schedule",
    "ScheduleState",
    "PipelinedBackpropSchedule",
    "FillDrainSchedule",
    "GPipeSchedule",
    "InferenceSchedule",
    "OneFOneBSchedule",
    "make_schedule",
    "PipelineExecutor",
    "PipelineRunStats",
    "InferenceStreamError",
    "PipelineInferenceStream",
    "SimInferenceStream",
    "open_inference_stream",
    "run_inference",
    "CHECKPOINT_VERSION",
    "CheckpointError",
    "DurableRun",
    "DurableRunResult",
    "capture_checkpoint",
    "load_checkpoint",
    "model_fingerprint",
    "restore_checkpoint",
    "restore_inference_weights",
    "save_checkpoint",
    "ConcurrentPipelineRunner",
    "PipelineRuntimeError",
    "ProcessPipelineRunner",
    "ReplicatedPipelineRunner",
    "StageCounters",
    "make_pipeline_engine",
    "ArraySpec",
    "RingDescriptor",
    "ShmRing",
    "TransportError",
    "TransportStall",
    "build_inference_rings",
    "build_pipeline_rings",
    "build_reduce_rings",
    "probe_boundary_layouts",
    "ring_slots_for",
    "pb_occupancy",
    "fill_drain_occupancy",
    "gpipe_occupancy",
    "one_f_one_b_occupancy",
    "render_occupancy",
    "schedule_utilization",
    "fill_drain_utilization",
    "pb_utilization",
    "utilization_upper_bound",
    "contiguous_partition",
    "validate_stage_graph",
    "pipeline_cost_model",
    "batch_parallel_activation_elements",
    "data_parallel_comm_per_update",
    "pipeline_comm_per_step",
]
