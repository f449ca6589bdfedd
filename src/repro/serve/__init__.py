"""``repro.serve`` — pipelined online inference serving.

The training side of this repo reproduces the paper's claim that a
fine-grained pipeline keeps every stage busy *without* large batches;
this package is the same claim applied to serving (the ROADMAP's
"serve heavy traffic from millions of users" direction):

* :mod:`~repro.serve.session` — :class:`InferenceSession`: trained
  weights (from a live engine or a checkpoint file, optimizer state
  stripped) frozen onto forward-only pipeline stages, runnable on any
  of the three runtime backends (sim / threaded / process with
  shared-memory rings);
* :mod:`~repro.serve.batcher` — :class:`DynamicBatcher`: coalesces
  individual requests into micro-batch packets under a ``max_wait``
  deadline and ``max_batch`` cap, with a bounded admission queue and
  explicit :class:`Overloaded` backpressure;
* :mod:`~repro.serve.server` — :class:`PipelineServer`: submit/result
  futures, dispatcher/collector threads around a persistent inference
  stream, per-request latency tracking, and a stdlib-socket HTTP
  endpoint (``POST /infer`` / ``GET /stats`` / ``GET /healthz``);
* :mod:`~repro.serve.stats` — :class:`ServingStats`: p50/p95/p99
  latency, queue wait vs pipeline time, drop-proof counters;
* :mod:`~repro.serve.loadgen` — :func:`closed_loop`: one generator
  thread keeps ``window`` requests in flight through any
  ``submit -> Future`` (server, fleet or baseline), with Future
  done-callbacks stamping completions into a :class:`LoadRun`; plus the
  sequential single-request baseline (:class:`SequentialServer`);
* :mod:`~repro.serve.fleet` — multi-replica serving:
  :class:`~repro.serve.fleet.router.FleetRouter` (least-loaded
  dispatch + SLO-class admission + fleet-id accounting),
  queue-wait-driven autoscaling, and zero-downtime rolling weight
  hot-swap from PR-4 checkpoints.

The engine-level forward-only machinery (schedules, streams, rings)
lives in :mod:`repro.pipeline.inference` and
:mod:`repro.pipeline.transport`.
"""

from repro.serve.batcher import DynamicBatcher, Overloaded, PendingRequest
from repro.serve.fleet import (
    AutoscalePolicy,
    FleetRouter,
    ReplicaSpec,
    SLOClass,
    default_slo_classes,
    rolling_reload,
)
from repro.serve.loadgen import (
    LoadRun,
    SequentialServer,
    assign_classes,
    closed_loop,
)
from repro.serve.server import PipelineServer
from repro.serve.session import SERVE_BACKENDS, InferenceSession
from repro.serve.stats import RequestTiming, ServingStats

__all__ = [
    "DynamicBatcher",
    "Overloaded",
    "PendingRequest",
    "AutoscalePolicy",
    "FleetRouter",
    "ReplicaSpec",
    "SLOClass",
    "default_slo_classes",
    "rolling_reload",
    "LoadRun",
    "SequentialServer",
    "assign_classes",
    "closed_loop",
    "PipelineServer",
    "SERVE_BACKENDS",
    "InferenceSession",
    "RequestTiming",
    "ServingStats",
]
