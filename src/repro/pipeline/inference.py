"""Forward-only pipelined inference: streams and their batch driver.

Training taught this repo to run a pipeline on three hosts (discrete-time
simulator, thread-per-stage, process-per-stage over shared-memory
rings); serving needs the same pipeline *without the backward half*.
torchgpipe and PipeDream both note that the forward pipelining structure
pays off at inference time too — stages stay busy on a stream of small
packets without waiting for large batches, which is exactly the paper's
argument applied to the online setting.

This module is the engine-level half of the :mod:`repro.serve`
subsystem.  An **inference stream** is a persistent forward-only
pipeline you push packets into and pull outputs out of:

* :class:`SimInferenceStream` — synchronous in-process forward (the
  discrete-time engine's counterpart, and the reference the parity
  tests compare against);
* :class:`PipelineInferenceStream` — a ``forward_only``
  :class:`~repro.pipeline.worker.WorkerGroup` hosted as threads or as
  processes (the worker loop, channels and control protocol are
  described in :mod:`repro.pipeline.worker`), with one worker per
  *group* of adjacent compute stages and never more workers than CPUs
  (see "Stages per worker" below).  ``submit`` is the first channel's
  ``try_send``, ``poll`` the last channel's ``try_recv``.

Both expose the same SPSC surface — ``submit`` (non-blocking, with
explicit backpressure: ``False`` means "pipeline full, try later"),
``poll`` (completed ``(pid, start, logits)`` triples), ``wait`` (block
until ``poll`` — or, with ``space=True``, ``submit`` — has something to
do; nobody sleeps between tries) and ``close`` —
so :func:`run_inference` can drive either through an
:class:`~repro.pipeline.schedule.InferenceSchedule` unchanged, and the
serving front-end (:mod:`repro.serve.server`) can keep one stream open
across requests.  A driven batch returns the engines' one run record
(:class:`~repro.pipeline.executor.PipelineRunStats`, described there)
with ``outputs`` in place of ``losses``.

Determinism contract
--------------------

Inference applies no updates, so weights are constant and every packet's
output is independent of worker timing: **all backends produce
bit-identical outputs for the same packet decomposition**.  The
decomposition itself matters — BLAS kernels round differently for
different GEMM shapes, so a width-3 packet and a width-64 batch can
disagree in the last ulp — which is why the parity contract everywhere
in :mod:`repro.serve` is "bit-exact with the offline batched forward
over the *same* micro-batch packets" (pinned in
``tests/test_serve_session.py``).

Streams hold modules in ``eval`` mode for their lifetime (BatchNorm uses
running stats, Dropout passes through) and run every stage forward with
``train=False`` — no autodiff graph, no stash, nothing mutated.

Stages per worker
-----------------

The paper's fine-grained stages exist for training, where the stage
count sets the eq.-5 delays.  A forward-only stream has no staleness, so
it may group stages however is fastest without changing an output bit,
and every channel a packet crosses is a hand-off it pays on every
request.  So a worker stream opens with one probe pass
(:func:`~repro.pipeline.costs.probe_forward_costs`: the zero max-width
packet the process host sizes its rings with, each stage's forward
timed), then cuts the compute stages into ``k = min(compute stages,
usable CPUs)`` contiguous groups whose costliest group is as cheap as
possible (:func:`~repro.pipeline.partition.contiguous_partition`).
Each worker runs its group under ``no_grad``: nothing reads an autodiff
graph there, and building one made a worker that runs several conv
stages re-fault its temporaries on every packet.  ``k`` counts
the CPUs this process may run on at open time (:func:`usable_cpus`), so
a stream opened under a one-CPU affinity runs every stage on one worker.
The stream keeps both as ``costs`` (median seconds per compute stage)
and ``groups`` (stage indices per worker); ``stats.stages`` stays one
entry per stage.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from typing import Any, Sequence

import numpy as np

from repro.nn.module import modules_eval_mode
from repro.pipeline.costs import probe_forward_costs
from repro.pipeline.executor import (
    DEFAULT_STALL_TIMEOUT,
    PipelineRunStats,
    StageCounters,
)
from repro.pipeline.partition import contiguous_partition
from repro.pipeline.schedule import InferenceSchedule, Schedule, ScheduleState
from repro.pipeline.stage import PipelineStage
from repro.pipeline.worker import PipelineRuntimeError, WorkerGroup

#: Default ceiling for any single wait inside a stream or driver.
DEFAULT_INFER_TIMEOUT = DEFAULT_STALL_TIMEOUT
#: Default maximum packets in flight inside one stream (backpressure
#: threshold: the slot count of every channel of a worker stream).
DEFAULT_STREAM_CAPACITY = 8


class InferenceStreamError(RuntimeError):
    """A stream worker died or the stream was misused."""


def usable_cpus() -> int:
    """The CPUs this process may run on now: its affinity mask where the
    platform has one, else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def eval_mode(stages: Sequence[PipelineStage]):
    """:func:`modules_eval_mode` over a stage list's modules."""
    return modules_eval_mode(
        st.spec.module for st in stages if st.spec.module is not None
    )


def _check_inference_stages(stages: Sequence[PipelineStage]) -> None:
    if len(stages) < 2 or stages[-1].spec.kind != "loss":
        raise InferenceStreamError(
            "inference needs a pipeline of >= 2 stages ending in the "
            f"loss slot (got {len(stages)} stages)"
        )


# ---------------------------------------------------------------------------
# sim stream
# ---------------------------------------------------------------------------


class SimInferenceStream:
    """Synchronous forward-only stream (the simulator's counterpart).

    ``submit`` transforms the packet through every compute stage
    immediately and buffers the result for ``poll``.  ``capacity``
    bounds the unpolled-result buffer so a caller that never polls still
    sees backpressure instead of unbounded growth — the same contract
    the concurrent streams enforce on their in-flight window.
    """

    backend = "sim"

    def __init__(
        self,
        stages: Sequence[PipelineStage],
        capacity: int = DEFAULT_STREAM_CAPACITY,
        **_unused: Any,
    ):
        _check_inference_stages(stages)
        self.stages = list(stages)
        self.capacity = max(1, int(capacity))
        self.counters = [
            StageCounters(index=s) for s in range(len(stages))
        ]
        self._results: deque = deque()
        self._cond = threading.Condition()
        self._eval_guard = eval_mode(self.stages)
        self._eval_guard.__enter__()
        self._closed = False

    def submit(self, pid: int, start: int, x: np.ndarray) -> bool:
        if self._closed:
            raise InferenceStreamError("stream is closed")
        with self._cond:
            if len(self._results) >= self.capacity:
                return False
        payload = [np.asarray(x)]
        for s, stage in enumerate(self.stages[:-1]):
            t0 = time.perf_counter()
            payload = stage.forward(pid, payload, train=False)
            counters = self.counters[s]
            counters.forward_ops += 1
            counters.forward_samples += x.shape[0]
            counters.busy_seconds += time.perf_counter() - t0
        with self._cond:
            self._results.append((pid, start, payload[0]))
            self._cond.notify_all()
        return True

    def poll(self) -> list[tuple[int, int, np.ndarray]]:
        with self._cond:
            out = list(self._results)
            self._results.clear()
            self._cond.notify_all()
        return out

    def wait(self, timeout: float, space: bool = False) -> bool:
        """Block until ``poll`` has a result (``space=True``: until
        ``submit`` has room) or ``timeout`` passes; returns which."""
        def ready() -> bool:
            held = len(self._results)
            return held < self.capacity if space else held > 0

        with self._cond:
            return self._cond.wait_for(ready, timeout)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._eval_guard.__exit__(None, None, None)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


# ---------------------------------------------------------------------------
# worker-group stream (threads or processes)
# ---------------------------------------------------------------------------


class PipelineInferenceStream:
    """Persistent forward-only pipeline, one worker per group of stages.

    ``backend`` picks the host: ``"threaded"`` workers run the session's
    own stage objects over in-process channels; ``"process"`` workers run
    over shared-memory rings, the final compute stage's output landing in
    shared memory and copied out exactly once, into the result the
    caller sees.  Workers stay alive across packets (and across serving
    requests), so launch cost is paid once per stream, not once per
    batch.  ``groups`` and ``costs`` record how the stages were split
    between workers, and why (module docstring, "Stages per worker").

    ``max_width`` fixes the packet width a ``submit`` may carry (the ring
    slot width); ``capacity`` sizes every channel, bounding the in-flight
    window — a full injection channel is the backpressure signal
    (``submit`` returns ``False``).
    """

    def __init__(
        self,
        stages: Sequence[PipelineStage],
        backend: str,
        max_width: int = 1,
        sample_shape: tuple = (),
        dtype="float64",
        capacity: int = DEFAULT_STREAM_CAPACITY,
        stall_timeout: float = DEFAULT_INFER_TIMEOUT,
        model_factory=None,
        start_method: str | None = None,
    ):
        _check_inference_stages(stages)
        self.backend = backend
        self.stages = list(stages)
        self.capacity = max(1, int(capacity))
        self.stall_timeout = float(stall_timeout)
        self.counters = [
            StageCounters(index=s) for s in range(len(stages))
        ]
        self._group: WorkerGroup | None = None
        #: median forward seconds of each compute stage on the probe
        #: packet, and the stage indices each worker runs, cut from them
        self.costs: list[float] = []
        self.groups: list[tuple[int, ...]] = []
        self._error: PipelineRuntimeError | None = None
        self._closed = False
        #: health checks read the workers' control endpoints and may be
        #: reached from both stream ends (the server's dispatcher via
        #: submit and its collector via poll); the endpoints are not
        #: thread-safe, so the checks serialize on this lock
        self._health_lock = threading.Lock()
        self._last_health_check = 0.0
        self._eval_guard = eval_mode(self.stages)
        self._eval_guard.__enter__()
        try:
            probe = np.zeros(
                (max(1, int(max_width)),) + tuple(sample_shape), dtype=dtype
            )
            layouts, self.costs = probe_forward_costs(self.stages, probe)
            self.groups = contiguous_partition(self.costs, usable_cpus())
            self._group = WorkerGroup(
                self.stages,
                probe,
                processes=backend == "process",
                name="infer-stage",
                stall_timeout=self.stall_timeout,
                forward_only=True,
                slots=self.capacity,
                model_factory=model_factory,
                start_method=start_method,
                groups=self.groups,
                layouts=layouts,
            )
        except BaseException:
            # the eval guard must not leak eval-mode modules back to a
            # caller that still trains them
            self.close()
            raise

    # -- SPSC surface -------------------------------------------------------

    def _raise_if_failed(self) -> None:
        if self._error is None:
            # a worker that reports an error also sets the abort flag, so
            # that is checked on every call; the full scan (an endpoint
            # poll and an exit-code read per stage, which is what catches
            # a silently killed worker) is rate-limited — submit/poll sit
            # on the serving hot path
            now = time.monotonic()
            if (
                not self._group.abort.is_set()
                and now - self._last_health_check < 0.05
            ):
                return
            with self._health_lock:
                self._last_health_check = now
                try:
                    self._group.check_errors()
                except PipelineRuntimeError as exc:
                    self._error = exc
        if self._error is not None:
            raise InferenceStreamError(
                f"inference stage {self._error.stage_index} worker failed: "
                f"{self._error.cause!r}"
            ) from self._error

    def submit(self, pid: int, start: int, x: np.ndarray) -> bool:
        if self._closed:
            raise InferenceStreamError("stream is closed")
        self._raise_if_failed()
        x = np.ascontiguousarray(x)
        return self._group.channels[0].try_send(pid, start, x.shape[0], [x])

    def poll(self) -> list[tuple[int, int, np.ndarray]]:
        if self._closed:
            raise InferenceStreamError("stream is closed")
        self._raise_if_failed()
        out = []
        ring = self._group.channels[-1]
        while True:
            pkt = ring.try_recv()
            if pkt is None:
                break
            pid, start, size, views = pkt
            # one copy (out of shared memory, on a process host), then
            # free the slot
            out.append((pid, start, np.array(views[0][:size], copy=True)))
            ring.release()
        return out

    def wait(self, timeout: float, space: bool = False) -> bool:
        """Block until ``poll`` has a result (``space=True``: until
        ``submit`` has room), a worker aborts the group, or ``timeout``
        passes; ``True`` only for the first.  The wait is the channel's:
        a condition variable on a thread host, a doorbell on a process
        host.  One waiter per direction, like the stream's two ends."""
        if self._closed:
            raise InferenceStreamError("stream is closed")
        group = self._group
        if space:
            return group.channels[0].wait_writable(timeout, group.abort)
        return group.channels[-1].wait_readable(timeout, group.abort)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        group = self._group
        if group is not None:
            with self._health_lock:  # no health check may race the pipes
                try:
                    group.broadcast(("finalize",))
                except RuntimeError:
                    pass  # a dead worker: the rest exit on abort below
                # abort *before* waiting for replies: a worker blocked
                # in a channel send (error-path teardown with packets in
                # flight) only unblocks via the abort flag.  A worker
                # that sees the flag still answers the finalize sent
                # before it, so the happy path collects every counter.
                group.abort.set()
                for w, members in enumerate(self.groups):
                    try:
                        payload = group.recv(w, "state")[1]
                    except RuntimeError:
                        continue  # worker gone without a reply
                    for s, counters in zip(members, payload["counters"]):
                        self.counters[s] = counters
                group.teardown(failed=False)
        self._eval_guard.__exit__(None, None, None)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


# ---------------------------------------------------------------------------
# the schedule-driven batch driver
# ---------------------------------------------------------------------------


def run_inference(
    stream,
    schedule: Schedule,
    X: np.ndarray,
    num_stages: int,
    stall_timeout: float = DEFAULT_INFER_TIMEOUT,
) -> PipelineRunStats:
    """Drive one batch of samples through an open inference stream.

    The :class:`~repro.pipeline.schedule.Schedule` protocol decides
    packet widths exactly as it does for training (``inject_size`` per
    opportunity); the stream's ``submit`` backpressure gates injection
    the way ring/in-flight caps gate the training runtimes.  Outputs are
    assembled in input order, with dropped or duplicated packets turned
    into loud errors — the serving correctness contract starts here.

    The record's ``stages`` are the stream's counters as of now: a
    worker stream only learns its workers' counts at ``close()``.
    ``num_stages`` predates the record carrying its stage list and is
    kept for its callers; it equals ``len(stream.counters)``.
    """
    if not getattr(schedule, "forward_only", False):
        raise ValueError(
            f"run_inference needs a forward-only schedule, got "
            f"{schedule.name!r}"
        )
    X = np.asarray(X)
    n = X.shape[0]
    schedule.reset(n)
    state = ScheduleState(num_samples=n)
    outputs: np.ndarray | None = None
    received = np.zeros(n, dtype=bool)
    completed = 0
    t0 = time.perf_counter()
    last_progress = time.monotonic()
    while completed < n:
        progressed = False
        while state.next_sample < n:
            size = min(schedule.inject_size(state), n - state.next_sample)
            if size <= 0:
                break
            i = state.next_sample
            if not stream.submit(i, i, X[i : i + size]):
                break  # stream full: backpressure
            state.next_sample += size
            progressed = True
        for pid, start, logits in stream.poll():
            size = logits.shape[0]
            if outputs is None:
                outputs = np.zeros((n,) + logits.shape[1:], dtype=logits.dtype)
            if received[start : start + size].any():
                raise InferenceStreamError(
                    f"duplicate result for samples [{start}, "
                    f"{start + size})"
                )
            received[start : start + size] = True
            outputs[start : start + size] = logits
            completed += size
            progressed = True
        now = time.monotonic()
        if progressed:
            last_progress = now
        elif now - last_progress > stall_timeout:
            raise InferenceStreamError(
                f"inference stalled: no result for {stall_timeout:.1f}s "
                f"({completed}/{n} samples done)"
            )
        elif completed < n:
            # everything unfinished is in flight and the output end was
            # just emptied, so the next event is a result
            stream.wait(min(stall_timeout, 0.05))
    return _record(
        schedule,
        stream.counters,
        np.zeros(0) if outputs is None else outputs,
        stream.backend,
        time.perf_counter() - t0,
    )


def _record(
    schedule: Schedule,
    counters: Sequence[StageCounters],
    outputs: np.ndarray,
    backend: str,
    wall_seconds: float = 0.0,
) -> PipelineRunStats:
    """The record of a forward-only run: ``time_steps`` is the modeled
    span (``P + S - 1`` for ``P`` packets — forward-only pays half of
    training's fill cost)."""
    return PipelineRunStats(
        stages=list(counters),
        time_steps=schedule.drain_span(outputs.shape[0], len(counters)),
        schedule=schedule.name,
        micro_batch=schedule.micro_batch,
        outputs=outputs,
        wall_seconds=wall_seconds,
        backend=backend,
        mode="free_running",
    )


def infer_batch(
    stages: Sequence[PipelineStage],
    X: np.ndarray,
    schedule: Schedule | None = None,
    micro_batch_size: int = 1,
    backend: str = "sim",
    stall_timeout: float = DEFAULT_INFER_TIMEOUT,
    **stream_kwargs: Any,
) -> PipelineRunStats:
    """One-shot batch inference: open a stream, drive the batch, close.

    Every engine's ``infer()`` is a thin wrapper over this; the serving
    front-end keeps a stream open instead (see
    :meth:`repro.serve.session.InferenceSession.open_stream`).
    """
    X = np.asarray(X)
    if schedule is None:
        schedule = InferenceSchedule(micro_batch_size)
    if not getattr(schedule, "forward_only", False):
        raise ValueError(
            f"infer needs a forward-only schedule, got {schedule.name!r}"
        )
    if X.shape[0] == 0:
        # nothing to launch workers for
        idle = [StageCounters(s) for s in range(len(stages))]
        return _record(schedule, idle, np.zeros(0), backend)
    stream = open_inference_stream(
        stages,
        backend=backend,
        max_width=schedule.micro_batch,
        sample_shape=X.shape[1:],
        dtype=X.dtype,
        stall_timeout=stall_timeout,
        **stream_kwargs,
    )
    with stream:
        stats = run_inference(
            stream, schedule, X, len(stages), stall_timeout=stall_timeout
        )
    # per-stage counters after close(): a worker stream only learns its
    # workers' counts from their finalize replies during teardown, so
    # the snapshot taken inside run_inference would be all zeros
    stats.stages = list(stream.counters)
    return stats


def open_inference_stream(
    stages: Sequence[PipelineStage],
    backend: str = "sim",
    max_width: int = 1,
    sample_shape: tuple = (),
    dtype="float64",
    capacity: int = DEFAULT_STREAM_CAPACITY,
    stall_timeout: float = DEFAULT_INFER_TIMEOUT,
    **stream_kwargs: Any,
):
    """Open a persistent forward-only stream on the requested backend
    (``sim`` / ``threaded`` / ``process`` — the engine names of
    :func:`repro.pipeline.runtime.make_pipeline_engine`)."""
    if backend == "sim":
        return SimInferenceStream(
            stages, capacity=capacity, stall_timeout=stall_timeout
        )
    if backend in ("threaded", "process"):
        return PipelineInferenceStream(
            stages,
            backend,
            max_width=max_width,
            sample_shape=tuple(sample_shape),
            dtype=dtype,
            capacity=capacity,
            stall_timeout=stall_timeout,
            **stream_kwargs,
        )
    raise ValueError(
        f"backend must be 'sim', 'threaded' or 'process', got {backend!r}"
    )
