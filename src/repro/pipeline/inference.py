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
* :class:`PipelineInferenceStream` — a forward-only
  :class:`~repro.pipeline.worker.WorkerGroup` hosted as threads or as
  processes (the lane loop, channels and control protocol are
  described in :mod:`repro.pipeline.worker`): one *lane* per usable
  CPU, each lane running the whole model (see "Lanes" below).
  ``submit`` is a ``try_send`` into the least loaded lane with room,
  ``poll`` drains every lane's out channel.

Both expose the same SPSC surface — ``submit`` (non-blocking, with
explicit backpressure: ``False`` means "pipeline full, try later"),
``poll`` (completed ``(pid, start, logits)`` triples), ``wait`` (block
until ``poll`` — or, with ``space=True``, ``submit`` — has something to
do; nobody sleeps between tries) and ``close`` —
so :func:`run_inference` can drive either in packets of one
:class:`InferenceSchedule` width, and the serving front-end
(:mod:`repro.serve.server`) can keep one stream open across requests.
A driven batch returns the engines' one run record
(:class:`~repro.pipeline.executor.PipelineRunStats`, described there)
with ``outputs`` in place of ``losses``.  Batch inference has one
entry point, :meth:`repro.serve.session.InferenceSession.infer`.

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

Lanes
-----

The paper's fine-grained stages exist for training, where the stage
count sets the eq.-5 delays.  A forward-only stream has no delays: a
stage cut only decides load balance and how many hand-offs a request
pays, and a cut's rate is bounded by its costliest group — one heavy
stage leaves the other CPUs idle.  With no weight updates, copies of a
stage need no gradient sync (PipeDream replicates a stage when that
beats cutting it), so a stream replicates the *whole* model instead: it
opens ``k = usable_cpus()`` **lanes**, each one worker
(:class:`~repro.pipeline.worker.Lane`) that runs every
compute stage in order under ``no_grad`` (nothing reads an autodiff
graph there, and building one made a worker running several conv stages
re-fault its temporaries on every packet), between its own in and out
channel.  Every model is then balanced exactly — the rate is bounded by
the total cost over ``k`` — and a request crosses no worker-to-worker
hop.  ``k`` counts the CPUs this process may run on at open time
(:func:`usable_cpus`), so a stream opened under a one-CPU affinity is
one lane.

Lane ``w`` is pinned to the ``w``-th CPU of the affinity mask taken at
open (``cpus``), so no two lanes share a CPU while another sits idle;
unpinned, that is the kernel's choice, made next to the server's own
threads, and the closed-loop rate moves with it.
``submit`` puts a packet on the lane with the fewest outstanding
packets that has a free slot, so packets may finish out of order across
lanes — results are keyed by ``pid`` and ``start``.  The stream stays
SPSC per channel: the submitting thread is the only producer of every
in channel, the polling thread the only consumer of every out channel,
and each keeps its own per-lane count (``sent`` / ``done``), so the
dispatch needs no lock.  ``stats.stages`` stays one entry per stage,
summed over the lanes; ``lane_counters`` keeps each lane's own.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from typing import Any, Sequence

import numpy as np

from repro.nn.module import modules_eval_mode
from repro.pipeline.executor import (
    DEFAULT_STALL_TIMEOUT,
    PipelineRunStats,
    StageCounters,
)
from repro.pipeline.stage import PipelineStage
from repro.pipeline.transport import probe_boundary_layouts
from repro.pipeline.worker import PipelineRuntimeError, WorkerGroup

#: Default ceiling for any single wait inside a stream or driver.
DEFAULT_INFER_TIMEOUT = DEFAULT_STALL_TIMEOUT
#: Default maximum packets in flight inside one stream (backpressure
#: threshold: the slot count of every channel of a worker stream, so a
#: worker stream holds up to this many per lane and direction).
DEFAULT_STREAM_CAPACITY = 8


class InferenceStreamError(RuntimeError):
    """A stream worker died or the stream was misused."""


class InferenceSchedule:
    """``infer`` — the packet width of a forward-only run.

    Not a :class:`~repro.pipeline.schedule.Schedule`: with no backward
    sweep there is no delay, update or stash to decide, so a batch is
    cut into consecutive packets of ``micro_batch`` samples (the last
    one shorter) and submitted as fast as the stream takes them.  A
    packet occupies ``S - 1`` hops (it is consumed at the loss slot), so
    ``P`` packets drain in ``P + S - 1`` steps — half of training's
    ``2S - 2`` fill cost.
    """

    name = "infer"

    def __init__(self, micro_batch_size: int = 1):
        if micro_batch_size < 1:
            raise ValueError(
                f"infer needs micro_batch_size >= 1, got {micro_batch_size}"
            )
        self.micro_batch = int(micro_batch_size)

    def drain_span(self, num_samples: int, num_stages: int) -> int:
        """Modeled steps until the last of ``num_samples`` samples leaves
        a ``num_stages``-stage pipeline (0 for an empty batch)."""
        if num_samples < 1:
            return 0
        packets = -(-num_samples // self.micro_batch)
        return packets + num_stages - 1


def usable_cpus() -> int:
    """The CPUs this process may run on now: its affinity mask where the
    platform has one, else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def lane_cpus(k: int) -> list[int | None]:
    """The CPU of each of ``k`` lanes: the affinity mask's CPUs in
    order, round robin; ``None`` (unpinned) where the platform has no
    mask."""
    if not hasattr(os, "sched_getaffinity"):
        return [None] * k
    mask = sorted(os.sched_getaffinity(0))
    return [mask[w % len(mask)] for w in range(k)]


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
        if self._closed:
            raise InferenceStreamError("stream is closed")
        with self._cond:
            out = list(self._results)
            self._results.clear()
            self._cond.notify_all()
        return out

    def wait(self, timeout: float, space: bool = False) -> bool:
        """Block until ``poll`` has a result (``space=True``: until
        ``submit`` has room) or ``timeout`` passes; returns which."""
        if self._closed:
            raise InferenceStreamError("stream is closed")

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
    """Persistent forward-only pipeline, one whole-model lane per CPU.

    ``backend`` picks the host: ``"threaded"`` lanes run the session's
    own stage objects over in-process channels; ``"process"`` lanes run
    over shared-memory rings, the final compute stage's output landing in
    shared memory and copied out exactly once, into the result the
    caller sees.  Lanes stay alive across packets (and across serving
    requests), so launch cost is paid once per stream, not once per
    batch.  ``cpus`` records where each lane runs and :meth:`placement`
    what each was given (module docstring, "Lanes").

    ``max_width`` fixes the packet width a ``submit`` may carry (the ring
    slot width); ``capacity`` sizes every channel, bounding the in-flight
    window — every lane's in channel full is the backpressure signal
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
        #: each lane's own per-stage counters, from its reply at close
        #: (``[]`` for a lane that died without one)
        self.lane_counters: list[list[StageCounters]] = []
        self._group: WorkerGroup | None = None
        #: the CPU each lane is pinned to
        self.cpus = lane_cpus(usable_cpus())
        #: packets put on / taken off each lane: one writer each, the
        #: submitting and the polling thread
        self._sent = [0] * len(self.cpus)
        self._done = [0] * len(self.cpus)
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
            # the process rings need the layouts; on either host the
            # pass rejects a bad sample_shape here, not in a lane
            layouts = probe_boundary_layouts(self.stages, probe)
            self._group = WorkerGroup(
                self.stages,
                probe,
                processes=backend == "process",
                name="infer-stage",
                stall_timeout=self.stall_timeout,
                lanes=self.cpus,
                slots=self.capacity,
                model_factory=model_factory,
                start_method=start_method,
                layouts=layouts,
            )
        except BaseException:
            # the eval guard must not leak eval-mode modules back to a
            # caller that still trains them
            self.close()
            raise

    def placement(self) -> list[dict]:
        """Each lane's pinned CPU and the packets dispatched to it so
        far, JSON-ready."""
        return [
            {"cpu": cpu, "packets": sent}
            for cpu, sent in zip(self.cpus, self._sent)
        ]

    # -- SPSC surface -------------------------------------------------------

    def _raise_if_failed(self) -> None:
        if self._error is None:
            # a worker that reports an error also sets the abort flag, so
            # that is checked on every call; the full scan (an endpoint
            # poll and an exit-code read per lane, which is what catches
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
        sent, done = self._sent, self._done
        for w in sorted(range(len(sent)), key=lambda w: sent[w] - done[w]):
            if self._group.lanes[w][0].try_send(pid, start, x.shape[0], [x]):
                sent[w] += 1
                return True
        return False

    def poll(self) -> list[tuple[int, int, np.ndarray]]:
        if self._closed:
            raise InferenceStreamError("stream is closed")
        self._raise_if_failed()
        out = []
        for w, (_, ring) in enumerate(self._group.lanes):
            while (pkt := ring.try_recv()) is not None:
                pid, start, size, views = pkt
                # one copy (out of shared memory, on a process host),
                # then free the slot
                out.append((pid, start, np.array(views[0][:size], copy=True)))
                ring.release()
                self._done[w] += 1
        return out

    def wait(self, timeout: float, space: bool = False) -> bool:
        """Block until ``poll`` has a result (``space=True``: until
        ``submit`` has room), a worker aborts the group, or ``timeout``
        passes; ``True`` only for the first.  One wait over every lane
        (:meth:`WorkerGroup.wait_lanes`); one waiter per direction, like
        the stream's two ends."""
        if self._closed:
            raise InferenceStreamError("stream is closed")
        return self._group.wait_lanes(timeout, space)

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
                for w in range(len(group.workers)):
                    try:
                        lane = group.recv(w, "state")[1]["counters"]
                    except RuntimeError:
                        lane = []  # worker gone without a reply
                    self.lane_counters.append(lane)
                    for counters in lane:
                        self.counters[counters.index].add(counters)
                group.teardown(failed=False)
        self._eval_guard.__exit__(None, None, None)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


# ---------------------------------------------------------------------------
# the batch driver
# ---------------------------------------------------------------------------


def run_inference(
    stream,
    schedule: InferenceSchedule,
    X: np.ndarray,
    num_stages: int,
    stall_timeout: float = DEFAULT_INFER_TIMEOUT,
) -> PipelineRunStats:
    """Drive one batch of samples through an open inference stream.

    Submits ``X`` in consecutive packets of ``schedule.micro_batch``
    samples; the stream's ``submit`` backpressure gates submission the
    way ring/in-flight caps gate the training runtimes.  Outputs are
    assembled in input order, with dropped or duplicated packets turned
    into loud errors — the serving correctness contract starts here.

    The record's ``stages`` are the stream's counters as of now: a
    worker stream only learns its workers' counts at ``close()``.
    ``num_stages`` predates the record carrying its stage list and is
    kept for its callers; it equals ``len(stream.counters)``.
    """
    X = np.asarray(X)
    n = X.shape[0]
    width = schedule.micro_batch
    sent = 0  # samples submitted
    outputs: np.ndarray | None = None
    received = np.zeros(n, dtype=bool)
    completed = 0
    t0 = time.perf_counter()
    last_progress = time.monotonic()
    while completed < n:
        progressed = False
        # submit until the batch is in or the stream is full (backpressure)
        while sent < n and stream.submit(sent, sent, X[sent : sent + width]):
            sent += width
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
    return forward_record(
        schedule,
        stream.counters,
        np.zeros(0) if outputs is None else outputs,
        stream.backend,
        time.perf_counter() - t0,
    )


def forward_record(
    schedule: InferenceSchedule,
    counters: Sequence[StageCounters],
    outputs: np.ndarray,
    backend: str,
    wall_seconds: float = 0.0,
) -> PipelineRunStats:
    """The record of a forward-only run: ``time_steps`` is the modeled
    span (:meth:`InferenceSchedule.drain_span`)."""
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
    :func:`repro.pipeline.runtime.make_pipeline_engine`).  The
    synchronous ``sim`` stream takes only the stages and ``capacity``;
    ``stream_kwargs`` go to a worker stream."""
    if backend == "sim":
        return SimInferenceStream(stages, capacity=capacity)
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
