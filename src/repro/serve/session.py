"""Inference sessions: frozen weights + a pipeline backend to run them on.

An :class:`InferenceSession` is the serving subsystem's handle on a
model: it takes trained weights — from a live training engine
(:meth:`InferenceSession.from_engine`) or a PR-4 checkpoint file with
the optimizer state stripped (:meth:`InferenceSession.from_checkpoint`)
— freezes them onto a fresh set of pipeline stages (modules in eval
mode, ``lr=0``, no optimizer, no mitigation), and drives forward-only
work through any of the three runtime backends:

* ``runtime="sim"`` — synchronous in-process forward (one vectorized
  op per stage per packet);
* ``runtime="threaded"`` — worker threads;
* ``runtime="process"`` — worker processes, with packets crossing
  worker boundaries through forward-only shared-memory rings (no
  backward slots).

A worker stream of either host runs one whole-model lane per usable CPU,
each pinned to its CPU (:mod:`repro.pipeline.inference`, "Lanes").
:meth:`InferenceSession.describe` and :meth:`placement` (in the server's
``GET /stats``) report the last stream's lanes.

Two entry points:

* :meth:`infer` — batch mode: split ``X`` into packets of one
  :class:`~repro.pipeline.inference.InferenceSchedule` width, drive them
  through a stream opened for the call and return the logits (the
  offline path, used by parity tests and the sequential baseline of the
  serving benchmark; the only batch entry point — a training engine
  serves through :meth:`InferenceSession.from_engine`);
* :meth:`open_stream` — serving mode: a persistent stream the
  front-end (:class:`repro.serve.server.PipelineServer`) keeps open
  across requests, pushing dynamically-coalesced packets in and
  pulling logits out.

Correctness contract (pinned in ``tests/test_serve_session.py``): for
the same packet decomposition, every backend's outputs are **bit-exact**
with :meth:`forward_reference` — the offline batched forward over those
same packets.  The decomposition is part of the contract because BLAS
kernels round differently for different GEMM widths; see
:mod:`repro.pipeline.inference`.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.models.arch import StageGraphModel
from repro.pipeline.checkpoint import (
    model_fingerprint,
    restore_inference_weights,
)
from repro.pipeline.executor import PipelineRunStats, StageCounters
from repro.pipeline.inference import (
    DEFAULT_INFER_TIMEOUT,
    DEFAULT_STREAM_CAPACITY,
    InferenceSchedule,
    forward_record,
    modules_eval_mode,
    open_inference_stream,
    run_inference,
)
from repro.pipeline.stage import PipelineStage
from repro.precision import resolve_precision
from repro.tensor.tensor import Tensor, no_grad

SERVE_BACKENDS = ("sim", "threaded", "process")


class InferenceSession:
    """Frozen weights on a pipeline backend (see module docstring).

    Parameters
    ----------
    model:
        A :class:`StageGraphModel` carrying the weights to serve.  The
        session shares the model's parameter objects (no copy) and
        holds its modules in eval mode while streams are open.
    runtime:
        ``"sim"`` / ``"threaded"`` / ``"process"``.
    micro_batch:
        Maximum packet width: the serving batcher coalesces at most
        this many requests into one vectorized ``(B, ...)`` op, and
        the process backend sizes its ring slots with it.
    capacity:
        Maximum packets in flight inside a stream (backpressure
        threshold; also the ring slot count for ``process``).
    sample_shape / dtype:
        Per-sample input layout, needed up front by the process
        backend to preallocate rings.  ``sample_shape`` may be omitted
        for batch-only use (the first ``infer`` call infers it from
        its input), but :meth:`open_stream` — and therefore serving —
        requires it to be known and raises otherwise.  ``dtype``
        defaults to float64 and may only be passed in the reference
        precision mode: a reduced mode owns the session dtype (its
        compute dtype) and an explicit conflicting ``dtype=`` raises.
    model_factory:
        Spawn-safe rebuild recipe, required for ``process`` on
        non-Linux hosts (mirrors the training runtime's contract).
    precision:
        Serving precision mode (``"float64"`` / ``"float32"`` /
        ``"bf16"`` / ``"int8"`` or a
        :class:`~repro.precision.PrecisionPolicy`).  A reduced mode
        casts the model's weights **once** here — quantizing for int8 —
        and flips the session's input dtype to the mode's compute dtype,
        so ring slots, request parsing and the forward all run on the
        reduced grid.  ``GET /stats`` of a server wrapping the session
        reports the active mode.
    """

    def __init__(
        self,
        model: StageGraphModel,
        runtime: str = "sim",
        micro_batch: int = 8,
        capacity: int = DEFAULT_STREAM_CAPACITY,
        sample_shape: Sequence[int] | None = None,
        dtype=None,
        stall_timeout: float = DEFAULT_INFER_TIMEOUT,
        model_factory: Callable[[], StageGraphModel] | None = None,
        start_method: str | None = None,
        precision=None,
    ):
        if runtime not in SERVE_BACKENDS:
            raise ValueError(
                f"runtime must be one of {SERVE_BACKENDS}, got {runtime!r}"
            )
        if micro_batch < 1:
            raise ValueError(f"micro_batch must be >= 1, got {micro_batch}")
        specs = model.stage_defs
        if not specs or specs[-1].kind != "loss":
            raise ValueError("model must end with a loss stage")
        self.model = model
        self.runtime = runtime
        self.micro_batch = int(micro_batch)
        self.capacity = int(capacity)
        self.sample_shape = (
            None if sample_shape is None else tuple(sample_shape)
        )
        self.precision = resolve_precision(precision)
        if not self.precision.is_reference:
            # a reduced mode owns the session dtype; refuse an explicit
            # dtype= rather than silently overriding it
            if dtype is not None and (
                np.dtype(dtype) != self.precision.compute_dtype
            ):
                raise ValueError(
                    f"dtype={np.dtype(dtype).name!r} conflicts with "
                    f"precision mode {self.precision.mode!r} (compute "
                    f"dtype {self.precision.compute_dtype.name}) — drop "
                    "the dtype argument; the precision mode sets the "
                    "session dtype"
                )
            # cast once at session creation (int8 quantizes here); the
            # fingerprint below hashes the weights actually served
            self.precision.cast_model(model)
            self.dtype = np.dtype(self.precision.compute_dtype)
        else:
            self.dtype = np.dtype("float64" if dtype is None else dtype)
        self.stall_timeout = float(stall_timeout)
        self.model_factory = model_factory
        self.start_method = start_method
        # serving stages: no optimizer state matters (lr=0, no
        # mitigation); parameters are shared with the model, so the
        # weights a training engine just produced are served in place
        self.stages = [
            PipelineStage(
                i, spec, len(specs), lr=0.0, precision=self.precision
            )
            for i, spec in enumerate(specs)
        ]
        #: SHA-256 over the frozen parameters and buffers at session
        #: creation — the provenance handle stats and responses surface
        self.fingerprint = model_fingerprint(model)
        self.metadata: dict = {}
        #: the last worker stream opened (its lanes are :meth:`placement`)
        self._stream = None

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_engine(cls, engine, **kwargs) -> "InferenceSession":
        """Serve the weights of a live training engine (any of the three
        pipeline engines).  The session shares the engine's model, so a
        *newly opened* stream (or ``infer`` call) sees the engine's
        latest drained weights.  Weights are frozen per stream at
        stream-open time: the process backend ships them to its workers
        then, and the sim/threaded backends hold the shared modules in
        eval mode while a stream is open — so training the engine while
        a stream is open is unsupported (alternate, or snapshot to a
        checkpoint and serve via :meth:`from_checkpoint`).

        ``model_factory`` and ``precision`` default to the engine's own,
        so the session computes in the dtype the engine trains in."""
        kwargs.setdefault(
            "model_factory", getattr(engine, "model_factory", None)
        )
        kwargs.setdefault("precision", engine.precision)
        return cls(engine.model, **kwargs)

    @classmethod
    def from_checkpoint(
        cls,
        path: str,
        model_factory: Callable[[], StageGraphModel],
        **kwargs,
    ) -> "InferenceSession":
        """Serve a PR-4 checkpoint file: build a fresh model from
        ``model_factory``, load **only** the parameters and buffers from
        the checkpoint (optimizer state stripped, schedule tag ignored —
        see :func:`repro.pipeline.checkpoint.restore_inference_weights`)
        and freeze them."""
        model = model_factory()
        metadata = restore_inference_weights(path, model)
        kwargs.setdefault("model_factory", model_factory)
        session = cls(model, **kwargs)
        session.metadata = metadata
        return session

    # -- shape plumbing -----------------------------------------------------

    @property
    def num_stages(self) -> int:
        return len(self.stages)

    def _resolve_shape(self, X: np.ndarray | None) -> tuple:
        if self.sample_shape is not None:
            return self.sample_shape
        if X is not None:
            self.sample_shape = tuple(np.asarray(X).shape[1:])
            return self.sample_shape
        raise ValueError(
            "session needs sample_shape (pass it to the constructor or "
            "run a batch infer first) before opening a serving stream"
        )

    # -- batch inference ----------------------------------------------------

    def infer(
        self, X: np.ndarray, micro_batch: int | None = None
    ) -> PipelineRunStats:
        """Run one batch through the pipeline, micro-batched at
        ``micro_batch`` (defaulting to the session width): open a stream
        for the batch, drive it, close it."""
        X = self.precision.cast_array(X)
        self._resolve_shape(X)
        schedule = InferenceSchedule(
            self.micro_batch if micro_batch is None else int(micro_batch)
        )
        if X.shape[0] == 0:
            # nothing to launch workers for
            idle = [StageCounters(s) for s in range(self.num_stages)]
            return forward_record(schedule, idle, np.zeros(0), self.runtime)
        with self._open(schedule.micro_batch, X.shape[1:], X.dtype) as stream:
            stats = run_inference(
                stream, schedule, X, self.num_stages, self.stall_timeout
            )
        # a worker stream learns its workers' counts from their finalize
        # replies at close, so take the counters after it
        stats.stages = list(stream.counters)
        return stats

    def forward_reference(
        self, X: np.ndarray, micro_batch: int | None = None
    ) -> np.ndarray:
        """Offline batched forward over the **same packet decomposition**
        the pipeline would use — the bit-exactness reference of the
        serving parity contract."""
        X = self.precision.cast_array(X)
        width = self.micro_batch if micro_batch is None else int(micro_batch)
        chunks = []
        with modules_eval_mode([self.model]), no_grad():
            for i in range(0, X.shape[0], width):
                chunks.append(self.model(Tensor(X[i : i + width])).data)
        if not chunks:
            return np.zeros(0)
        return np.concatenate(chunks, axis=0)

    # -- serving stream -----------------------------------------------------

    def open_stream(self):
        """Open a persistent forward-only stream on the session backend
        (used by :class:`repro.serve.server.PipelineServer`; close it
        when done, or use it as a context manager).  A worker stream's
        lanes are reported by :meth:`placement`."""
        stream = self._open(
            self.micro_batch, self._resolve_shape(None), self.dtype
        )
        if self.runtime != "sim":
            self._stream = stream
        return stream

    def _open(self, width: int, sample_shape: tuple, dtype):
        return open_inference_stream(
            self.stages,
            backend=self.runtime,
            max_width=width,
            sample_shape=sample_shape,
            dtype=dtype,
            capacity=self.capacity,
            stall_timeout=self.stall_timeout,
            model_factory=self.model_factory,
            start_method=self.start_method,
        )

    def placement(self) -> dict:
        """The last worker stream's lanes, JSON-ready: ``lanes`` lists
        each lane's pinned ``cpu`` and the ``packets`` dispatched to it so
        far — ``None`` before a worker stream has opened, and on
        ``sim``."""
        stream = self._stream
        return {"lanes": None if stream is None else stream.placement()}

    def describe(self) -> str:
        lanes = ""
        if self._stream is not None:
            lanes = f", lanes={self._stream.placement()}"
        return (
            f"InferenceSession({self.model.name}, runtime={self.runtime}, "
            f"stages={self.num_stages}{lanes}, "
            f"micro_batch={self.micro_batch}, "
            f"precision={self.precision.mode}, "
            f"fingerprint={self.fingerprint[:12]}...)"
        )
