"""Durable training: versioned run checkpoints, resume, and safe points.

Long pipelined-backprop runs on real hardware die — machines reboot, jobs
get preempted, workers OOM.  PipeDream-style systems (Harlap et al. 2018)
treat per-stage state capture as a first-class concern for exactly this
reason; this module is that concern for every pipeline engine — each
is a :class:`~repro.pipeline.executor.PipelineExecutor` (the simulator
itself, or a :mod:`~repro.pipeline.runtime` runner subclassing it), so
``state_dict`` / ``load_state_dict`` are one implementation.

What a checkpoint holds
-----------------------

A :func:`capture_checkpoint` snapshot is *complete*: restoring it into a
freshly built engine + data stream continues the run **bit-exactly** —
the resumed run computes the same losses and lands on hex-identical
final weights as the uninterrupted run with the same checkpoint cadence.
It contains

* every stage's :meth:`PipelineStage.state_dict`, the one definition
  of stage state (via the engine's ``state_dict``): weights, velocity,
  previous weights, module buffers (BatchNorm running statistics),
  update counter and learning rate;
* the engine-level progress counter (``samples_completed``) that drives
  the LR schedule;
* the schedule identity (name / update size / micro-batch), so a restore
  into a differently-configured engine fails loudly instead of silently
  training a different trajectory;
* the data-stream cursor ``(epoch, index, rng state)`` of a
  :class:`~repro.data.loader.ResumableSampleStream`, so the resumed run
  consumes the *same* sample sequence the uninterrupted run would have —
  including mid-epoch positions, because the RNG state pinned at epoch
  start regenerates the epoch's permutation exactly.

Safe points
-----------

Snapshots are only taken at **drain barriers**: moments when the
pipeline holds no in-flight packets and no stage has a pending gradient,
which is precisely the boundary between two ``engine.train()`` calls
(``PipelineStage.state_dict`` refuses mid-flight stages, so an unsafe
capture cannot happen silently).  :class:`DurableRun` creates those
barriers on a fixed cadence by splitting the sample stream into
``checkpoint_every``-sample segments.  Draining is not free for the
asynchronous schedules (``pb``/``1f1b`` see slightly different weight
staleness around a barrier than they would mid-stream), so the
reproducibility contract is *cadence-matched*: a resumed run is
bit-identical to the uninterrupted run **with the same
checkpoint_every** — which is also exactly what the recovery story
needs, since the golden and the crashed run share their cadence.

On-disk format
--------------

One file, written atomically (temp file + ``os.replace`` in the target
directory, fsynced) so a crash mid-write can never corrupt the previous
checkpoint::

    [ 10-byte magic ][ uint32 LE format version ][ pickled payload ]

The payload is a plain dict of NumPy arrays and scalars; pickle
round-trips float64 arrays bit-exactly.  :func:`load_checkpoint`
validates the magic and refuses versions newer than it understands.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import struct
import tempfile
from dataclasses import dataclass, field

import numpy as np

from repro.pipeline.stage import WEIGHT_ARRAYS, PipelineStage, load_stage_states

#: File magic: identifies a checkpoint regardless of extension.
CHECKPOINT_MAGIC = b"REPRO-CKPT"
#: Current on-disk format version (bump on incompatible payload changes).
CHECKPOINT_VERSION = 1


class CheckpointError(RuntimeError):
    """A checkpoint file is missing, corrupt, or from an unknown format."""


# ---------------------------------------------------------------------------
# file format
# ---------------------------------------------------------------------------


def save_checkpoint(path: str, payload: dict) -> str:
    """Atomically write ``payload`` as a versioned checkpoint file.

    The write goes to a temp file in the target directory first and is
    published with ``os.replace``, so readers either see the previous
    complete checkpoint or the new complete checkpoint — never a torn
    file, even if the process dies mid-write.
    """
    payload = dict(payload)
    payload["format_version"] = CHECKPOINT_VERSION
    blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    path = os.path.abspath(path)
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        prefix=os.path.basename(path) + ".tmp.", dir=directory
    )
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(CHECKPOINT_MAGIC)
            f.write(struct.pack("<I", CHECKPOINT_VERSION))
            f.write(blob)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


def load_checkpoint(path: str) -> dict:
    """Read and validate a checkpoint written by :func:`save_checkpoint`."""
    try:
        with open(path, "rb") as f:
            head = f.read(len(CHECKPOINT_MAGIC))
            if head != CHECKPOINT_MAGIC:
                raise CheckpointError(
                    f"{path}: not a checkpoint file (bad magic {head!r})"
                )
            raw = f.read(4)
            if len(raw) != 4:
                raise CheckpointError(f"{path}: truncated version header")
            (version,) = struct.unpack("<I", raw)
            if version > CHECKPOINT_VERSION:
                raise CheckpointError(
                    f"{path}: format version {version} is newer than this "
                    f"build understands (max {CHECKPOINT_VERSION})"
                )
            try:
                payload = pickle.load(f)
            except Exception as exc:
                raise CheckpointError(
                    f"{path}: corrupt checkpoint body ({exc!r})"
                ) from exc
    except FileNotFoundError as exc:
        raise CheckpointError(f"checkpoint {path} does not exist") from exc
    if not isinstance(payload, dict) or "engine" not in payload:
        raise CheckpointError(f"{path}: payload is not a run checkpoint")
    return payload


# ---------------------------------------------------------------------------
# capture / restore
# ---------------------------------------------------------------------------


def capture_checkpoint(
    engine, stream=None, metadata: dict | None = None
) -> dict:
    """Snapshot a run at a drain barrier into a serializable payload.

    ``engine`` is any of the three pipeline engines (they share the
    ``state_dict`` surface); ``stream`` an optional
    :class:`~repro.data.loader.ResumableSampleStream` whose cursor rides
    along.  Must be called between ``train()`` calls — the stage-level
    capture refuses mid-flight state.
    """
    return {
        "format_version": CHECKPOINT_VERSION,
        "engine": engine.state_dict(),
        "stream": None if stream is None else stream.state_dict(),
        "metadata": dict(metadata or {}),
    }


def restore_checkpoint(ckpt: dict, engine=None, stream=None) -> dict:
    """Load a payload (from :func:`capture_checkpoint` or
    :func:`load_checkpoint`) into an engine and/or stream.

    Pass freshly built objects configured like the originals (same model
    architecture, schedule, optimizer hyperparameters, stream
    epochs/seed); the restore validates what it can (schedule identity,
    stage count, array shapes) and rebinds the rest.  Returns ``ckpt``
    for chaining.
    """
    if engine is not None:
        engine.load_state_dict(ckpt["engine"])
    if stream is not None:
        if ckpt.get("stream") is None:
            raise CheckpointError(
                "checkpoint carries no stream cursor but a stream was "
                "passed to restore"
            )
        stream.load_state_dict(ckpt["stream"])
    return ckpt


def _weights_view(ckpt, dtype) -> tuple[dict, list[dict]]:
    """The payload behind ``ckpt`` (a payload or a checkpoint path) and
    its per-stage :data:`~repro.pipeline.stage.WEIGHT_ARRAYS` cast to
    ``dtype``: what serving loads and what its fingerprint covers."""
    if isinstance(ckpt, (str, os.PathLike)):
        ckpt = load_checkpoint(os.fspath(ckpt))
    engine_state = ckpt.get("engine")
    if not isinstance(engine_state, dict) or "stages" not in engine_state:
        raise CheckpointError(
            "checkpoint payload carries no engine state to take weights from"
        )
    return ckpt, [
        {
            key: [np.asarray(a, dtype=dtype) for a in st.get(key, [])]
            for key in WEIGHT_ARRAYS
        }
        for st in engine_state["stages"]
    ]


def restore_inference_weights(ckpt, model) -> dict:
    """Weights-only restore for serving: load what a forward pass reads
    — a training checkpoint's parameters and module buffers (BatchNorm
    running statistics) — into a freshly built model, **stripping
    optimizer state**.

    ``ckpt`` is a checkpoint payload (from :func:`load_checkpoint` /
    :func:`capture_checkpoint`) or a path to a checkpoint file; ``model``
    a :class:`~repro.models.arch.StageGraphModel` built exactly like the
    one that trained.  Velocity, previous weights, update counters and
    learning rates are training concerns an inference session has no
    use for, and the schedule tag is deliberately **ignored**: the
    schedule a model was trained under does not change what its frozen
    weights compute, so a PB-trained checkpoint serves identically to a
    GPipe-trained one.

    Validation is all-then-load and is the stages' own
    (:meth:`PipelineStage.validate_state` on the weights-only view, the
    arrays cast to the model's parameter dtype): nothing is mutated
    until every stage accepts, so a mismatched checkpoint can never
    leave the model torn, and one written before buffers were captured
    is refused for a model that owns them.  Returns the checkpoint's
    ``metadata`` dict for provenance display.
    """
    params = model.parameters()
    ckpt, views = _weights_view(
        ckpt, params[0].data.dtype if params else "float64"
    )
    specs = model.stage_defs
    stages = [
        PipelineStage(i, spec, len(specs), lr=0.0)
        for i, spec in enumerate(specs)
    ]
    try:
        load_stage_states(stages, views, WEIGHT_ARRAYS)
    except ValueError as exc:
        raise CheckpointError(str(exc)) from exc
    return dict(ckpt.get("metadata", {}))


def _fingerprint(arrays) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        arr = np.ascontiguousarray(arr)
        h.update(str(arr.dtype).encode())
        h.update(str(arr.shape).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def model_fingerprint(model) -> str:
    """SHA-256 over every parameter's, then every buffer's, raw bytes —
    the hex-equality fingerprint the resume-parity checks compare."""
    return _fingerprint(
        [p.data for p in model.parameters()]
        + [b for _, b in model.named_buffers()]
    )


def checkpoint_fingerprint(ckpt, dtype="float64") -> str:
    """The :func:`model_fingerprint` a model *will* have after
    :func:`restore_inference_weights` loads ``ckpt`` into it — computed
    straight from the checkpoint payload, no model required.

    This is the fleet hot-swap verification handle: the router computes
    the expected fingerprint from the checkpoint once, then checks every
    reloaded replica's session fingerprint against it before letting the
    replica rejoin — a replica serving the wrong weights or running
    statistics can never silently re-enter rotation.  ``dtype`` is the
    target model's parameter dtype (the restore casts into it;
    ``float64`` for the reference precision every training engine
    checkpoints in).
    """
    _, views = _weights_view(ckpt, dtype)
    return _fingerprint(
        a for key in WEIGHT_ARRAYS for view in views for a in view[key]
    )


# ---------------------------------------------------------------------------
# the durable-run driver
# ---------------------------------------------------------------------------


@dataclass
class DurableRunResult:
    """Outcome of one :meth:`DurableRun.run` call.

    ``losses`` concatenates the per-sample losses of every segment this
    call executed (a resumed run reports only post-resume segments);
    ``stats`` keeps the per-segment
    :class:`~repro.pipeline.executor.PipelineRunStats`.
    """

    losses: np.ndarray
    samples: int
    segments: int
    checkpoint_path: str | None
    stats: list = field(default_factory=list)

    @property
    def mean_loss(self) -> float:
        return float(self.losses.mean()) if self.losses.size else float("nan")


class DurableRun:
    """Drive an engine over a resumable stream with periodic snapshots.

    Splits the stream into ``checkpoint_every``-sample segments, trains
    one segment per ``engine.train()`` call, and snapshots engine +
    stream cursor to ``checkpoint_path`` after every segment (and once
    more at the end).  Each segment boundary is a drain barrier — the
    only state a restart needs is what the checkpoint holds.

    ``checkpoint_every`` is rounded **up** to a multiple of the
    schedule's update size so barriers align with the synchronous
    schedules' batch boundaries (a mis-aligned barrier would flush a
    partial batch and change the trajectory).  ``0`` disables periodic
    snapshots: the whole stream trains as one segment, with a single
    final checkpoint if a path is given.

    Resume with :meth:`DurableRun.resume`: build a fresh engine and
    stream exactly as the original run did, and the checkpoint rebinds
    their state and cursor.  The cadence is stored in the file and
    reused by default, which is what makes resumed runs bit-identical to
    the uninterrupted run (see module docstring on safe points).
    """

    def __init__(
        self,
        engine,
        stream,
        checkpoint_path: str | None = None,
        checkpoint_every: int = 0,
        metadata: dict | None = None,
    ):
        if checkpoint_every < 0:
            raise ValueError(
                f"checkpoint_every must be >= 0, got {checkpoint_every}"
            )
        self.engine = engine
        self.stream = stream
        self.checkpoint_path = checkpoint_path
        unit = max(1, int(engine.update_size))
        every = int(checkpoint_every)
        if every:
            every = -(-every // unit) * unit  # round up to a drain barrier
        self.checkpoint_every = every
        self.metadata = dict(metadata or {})

    def _snapshot(self) -> None:
        if self.checkpoint_path is None:
            return
        payload = capture_checkpoint(
            self.engine, self.stream, metadata=self.metadata
        )
        payload["checkpoint_every"] = self.checkpoint_every
        payload["samples_completed"] = int(self.engine.samples_completed)
        save_checkpoint(self.checkpoint_path, payload)

    def run(self, max_samples: int | None = None) -> DurableRunResult:
        """Train until the stream is exhausted (or ``max_samples`` more
        samples have been consumed), checkpointing at every barrier."""
        losses: list[np.ndarray] = []
        stats_list = []
        segments = 0
        budget = (
            self.stream.remaining
            if max_samples is None
            else min(int(max_samples), self.stream.remaining)
        )
        done = 0
        while done < budget:
            take = min(self.checkpoint_every or budget, budget - done)
            xs, ys = self.stream.next_chunk(take)
            stats = self.engine.train(xs, ys)
            losses.append(np.asarray(stats.losses))
            stats_list.append(stats)
            segments += 1
            done += xs.shape[0]
            self._snapshot()
        return DurableRunResult(
            losses=(
                np.concatenate(losses) if losses else np.zeros(0)
            ),
            samples=done,
            segments=segments,
            checkpoint_path=self.checkpoint_path,
            stats=stats_list,
        )

    @classmethod
    def resume(
        cls,
        checkpoint_path: str,
        engine,
        stream,
        checkpoint_every: int | None = None,
        metadata: dict | None = None,
    ) -> "DurableRun":
        """Rebind a saved run onto a freshly built engine + stream.

        ``checkpoint_every`` defaults to the cadence stored in the file —
        keep that default whenever bit-parity with the original run
        matters, since the barrier positions are part of the trajectory.
        """
        ckpt = load_checkpoint(checkpoint_path)
        restore_checkpoint(ckpt, engine, stream)
        if checkpoint_every is None:
            checkpoint_every = int(ckpt.get("checkpoint_every", 0))
        meta = dict(ckpt.get("metadata", {}))
        meta.update(metadata or {})
        return cls(
            engine,
            stream,
            checkpoint_path=checkpoint_path,
            checkpoint_every=checkpoint_every,
            metadata=meta,
        )
