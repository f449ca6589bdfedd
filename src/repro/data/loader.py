"""Batch iteration and per-sample streams over datasets.

:func:`iterate_batches` is one shuffled epoch of batches;
:func:`iterate_steps` chains epochs up to an exact number of optimizer
steps (the budget every flat experiment loop is written against).

Two stream flavors feed the pipeline engines' ``train()``:

* :func:`sample_stream` — the eager helper: materializes every epoch of
  a multi-epoch run up front (O(epochs·N) memory).  Kept for tests and
  small experiment sweeps, where a few hundred samples are cheaper to
  concatenate than to manage.
* :class:`ResumableSampleStream` — the lazy equivalent pipelined runs
  consume: one epoch in memory at a time (O(N)), identical sample
  sequence for the same seed (equivalence-tested), and a serializable
  cursor ``(epoch, index, rng state)`` so a checkpointed run resumes on
  the exact sample the uninterrupted run would have seen next.
"""

from __future__ import annotations

import copy
from itertools import islice
from typing import Iterator

import numpy as np


def iterate_batches(
    x: np.ndarray,
    y: np.ndarray,
    batch_size: int,
    rng: np.random.Generator | None = None,
    shuffle: bool = True,
    drop_last: bool = True,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield ``(xb, yb)`` batches for one epoch.

    ``drop_last`` keeps update sizes constant (important when comparing
    against scaled hyperparameters).
    """
    n = x.shape[0]
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    idx = np.arange(n)
    if shuffle:
        if rng is None:
            raise ValueError("shuffle=True requires an rng")
        idx = rng.permutation(n)
    stop = n - (n % batch_size) if drop_last else n
    for start in range(0, stop, batch_size):
        take = idx[start : start + batch_size]
        yield x[take], y[take]


def iterate_steps(
    x: np.ndarray,
    y: np.ndarray,
    batch_size: int,
    steps: int,
    rng: np.random.Generator,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield exactly ``steps`` full-size batches, reshuffling every epoch.

    Chains :func:`iterate_batches` epochs (``drop_last``), so ``rng`` is
    consumed exactly as by a hand-written epoch loop that stops after
    ``steps`` batches: one permutation per *started* epoch, nothing
    after the last batch.
    """
    if batch_size > x.shape[0]:
        raise ValueError(
            f"batch_size {batch_size} exceeds the {x.shape[0]} samples "
            "of one epoch"
        )
    done = 0
    while done < steps:
        epoch = iterate_batches(x, y, batch_size, rng=rng)
        for batch in islice(epoch, steps - done):
            done += 1
            yield batch


def shard_positions(
    n: int, rank: int, world: int, block: int = 1
) -> np.ndarray:
    """Global stream positions owned by ``rank`` under block-cyclic
    sharding: sample ``i`` belongs to ``(i // block) % world``.

    With ``block`` equal to a replica's update size, each rank's share
    of a global round of ``world * block`` samples is one *contiguous*
    stream slice — the property the replicated pipeline runner's
    chain-ordered gradient reduction relies on (see
    ``pipeline/runtime.py``).
    """
    if world < 1:
        raise ValueError(f"world must be >= 1, got {world}")
    if not 0 <= rank < world:
        raise ValueError(f"rank {rank} outside [0, {world})")
    if block < 1:
        raise ValueError(f"block must be >= 1, got {block}")
    idx = np.arange(int(n))
    return idx[(idx // block) % world == rank]


def sample_stream(
    x: np.ndarray,
    y: np.ndarray,
    epochs: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate ``epochs`` shuffled passes into one stream.

    The eager helper: materializes the full multi-epoch sequence up
    front, which caps run length by RAM.  Pipelined runs use
    :class:`ResumableSampleStream` instead (same sequence, one epoch in
    memory, resumable); this stays as the reference implementation the
    lazy stream is equivalence-tested against, and as a convenience for
    small test workloads.
    """
    xs, ys = [], []
    for _ in range(int(epochs)):
        idx = rng.permutation(x.shape[0])
        xs.append(x[idx])
        ys.append(y[idx])
    return np.concatenate(xs), np.concatenate(ys)


class ResumableSampleStream:
    """Lazy multi-epoch sample stream with a serializable cursor.

    Produces exactly the sequence :func:`sample_stream` would (same
    ``rng`` consumption order: one permutation draw per epoch) but
    materializes only the *current* epoch, so a
    run's length is bounded by patience, not memory.

    The cursor is ``(epoch, index, rng_state)`` where ``rng_state`` is
    the generator state **at the current epoch's start** — restoring it
    regenerates the epoch's permutation bit-exactly and
    skips to ``index``, so a resumed run continues mid-epoch on the very
    next sample the uninterrupted run would have consumed.  The
    checkpoint subsystem (:mod:`repro.pipeline.checkpoint`) persists this
    cursor next to the engine state.
    """

    def __init__(
        self,
        x: np.ndarray,
        y: np.ndarray,
        epochs: int,
        rng: np.random.Generator,
    ):
        if x.shape[0] != y.shape[0]:
            raise ValueError("x and y length mismatch")
        if x.shape[0] == 0:
            raise ValueError("cannot stream an empty dataset")
        if int(epochs) < 0:
            raise ValueError(f"epochs must be >= 0, got {epochs}")
        self.x = x
        self.y = y
        self.epochs = int(epochs)
        self.rng = rng
        self.epoch = 0  # current epoch (== epochs when exhausted)
        self.index = 0  # next sample within the current epoch
        self._epoch_x: np.ndarray | None = None
        self._epoch_y: np.ndarray | None = None
        self._epoch_rng_state: dict | None = None

    # -- cursor arithmetic --------------------------------------------------

    @property
    def samples_per_epoch(self) -> int:
        return int(self.x.shape[0])

    @property
    def total_samples(self) -> int:
        return self.epochs * self.samples_per_epoch

    @property
    def position(self) -> int:
        """Samples consumed so far (global stream offset)."""
        return self.epoch * self.samples_per_epoch + self.index

    @property
    def remaining(self) -> int:
        return self.total_samples - self.position

    @property
    def exhausted(self) -> bool:
        return self.remaining <= 0

    # -- epoch materialization ----------------------------------------------

    def _materialize_epoch(self) -> None:
        """Shuffle the current epoch; one epoch in memory.

        Consumes the rng exactly as :func:`sample_stream` does for this
        epoch.  The pre-permutation rng state is *not* kept here — a
        cursor captured mid-epoch stores it via :meth:`state_dict`'s
        ``_epoch_rng_state`` bookkeeping below.
        """
        if self._epoch_x is not None:
            return
        self._epoch_rng_state = copy.deepcopy(self.rng.bit_generator.state)
        idx = self.rng.permutation(self.samples_per_epoch)
        self._epoch_x = self.x[idx]
        self._epoch_y = self.y[idx]

    def _drop_epoch(self) -> None:
        self._epoch_x = None
        self._epoch_y = None
        self._epoch_rng_state = None

    # -- consumption --------------------------------------------------------

    def next_chunk(self, max_samples: int) -> tuple[np.ndarray, np.ndarray]:
        """The next up-to-``max_samples`` samples, crossing epoch
        boundaries as needed; returns ``(xs, ys)`` (views when the chunk
        fits inside one epoch, copies otherwise)."""
        if max_samples < 1:
            raise ValueError(f"max_samples must be >= 1, got {max_samples}")
        need = min(int(max_samples), self.remaining)
        if need <= 0:
            raise ValueError("stream is exhausted")
        n = self.samples_per_epoch
        xs = ys = None
        filled = 0
        while filled < need:
            self._materialize_epoch()
            take = min(need - filled, n - self.index)
            part_x = self._epoch_x[self.index : self.index + take]
            part_y = self._epoch_y[self.index : self.index + take]
            if take == need:
                xs, ys = part_x, part_y
            else:
                if xs is None:
                    # one result filled epoch by epoch: collecting the
                    # parts to concatenate them holds the chunk twice
                    xs = np.empty((need, *part_x.shape[1:]), part_x.dtype)
                    ys = np.empty((need, *part_y.shape[1:]), part_y.dtype)
                xs[filled : filled + take] = part_x
                ys[filled : filled + take] = part_y
            filled += take
            self.index += take
            if self.index >= n:
                self.epoch += 1
                self.index = 0
                self._drop_epoch()
        return xs, ys

    # -- cursor (checkpoint/resume) -----------------------------------------

    def state_dict(self) -> dict:
        """Serializable cursor: ``(epoch, index)`` plus the rng state at
        the current epoch's start (the live rng state when nothing of
        the epoch has been consumed yet)."""
        if self._epoch_x is None:
            rng_state = copy.deepcopy(self.rng.bit_generator.state)
        else:
            rng_state = copy.deepcopy(self._epoch_rng_state)
        return {
            "epoch": int(self.epoch),
            "index": int(self.index),
            "epochs": int(self.epochs),
            "samples_per_epoch": self.samples_per_epoch,
            "rng_state": rng_state,
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` cursor.

        The stream must wrap the same dataset (size-checked); the next
        :meth:`next_chunk` regenerates the in-progress epoch from the
        restored rng state and continues at ``index``.
        """
        if int(state["samples_per_epoch"]) != self.samples_per_epoch:
            raise ValueError(
                f"cursor was captured over {state['samples_per_epoch']} "
                f"samples/epoch, this stream has {self.samples_per_epoch}"
            )
        epoch = int(state["epoch"])
        index = int(state["index"])
        epochs = int(state["epochs"])
        if not 0 <= epoch <= epochs:
            raise ValueError(f"cursor epoch {epoch} outside [0, {epochs}]")
        if not 0 <= index < max(1, self.samples_per_epoch):
            raise ValueError(f"cursor index {index} outside the epoch")
        self.epochs = epochs
        self.epoch = epoch
        self.index = index
        self.rng.bit_generator.state = copy.deepcopy(state["rng_state"])
        self._drop_epoch()
