"""Shared-memory zero-copy transport for the process pipeline runtime.

The threaded runtime (:class:`~repro.pipeline.runtime.ConcurrentPipelineRunner`)
moves packets as Python object references between threads — free, but
serialized by the GIL.  Worker *processes* need a wire, and the obvious
wires (``multiprocessing.Queue`` / ``Pipe``) pickle every payload: for a
``(B, C, H, W)`` activation that is a serialize + copy + deserialize per
hop, per packet, on the steady-state hot path.  This module provides the
alternative the process runtime is built on: **fixed-slot single-producer
single-consumer rings over** ``multiprocessing.shared_memory``.

Design
------

A pipeline boundary carries payloads of *static structure*: the stage
graph is linear, so the list of arrays travelling between stage ``s`` and
``s+1`` always has the same length, per-sample shapes and dtypes — only
the leading (micro-batch) dimension varies, and it is bounded by the
schedule's micro-batch width.  :func:`probe_boundary_layouts` discovers
those layouts once per run by streaming a dummy max-width packet through
the stages (eval mode, no grad, nothing mutated), and each
:class:`ShmRing` preallocates ``slots`` slots of exactly that layout in
one shared-memory block:

.. code-block:: text

    [ head | pad ][ tail | pad ][ slot 0 ][ slot 1 ] ... [ slot k-1 ]
    slot := [ pid | start | size ][ array 0 ][ array 1 ] ...

Arrays of a cache line or more are 64-byte aligned inside the slot;
smaller arrays pack back-to-back (:func:`slot_layout`), so boundaries
carrying several tiny tensors coalesce them into one packed region
instead of one padded cache line each.  Slot bytes track the payload
dtype: a float32 boundary costs half the shared memory of the float64
reference layout.

* the **producer** copies payload arrays into the next free slot
  (``np.copyto`` — one memcpy, no serialization) and publishes it by
  incrementing ``head``;
* the **consumer** receives **zero-copy NumPy views** into the slot
  (:meth:`ShmRing.recv` allocates nothing and copies nothing) and frees
  the slot later by incrementing ``tail`` (:meth:`ShmRing.release`).

Ordering relies on the SPSC discipline: each counter has exactly one
writer, data writes precede the ``head`` publish, and x86-TSO (plus the
CPython interpreter executing bytecodes in order) keeps the publish from
overtaking the data.  The same discipline is what lock-free SPSC rings
use in C; no locks, no syscalls on the hot path.

Deferred release and ring sizing
--------------------------------

The autodiff engine reads *lazily*: a compute stage's backward re-reads
the forward input activation (``matmul`` reads ``parent.data`` at
backward time), so a forward payload's slot must stay alive until that
sample's **backward** completes at the stage.  The consumer therefore
releases slots out-of-band, and capacity must cover the stage's maximum
in-flight window: the process runtime sizes the ring into stage ``s`` as
``D_s + 1 + slack`` slots, where ``D_s + 1 = 2(S-1-s) + 1`` is the
PipeDream in-flight cap that also enforces the paper's eq. 5 staleness
ceiling.  Gradients are consumed eagerly (``backward_multi`` copies its
seeds), so backward slots are released as soon as the stage's backward
returns —
but backward rings get the same sizing, which guarantees they can never
fill (at most ``D_s`` backward packets can be outstanding toward stage
``s``) and hence that backward sends never block: the runtime's
deadlock-freedom argument.

Doorbells
---------

Nothing polls.  Every ring carries two :class:`Doorbell` s — non-blocking
pipes, one per direction — and a blocked side sleeps in ``select`` on
its bell until the peer rings it:

* **publish → ring**: :meth:`ShmRing.send` writes a byte to the *data*
  bell after publishing ``head``; :meth:`ShmRing.release` writes one to
  the *space* bell after publishing ``tail``;
* **drain → re-check → block**: a waiter empties its bell, re-reads the
  counter, and only then blocks.  A publish that lands after the
  re-check rings after the drain, so its byte is still in the pipe when
  ``select`` looks: no wake-up is lost.

Each bell has exactly one waiter (the ring is SPSC) and holds no lock or
semaphore, so a SIGKILLed peer cannot die holding it.  The bells travel
with the ring through ``__reduce__`` on every start method; a ring
attached from a bare descriptor has none and falls back to re-checking
every :data:`WAIT_SAFETY_NET` seconds — the bounded timeout every block
carries anyway.  Waits keep their stall deadline and abort check (the
abort flag of a process group is itself a bell, see
:class:`~repro.pipeline.worker._SharedAbort`), so a dead peer turns into
a loud :class:`TransportStall` instead of a hang.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import platform
import select
import time
from dataclasses import dataclass
from multiprocessing import reduction, resource_tracker, shared_memory
from multiprocessing.context import get_spawning_popen
from typing import Iterable, Sequence

import numpy as np

from repro.nn.module import modules_eval_mode
from repro.tensor.tensor import no_grad

#: The lock-free publish protocol relies on total-store-order (stores
#: become visible in program order), which x86 guarantees.  On
#: weakly-ordered machines (aarch64, POWER) every counter access is
#: routed through a per-ring lock instead: the acquire/release pair is
#: the memory fence Python cannot otherwise express, trading a little
#: hot-path cost for correctness.  ``REPRO_SHM_FENCE=1`` forces the
#: fenced mode anywhere (used by the tests to exercise the path).
_TSO_MACHINES = {"x86_64", "amd64", "i386", "i686", "x86"}


def _needs_fence() -> bool:
    if os.environ.get("REPRO_SHM_FENCE", "") not in ("", "0"):
        return True
    return platform.machine().lower() not in _TSO_MACHINES

#: Alignment for the slot header and each array region (cache line).
_ALIGN = 64
#: Longest a waiter blocks before it re-checks by itself (seconds): the
#: safety net under the bell protocol — what a bell-less ring falls back
#: to — and the granularity of stall deadlines.
WAIT_SAFETY_NET = 0.05


class TransportError(RuntimeError):
    """Misuse of a ring (layout mismatch, release underflow, ...)."""


class TransportStall(TransportError):
    """A blocking ring operation exceeded its deadline."""


class TransportAborted(TransportError):
    """A blocking ring operation observed the shared abort flag."""


def _align(n: int) -> int:
    return (n + _ALIGN - 1) // _ALIGN * _ALIGN


class Doorbell:
    """A wake-up line to one waiter: a non-blocking pipe (module
    docstring, "Doorbells").  :meth:`ring` writes a byte, the waiter
    blocks in ``select`` on the bell and :meth:`drain` s it before
    re-checking what it waits for."""

    def __init__(self, fds: tuple[int, int] | None = None):
        if fds is None:
            fds = os.pipe()
            for fd in fds:
                os.set_blocking(fd, False)
        self._r, self._w = fds

    def fileno(self) -> int:
        return self._r

    def ring(self) -> None:
        try:
            os.write(self._w, b"\0")
        except OSError:
            # a full pipe already holds a wake-up; a closed one has no
            # waiter left to wake
            pass

    def drain(self) -> None:
        try:
            os.read(self._r, 1 << 16)  # a pipe's capacity: one read empties
        except OSError:
            pass  # nothing to read

    def close(self) -> None:
        for fd in (self._r, self._w):
            if fd >= 0:
                os.close(fd)
        self._r = self._w = -1

    def __reduce__(self):
        # the fds ride the child's launch (spawn, forkserver) the way a
        # Connection's does
        return _rebuild_bell, tuple(
            reduction.DupFd(fd) for fd in (self._r, self._w)
        )


def _rebuild_bell(r, w) -> Doorbell:
    return Doorbell((r.detach(), w.detach()))


def wait_on_bells(
    ready, bells: Sequence[Doorbell], fds: Sequence, timeout: float
) -> bool:
    """One round of the waiter's half of the bell protocol: drain the
    ``bells`` → re-check → block in ``select`` on ``fds`` (the bells plus
    whatever else should end the block; anything with a ``fileno``) for
    at most ``timeout`` seconds.  Returns whether ``ready()`` held at the
    re-check; a ``False`` says nothing about now — the caller loops."""
    for bell in bells:
        bell.drain()
    if ready():
        return True
    select.select(fds, [], [], timeout)
    return False


def block_on_bells(
    ready, bells: Sequence[Doorbell], timeout: float, abort=None
) -> bool:
    """Block on ``bells`` until ``ready()`` — ``True`` — or until the
    abort flag or the deadline — ``False``.  A waiter on several rings
    (a stream's parent over every lane) passes all their bells: one
    ``select`` wakes on whichever peer rings first."""
    deadline = time.monotonic() + timeout
    fds = [*bells, abort] if hasattr(abort, "fileno") else list(bells)
    while True:
        remaining = deadline - time.monotonic()
        if wait_on_bells(
            ready, bells, fds, max(0.0, min(remaining, WAIT_SAFETY_NET))
        ):
            return True
        if remaining <= 0 or (abort is not None and abort.is_set()):
            return False


@dataclass(frozen=True)
class ArraySpec:
    """Shape/dtype of one slot array; leading dim is the max batch width."""

    shape: tuple[int, ...]
    dtype: str

    @property
    def nbytes(self) -> int:
        return int(np.prod(self.shape, dtype=np.int64)) * np.dtype(self.dtype).itemsize


def payload_specs(payload: Sequence[np.ndarray]) -> tuple[ArraySpec, ...]:
    """Layout of a concrete payload (its arrays' shapes and dtypes)."""
    return tuple(ArraySpec(tuple(a.shape), str(a.dtype)) for a in payload)


def slot_layout(arrays: Sequence[ArraySpec]) -> tuple[list[int], int]:
    """Byte offset of each array inside one slot, and the slot's payload size.

    Arrays of at least one cache line keep 64-byte alignment (their
    bulk ``memcpy`` is what the alignment buys); smaller ones pack
    back-to-back into the running offset, so a boundary that carries
    several tiny tensors — biases, norm stats, scalar side-channels —
    coalesces them into one packed region of the slot instead of
    spending a padded cache line on each.  The returned payload size is
    aligned so consecutive slots stay cache-line disjoint.
    """
    offsets: list[int] = []
    off = 0
    for spec in arrays:
        if spec.nbytes >= _ALIGN:
            off = _align(off)
        offsets.append(off)
        off += spec.nbytes
    return offsets, _align(off)


def probe_boundary_layouts(
    stages, x_packet: np.ndarray
) -> list[tuple[ArraySpec, ...]]:
    """Payload layout entering each stage, for a max-width input packet.

    Streams a dummy packet through every non-loss stage's forward with
    ``train=False`` under ``no_grad`` and the modules forced into eval
    mode (so BatchNorm running stats and Dropout RNG streams are not
    touched); layout ``b`` describes the forward ring *into* stage ``b``
    — and, because a stage's backward output mirrors its forward input,
    also the backward ring flowing back *out of* stage ``b``.  An
    exception a stage raises leaves with that stage's ``stage_index``.
    """
    modules = [st.spec.module for st in stages if st.spec.module is not None]
    with modules_eval_mode(modules), no_grad():
        payload = [np.ascontiguousarray(x_packet)]
        layouts = [payload_specs(payload)]
        # the loss stage consumes, emits nothing
        for stage in stages[:-1]:
            try:
                payload = stage.forward(-1, payload, train=False)
            except Exception as exc:
                exc.stage_index = stage.index
                raise
            layouts.append(payload_specs(payload))
    return layouts


@dataclass(frozen=True)
class RingDescriptor:
    """Picklable handle: everything a worker needs to attach to a ring."""

    shm_name: str
    label: str
    arrays: tuple[ArraySpec, ...]
    slots: int


@dataclass
class _SlotViews:
    meta: np.ndarray  # int64[3]: pid, start, size
    arrays: list[np.ndarray]


class ShmRing:
    """Fixed-slot SPSC ring over one shared-memory block (module docstring).

    One process calls :meth:`create` (and later :meth:`unlink`); every
    other participant attaches via :meth:`attach` (or transparently by
    unpickling, which is how worker specs ship rings under ``spawn``).
    A ring has exactly one producer and one consumer; the producer uses
    :meth:`send`/:meth:`try_send`, the consumer :meth:`try_recv`/
    :meth:`recv` and :meth:`release`.
    """

    def __init__(self, descriptor: RingDescriptor, shm: shared_memory.SharedMemory,
                 owner: bool, fence=None, bells=None):
        self.descriptor = descriptor
        self._shm = shm
        self._owner = owner
        #: None on TSO machines (lock-free); a multiprocessing.Lock on
        #: weakly-ordered ones (see _needs_fence)
        self._fence = fence
        #: the consumer's and the producer's wake-up lines (``None`` on a
        #: ring attached from a bare descriptor)
        self.data_bell, self.space_bell = bells or (None, None)
        self.label = descriptor.label
        self.slots = descriptor.slots
        buf = shm.buf
        self._head = np.ndarray((1,), dtype=np.int64, buffer=buf, offset=0)
        self._tail = np.ndarray((1,), dtype=np.int64, buffer=buf, offset=_ALIGN)
        rel_offsets, payload_bytes = slot_layout(descriptor.arrays)
        #: bytes of one slot (meta header + packed payload region)
        self.slot_bytes = _ALIGN + payload_bytes
        self._slot_views: list[_SlotViews] = []
        offset = 2 * _ALIGN
        for _ in range(descriptor.slots):
            meta = np.ndarray((3,), dtype=np.int64, buffer=buf, offset=offset)
            base = offset + _ALIGN
            arrays = [
                np.ndarray(spec.shape, dtype=spec.dtype, buffer=buf,
                           offset=base + rel)
                for spec, rel in zip(descriptor.arrays, rel_offsets)
            ]
            offset += self.slot_bytes
            self._slot_views.append(_SlotViews(meta=meta, arrays=arrays))
        #: precomputed per-array expectations so the hot-path layout
        #: check in _write_body compares against constants instead of
        #: re-deriving tuples from the slot views on every send
        self._expect = [
            (tuple(spec.shape[1:]), int(spec.shape[0]), np.dtype(spec.dtype))
            for spec in descriptor.arrays
        ]
        #: consumer-local read cursor (tail <= _next <= head).  A consumer
        #: that attaches late must start at ``tail``: everything in
        #: ``[tail, head)`` was published before it arrived and is still
        #: unconsumed (the producer may legally run ahead of the attach).
        self._next = int(self._tail[0])

    # -- construction -------------------------------------------------------

    @staticmethod
    def _block_size(arrays: Sequence[ArraySpec], slots: int) -> int:
        slot = _ALIGN + slot_layout(arrays)[1]
        return 2 * _ALIGN + slots * slot

    @classmethod
    def create(cls, label: str, arrays: Sequence[ArraySpec], slots: int
               ) -> "ShmRing":
        if slots < 1:
            raise TransportError(f"ring {label!r} needs >= 1 slot, got {slots}")
        arrays = tuple(arrays)
        shm = shared_memory.SharedMemory(
            create=True, size=cls._block_size(arrays, slots)
        )
        desc = RingDescriptor(
            shm_name=shm.name, label=label, arrays=arrays, slots=slots
        )
        # a spawn-context lock works under every start method: fork
        # children inherit it, spawn children unpickle it (same-context
        # pickling is the one combination multiprocessing allows)
        fence = mp.get_context("spawn").Lock() if _needs_fence() else None
        ring = cls(desc, shm, owner=True, fence=fence,
                   bells=(Doorbell(), Doorbell()))
        ring._head[0] = 0
        ring._tail[0] = 0
        ring._next = 0
        return ring

    @classmethod
    def attach(cls, descriptor: RingDescriptor, fence=None, bells=None
               ) -> "ShmRing":
        # Python <=3.12 registers attached segments with the resource
        # tracker as if the attaching process owned them; the tracker's
        # cache is a *set*, so the duplicate registrations collapse and
        # the matching unregisters raise KeyErrors at teardown.  Only the
        # creator owns a ring here — suppress registration for the attach.
        orig_register = resource_tracker.register

        def _no_shm_register(name, rtype):  # pragma: no cover - trivial
            if rtype != "shared_memory":
                orig_register(name, rtype)

        resource_tracker.register = _no_shm_register
        try:
            shm = shared_memory.SharedMemory(name=descriptor.shm_name)
        finally:
            resource_tracker.register = orig_register
        return cls(descriptor, shm, owner=False, fence=fence, bells=bells)

    def __reduce__(self):
        # pickling a ring (spawn-start worker specs) yields an attach;
        # the fence lock and the bells travel with it (multiprocessing
        # pickles semaphores and fds through Process args on any start
        # method).  Pickled anywhere else there is no launch for the
        # fds to ride, and the copy waits by the safety net alone.
        bells = None
        if get_spawning_popen() is not None and self.data_bell is not None:
            bells = (self.data_bell, self.space_bell)
        return (ShmRing.attach, (self.descriptor, self._fence, bells))

    # -- waiting ------------------------------------------------------------

    def _wait(self, ready, bell, timeout: float, what: str, abort) -> None:
        """:func:`block_on_bells` on ``bell`` that raises on abort or a
        passed deadline."""
        bells = [] if bell is None else [bell]
        if block_on_bells(ready, bells, timeout, abort):
            return
        if abort is not None and abort.is_set():
            raise TransportAborted(
                f"ring {self.label!r}: aborted while waiting for {what}"
            )
        raise TransportStall(
            f"ring {self.label!r}: stalled waiting for {what} "
            f"({timeout:.1f}s) — likely a dead or deadlocked peer"
        )

    def idle_wait(self, conn, abort, other: "ShmRing | None" = None):
        """The consumer's idle wait, ``wait(ready)``: one bounded block
        on everything that can hand this ring's consumer work — this
        ring, the ``other`` ring it also consumes, its control endpoint
        ``conn`` and the abort flag.  The caller loops on ``ready``."""
        bells = [
            ring.data_bell
            for ring in (self, other)
            if ring is not None and ring.data_bell is not None
        ]
        fds = [*bells, conn, abort]

        def wait(ready) -> None:
            wait_on_bells(ready, bells, fds, WAIT_SAFETY_NET)

        return wait

    # -- producer side ------------------------------------------------------

    def _write(self, pid: int, start: int, size: int,
               payload: Sequence[np.ndarray]) -> None:
        if self._fence is None:
            self._write_body(pid, start, size, payload)
        else:
            # weak-memory machines: the lock's release fences the payload
            # stores ahead of the head publish for any consumer whose
            # poll() acquires the same lock
            with self._fence:
                self._write_body(pid, start, size, payload)
        if self.data_bell is not None:
            self.data_bell.ring()  # publish -> ring

    def _write_body(self, pid: int, start: int, size: int,
                    payload: Sequence[np.ndarray]) -> None:
        slot = self._slot_views[int(self._head[0]) % self.slots]
        if len(payload) != len(slot.arrays):
            raise TransportError(
                f"ring {self.label!r}: payload has {len(payload)} arrays, "
                f"layout expects {len(slot.arrays)}"
            )
        for (tail_shape, max_width, dtype), buf_arr, arr in zip(
            self._expect, slot.arrays, payload
        ):
            if (
                arr.shape[1:] != tail_shape
                or arr.shape[0] > max_width
                or arr.dtype != dtype
            ):
                raise TransportError(
                    f"ring {self.label!r}: array {arr.shape}/{arr.dtype} does "
                    f"not fit slot layout {buf_arr.shape}/{buf_arr.dtype}"
                )
            np.copyto(buf_arr[: arr.shape[0]], arr, casting="no")
        slot.meta[0] = pid
        slot.meta[1] = start
        slot.meta[2] = size
        # publish: data writes above precede this store (SPSC contract)
        self._head[0] = int(self._head[0]) + 1

    def has_free_slot(self) -> bool:
        if self._fence is None:
            return int(self._head[0]) - int(self._tail[0]) < self.slots
        with self._fence:  # pairs with the consumer's fenced release()
            return int(self._head[0]) - int(self._tail[0]) < self.slots

    def try_send(self, pid: int, start: int, size: int,
                 payload: Sequence[np.ndarray]) -> bool:
        """Non-blocking send; ``False`` when the ring is full."""
        if not self.has_free_slot():
            return False
        self._write(pid, start, size, payload)
        return True

    def send(self, pid: int, start: int, size: int,
             payload: Sequence[np.ndarray], timeout: float, abort=None) -> None:
        """Blocking send with a stall deadline."""
        if not self.has_free_slot():
            self._wait(
                self.has_free_slot, self.space_bell, timeout, "a free slot",
                abort,
            )
        self._write(pid, start, size, payload)

    # -- consumer side ------------------------------------------------------

    def poll(self) -> bool:
        """Whether an unread packet is available."""
        if self._fence is None:
            return int(self._head[0]) > self._next
        with self._fence:  # pairs with the producer's fenced publish
            return int(self._head[0]) > self._next

    def try_recv(self):
        """``(pid, start, size, views)`` or ``None``; views are zero-copy."""
        if not self.poll():
            return None
        slot = self._slot_views[self._next % self.slots]
        pid, start, size = (int(v) for v in slot.meta)
        views = [a[:size] for a in slot.arrays]
        self._next += 1
        return pid, start, size, views

    def recv(self, timeout: float, what: str = "a packet", abort=None):
        """Blocking :meth:`try_recv` with a stall deadline."""
        if not self.poll():
            self._wait(self.poll, self.data_bell, timeout, what, abort)
        return self.try_recv()

    def release(self) -> None:
        """Free the oldest received slot (strict FIFO, one per recv)."""
        tail = int(self._tail[0])
        if tail >= self._next:
            raise TransportError(
                f"ring {self.label!r}: release without an outstanding recv"
            )
        if self._fence is None:
            self._tail[0] = tail + 1
        else:
            # fences the consumer's payload reads ahead of the free
            with self._fence:
                self._tail[0] = tail + 1
        if self.space_bell is not None:
            self.space_bell.ring()  # publish -> ring

    @property
    def outstanding(self) -> int:
        """Received-but-unreleased slots held by the consumer."""
        return self._next - int(self._tail[0])

    @property
    def total_bytes(self) -> int:
        """Size of the backing shared-memory block."""
        return int(self._shm.size)

    # -- teardown -----------------------------------------------------------

    def close(self) -> None:
        self._slot_views = []
        self._head = self._tail = None
        try:
            self._shm.close()
        except Exception:  # pragma: no cover - idempotent teardown
            pass
        for bell in (self.data_bell, self.space_bell):
            if bell is not None:
                bell.close()

    def unlink(self) -> None:
        if self._owner:
            try:
                self._shm.unlink()
            except Exception:  # pragma: no cover - idempotent teardown
                pass


def ring_slots_for(delay: int, slack: int = 2) -> int:
    """Slots for a ring into a stage with pipeline delay ``D_s``.

    ``D_s + 1`` is the PipeDream in-flight cap (the paper's eq.-5
    staleness ceiling); forward slots back deferred release of every
    in-flight packet, and the identical backward sizing guarantees
    backward sends can never block (see module docstring).
    """
    return delay + 1 + max(0, int(slack))


def group_slots(stages, group, slack: int = 2) -> int:
    """Slots for each channel into a worker hosting the contiguous
    stages ``group``, on either host: :func:`ring_slots_for` its first
    stage, ``D_a + 1 + slack``, which covers every packet the group
    holds a boundary slot for (:mod:`repro.pipeline.worker`, "The
    loop")."""
    return ring_slots_for(stages[group[0]].delay, slack)


def _create_rings(specs: Iterable[tuple]) -> list[ShmRing]:
    """Create one ring per ``(label, arrays, slots)`` spec, all or
    nothing: a failure midway (e.g. ``/dev/shm`` exhaustion) closes and
    unlinks the rings already created, then re-raises."""
    created: list[ShmRing] = []
    try:
        for label, arrays, slots in specs:
            created.append(ShmRing.create(label, arrays, slots))
    except BaseException:
        for ring in created:
            ring.close()
            ring.unlink()
        raise
    return created


def _boundary_layouts(stages, x_packet: np.ndarray, layouts) -> list:
    """``layouts`` as given (checked against ``stages``), else probed."""
    if layouts is None:
        return probe_boundary_layouts(stages, x_packet)
    if len(layouts) != len(stages):
        raise TransportError(
            f"got {len(layouts)} boundary layouts for {len(stages)} stages"
        )
    return layouts


def build_pipeline_rings(
    stages, x_packet: np.ndarray, slack: int = 2, layouts=None, groups=None
) -> tuple[list[ShmRing], list[ShmRing]]:
    """Create every ring of a linear pipeline training run.

    Returns ``(fwd_rings, bwd_rings)``, one pair per boundary between
    two workers: ``fwd_rings[w]`` flows from worker ``w`` into worker
    ``w+1`` and ``bwd_rings[w]`` back.  ``groups`` lists each worker's
    contiguous stage indices (default: one stage each); both rings into
    a worker get its :func:`group_slots`.  No ring flows into stage 0: it
    reads its packets from the batch itself.

    ``layouts`` accepts a precomputed :func:`probe_boundary_layouts`
    result; boundary layouts depend only on the architecture and the
    packet shape/dtype — never on the weights — so callers that rebuild
    rings repeatedly (per-segment checkpointed drives, crash-recovery
    relaunches) can probe once and skip the dummy forward pass after.
    """
    layouts = _boundary_layouts(stages, x_packet, layouts)
    if groups is None:
        groups = [(s,) for s in range(len(stages))]
    created = _create_rings(
        spec
        for left, right in zip(groups, groups[1:])
        for b, a in ((left[-1], right[0]),)
        for spec in (
            (
                f"fwd[{b}->{a}]",
                layouts[a],
                group_slots(stages, right, slack),
            ),
            (
                f"bwd[{a}->{b}]",
                layouts[a],
                group_slots(stages, left, slack),
            ),
        )
    )
    return created[0::2], created[1::2]


def build_inference_rings(
    stages, x_packet: np.ndarray, slots: int = 4, layouts=None, lanes: int = 1
) -> list[tuple[ShmRing, ShmRing]]:
    """Create the rings of a forward-only serving run: an ``(in, out)``
    pair per lane.

    A lane is one worker that runs every compute stage in order
    (:mod:`repro.pipeline.inference`, "Lanes"), so packets cross a ring
    only on the way in — the input layout — and on the way out — the
    final compute stage's output, the logits, which the *parent* reads
    straight out of shared memory.  Inference needs **no backward
    slots**: gradients never flow and nothing re-reads a forward input,
    so every slot is released as soon as its packet has been transformed
    and forwarded.  Because the eq.-5 in-flight cap is a
    training-staleness concept, the rings use a flat ``slots`` capacity
    instead of ``D_s + 1 + slack``: the parent always drains every out
    ring, so a full ring is plain backpressure (the lane blocks or the
    parent's ``try_send`` returns ``False``), never deadlock.

    ``layouts`` accepts a precomputed :func:`probe_boundary_layouts`
    result, exactly as in :func:`build_pipeline_rings`.
    """
    if slots < 1:
        raise TransportError(f"inference rings need >= 1 slot, got {slots}")
    layouts = _boundary_layouts(stages, x_packet, layouts)
    created = _create_rings(
        spec
        for w in range(lanes)
        for spec in (
            (f"infer[inject->lane{w}]", layouts[0], slots),
            (f"infer[lane{w}->out]", layouts[-1], slots),
        )
    )
    return list(zip(created[0::2], created[1::2]))


def build_reduce_rings(
    stages, replicas: int, slots: int = 2
) -> tuple[list[list[ShmRing]], list[list[ShmRing]]]:
    """Create the fixed-slot cross-replica reduce plane, one per stage.

    For each stage ``s`` of an ``R``-replica pipeline the reduction is a
    rank chain in stream order (rank 0 holds the earliest stream block):

    * ``chain[s][r]`` carries the running left-fold prefix from rank
      ``r`` to rank ``r + 1`` (``r`` in ``0..R-2``);
    * ``result[s][r]`` carries the finished fold from rank ``r + 1``
      back to rank ``r``.

    Each ring's payload is the stage's parameter-gradient arrays (empty
    for paramless stages — loss/identity ranks still chain to propagate
    the global sample count, which rides in the packet metadata).
    Rounds are strictly serialized by the blocking round trip, so a
    small flat ``slots`` suffices.
    """
    if replicas < 2:
        raise TransportError(f"reduce rings need >= 2 replicas, got {replicas}")
    if slots < 1:
        raise TransportError(f"reduce rings need >= 1 slot, got {slots}")
    grads = [
        tuple(ArraySpec(p.data.shape, str(p.data.dtype)) for p in st.params)
        for st in stages
    ]
    hops = replicas - 1
    created = _create_rings(
        spec
        for s in range(len(stages))
        for r in range(hops)
        for spec in (
            (f"reduce[{s}][{r}->{r + 1}]", grads[s], slots),
            (f"result[{s}][{r + 1}->{r}]", grads[s], slots),
        )
    )
    per_stage = [
        created[2 * hops * s : 2 * hops * (s + 1)] for s in range(len(stages))
    ]
    return [b[0::2] for b in per_stage], [b[1::2] for b in per_stage]
