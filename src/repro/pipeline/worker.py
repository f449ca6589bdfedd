"""One pipeline stage loop, hosted as a thread or as a process.

The paper's argument is that fine-grained pipelined backpropagation
makes every stage run the *same* tiny loop forever: take one activation,
take one gradient, update, pass both on.  PipeDream's worker model
(Harlap et al. 2018: backward priority plus an in-flight cap) and
torchgpipe's forward-only reuse of it (Kim et al. 2020) are that loop
again.  This module is the one place the loop is written outside the
discrete-time simulator: :class:`StageWorker` is the loop,
:class:`WorkerGroup` hosts one worker per stage (forward-only: per group
of adjacent stages) and owns launch, health, replies and teardown.
:mod:`repro.pipeline.runtime` (training) and
:mod:`repro.pipeline.inference` (serving) are the parent-side drivers.

The transformations mirror the simulator's op bodies
(``PipelineExecutor._run``): loss-stage seeding, ``update_after_backward``
and the op/sample accounting must stay in sync with it.  The bit-exact
parity goldens (``tests/test_runtime_parity.py``,
``tests/test_process_runtime.py``) pin that equivalence — any unsynced
change to either side fails them at hex level.

The loop
--------

A worker owns one :class:`~repro.pipeline.stage.PipelineStage` and runs
one loop over it: its stage's column of the schedule's compiled plan
(:meth:`Plan.column <repro.pipeline.schedule.Plan.column>`, shipped once
in the worker's spec), walked in **segments**.  ``FWD`` and ``BWD`` ops
make up a segment; a ``FLUSH`` ends it and is the only barrier, so a
stage applies a batch's flush after its own last backward of that batch
and before it forwards the next one.  Inside a segment the loop is
PipeDream's: **backward priority** (the drain rule, and the
deadlock-freedom argument: the oldest in-flight packet can always
progress) → a forward only while fewer than ``D_s + 1 = 2(S-1-s) + 1``
packets sit between their forward and backward here → idle wait — each
op kind up to its count in the segment, which is also what the idle
wait's predicate asks about (a next-batch packet already waiting in a
channel is not work yet).  ``SET_LR`` is not a
barrier: every ``FWD`` / ``BWD`` / ``FLUSH`` runs under the learning
rate of the last ``SET_LR`` before it in the column, and the stage keeps
the column's last one.

The two clocks differ only in how strictly a worker follows the column:

* **lockstep** makes every op its own segment, so the column order is
  exact.  Numerics depend only on each stage's op order (no two stages
  share mutable state) and channels are FIFO, so the run is bit-exact
  with the simulator, which interprets the same plan.

  No barrier is needed.  A channel ``s+1`` slot is held only while its
  packet is in flight at stage ``s`` (stage ``s+1`` releases it at its
  backward, before stage ``s``'s), the plan keeps that count at ``<= D_s
  + 1`` (eq. 5), and channel ``s+1`` has ``D_{s+1} + 1 + RING_SLACK =
  D_s + 1`` slots, so a forward send never waits on anything that waits
  on it; backward sends never block.
* **free-running** runs a segment's ops as they become possible.  The
  cap is PipeDream's in-flight bound; it also turns the paper's eq. 5
  into a guaranteed staleness ceiling: the forward of sample ``i`` at
  stage ``s`` sees at least ``max(0, i - 2(S-1-s))`` updates applied.
  The synchronous schedules stay exact, since a flush still lands
  between the same two batches at every stage.

Stage 0 of a training run has no inbound channel.  The batch rides in
its spec, as the loss stage's labels do: ``inputs`` holds the plan's
packets in order, and each ``FWD`` takes the next one.  Stage 0 also
adds every sample its backwards complete to the group's completion
count, a shared number next to the abort flag, which is all the parent
watches for stall detection.

When its column ends a training worker sends its one reply and returns.
``forward_only`` (serving) has an empty column and one open-ended
forward segment that ends at finalize: no loss slot (the parent
consumes the last channel), ``stage.forward(..., train=False)`` under
``no_grad`` (no autodiff graph), eager slot release, no cap.

A forward-only worker may also host several adjacent stages, its
*members* (:class:`WorkerGroup`'s ``groups``; a serving stream cuts
them by measured cost, one group per CPU).  Inference has no staleness,
so grouping cannot change an output bit: the worker runs each member's
own ``forward`` in order on the packet, each member fills its own
:class:`~repro.pipeline.executor.StageCounters`, an error names the
member that raised, and channels exist only between groups — the
payload between two members, skip arrays included, never leaves the
worker.  Training workers host exactly one stage: the eq.-5 delays
``D_s`` are per stage.

Channels
--------

Packets ``(pid, start, size, payload)`` move over channels with the
:class:`~repro.pipeline.transport.ShmRing` surface — ``send`` /
``try_send`` / ``recv`` / ``try_recv`` / ``poll`` / ``release`` and the
waits ``wait_readable`` / ``wait_writable`` / ``idle_wait`` — by duck
typing.  A process host uses the shared-memory rings themselves
(zero-copy views, no pickling on the hot path); a thread host uses
:class:`LocalChannel`, a bounded deque passing references.  Nobody
polls on either: how to block is the channel's business.  A
:class:`LocalChannel`'s condition variable is the *consumer's* wake-up —
every inbound source of a thread-hosted worker (forward channel,
backward channel, control endpoint, abort flag) notifies the same
condition; a ring's doorbells (``transport.py``, "Doorbells") are pipe
bytes its peer writes, and an idle process-hosted worker blocks in one
``select`` over its inbound rings' bells, its control pipe and the abort
flag's bell.  Both hosts size channel ``s`` at ``D_s + 1 + RING_SLACK``
slots (a flat count for serving), which guarantees backward sends never
block.

Slot lifetime follows the autodiff engine's lazy reads (see
``transport.py``): a compute stage's forward slot is released only when
that packet's backward has run (FIFO, checked); every other slot is
released as soon as its packet has been transformed and its output
copied downstream — *after* the copy, because identity/sum stages pass
views of the inbound slot through.

Control messages
----------------

Only control crosses the control endpoint (an OS pipe per worker for
processes, an in-process :class:`LocalConn` pair for threads), and a
worker sends exactly one message on it: ``("state", payload)`` — or
``("err", stage, text, exc)`` for any failure (``exc`` is the exception
object itself on an in-process endpoint, ``None`` across a pipe).

A training worker needs nothing from the parent.  Flushes (with a
:class:`_ReduceSpec`, cross-replica reduce rounds) and LR changes are
column ops, so the worker replies when its column ends, and the parent
of a training run sends nothing at all.  It never writes ``stage.lr``
itself while workers run: a thread-hosted worker shares the stage
object.

A forward-only worker's last segment is open-ended, so a stream sends
each worker one message, ``("finalize",)``, and the reply answers it.  A
forward-only worker that observes the abort flag polls its control
endpoint once more and honours a ``finalize`` found there: a stream's
``close()`` sends ``finalize`` *before* setting abort (abort is what
unblocks a worker stuck in a ring send), so anything sent-before is
visible by then.

What a host decides
-------------------

Thread versus process changes only: the channel type, the control
endpoint, whether stage state is shipped (processes inherit the stage
under ``fork``, rebuild it under any other start method from
``stage.build_spec()`` plus ``stage.state_dict()``, and ship the
trained ``state_dict()`` back in their reply; threads operate on
the parent's own stage objects, so methods shadowed on those instances
are the ones executed — a forked worker inherits the shadows with the
stage, a rebuilt one does not; the stress tests' seeded-sleep helper
in ``tests/conftest.py`` and the benchmark's tracer rely on exactly
this), what an idle worker blocks on (the channel's condition variable
versus its doorbells — the channel's choice, ``idle_wait``) — and what
the worker runs *on*: a process host starts a
process per launch (``fork`` hands each launch the parent's current
state for free), a thread host does **not** start a thread per launch.

Worker slot ``w`` of a thread-hosted group — ``pipeline-stage-w`` for
training (where ``w`` is the stage), ``infer-stage-w`` for serving (the
``w``-th group) — is leased an idle **host
thread** for that slot name (:class:`_HostThread`; a new one only when
every host of that name is busy) and gives it back when
:func:`_worker_main` returns.  The reason is glibc's per-thread malloc
arenas.  A new thread is handed whichever arena an exited thread left on
the free list, so with a thread per ``train()`` call every arena hosts
the widest stage sooner or later, grows to that stage's high-water mark
and keeps it: after four benchmark passes of thread-hosted training on
``pb_cnn_b1`` ``malloc_info`` showed six secondary arenas of 9.1–10.4 MB
each, every byte of them free, own-process RSS 103 -> 142 -> 155 -> 160
MiB and still creeping (flat under ``MALLOC_ARENA_MAX=1``) — and the
process server forks from that heap.  A host thread keeps its arena, so
an arena only ever holds one slot's working set (RSS is flat after the
first pass), and a launch is a condition-variable notify instead of
``clone`` + join.  The rules:

* *Lifetime is the worker's, not the thread's.*  The worker still begins
  at launch and ends at its reply / abort; :class:`_HostedWorker` gives
  :class:`WorkerGroup` the ``start`` / ``join`` / ``is_alive`` / ``ident``
  / ``name`` it used of ``threading.Thread``, and ``teardown`` still waits
  for the worker with the stall deadline.
* *Names.*  From lease until the worker ends the OS thread carries the
  worker's name; idle it is ``idle-<slot>``.  "No ``pipeline-stage-*`` /
  ``infer-stage-*`` thread after ``train()`` / ``close()`` / a failure"
  keeps its literal meaning.
* *Idle hosts* are daemon threads parked on a condition with no timeout
  (zero wake-ups) and are never torn down; there are as many per slot
  name as thread-hosted workers of that name were ever alive at once (a
  fleet's two replicas lease two).
* *A stuck worker* (``teardown``'s "a thread cannot be killed" branch)
  keeps its host: a host is in the idle pool only while it is idle.
* *Nothing of the previous tenant.*  A new thread got its creator's CPU
  affinity and fresh thread-locals; a host takes the launcher's affinity
  at every lease, :func:`_worker_main` begins with ``enable_grad()`` and
  ends by emptying the thread's ``ops_conv`` scratch buffers (back into
  *that* arena, which is the point).
* *Fork.*  A child has none of its parent's threads:
  ``os.register_at_fork`` empties the pool (and replaces its lock) there,
  so a child that starts a thread-hosted group leases fresh hosts.
"""

from __future__ import annotations

import ctypes
import multiprocessing as mp
import os
import resource
import sys
import threading
import time
import traceback
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Sequence

import numpy as np

from repro.pipeline.executor import StageCounters, softmax_xent_grad_batch
from repro.pipeline.schedule import BWD, FLUSH, SET_LR
from repro.pipeline.stage import PipelineStage
from repro.pipeline.transport import (
    Doorbell,
    ShmRing,
    TransportAborted,
    TransportError,
    TransportStall,
    build_inference_rings,
    build_pipeline_rings,
    probe_boundary_layouts,
    ring_slots_for,
)
from repro.tensor.ops_conv import _scratch
from repro.tensor.tensor import enable_grad, no_grad

#: Extra channel slots beyond the per-stage in-flight cap ``D_s + 1``
#: (see :func:`repro.pipeline.transport.ring_slots_for`).
RING_SLACK = 2


class PipelineRuntimeError(RuntimeError):
    """A stage worker died; carries the stage index and original error."""

    def __init__(self, stage_index: int, cause: BaseException):
        super().__init__(
            f"pipeline stage {stage_index} worker failed: {cause!r}"
        )
        self.stage_index = stage_index
        self.cause = cause


def resolve_start_method(start_method: str | None, model_factory) -> str:
    """Pick and validate the multiprocessing start method.

    ``fork`` only where it is actually safe: forking a NumPy/BLAS parent
    on macOS (Accelerate) can deadlock in the child, so anywhere but
    Linux the spawn + ``model_factory`` path is the default (matching
    CPython's own default flip on darwin).
    """
    available = mp.get_all_start_methods()
    if start_method is None:
        start_method = (
            "fork"
            if sys.platform.startswith("linux") and "fork" in available
            else "spawn"
        )
    if start_method not in available:
        raise ValueError(
            f"start_method {start_method!r} not available on this "
            f"platform (have {available})"
        )
    if start_method != "fork" and model_factory is None:
        raise ValueError(
            f"start_method {start_method!r} cannot inherit stage "
            "objects; pass a spawn-safe model_factory so workers can "
            "rebuild their stage (see StageBuildSpec)"
        )
    return start_method


# ---------------------------------------------------------------------------
# in-process channel, control endpoint and abort flag (thread host)
# ---------------------------------------------------------------------------


class LocalChannel:
    """In-process SPSC packet channel with the :class:`ShmRing` surface.

    A bounded deque passing payload references; a slot counts as
    occupied from ``send`` until the consumer's ``release``, exactly like
    a ring slot.  ``cond`` is the consumer's wake-up condition (shared
    with its other inbound sources); a producer blocked in ``send`` waits
    on it too and is woken by ``release``.
    """

    def __init__(self, cond: threading.Condition, slots: int, label: str):
        self.cond = cond
        self.slots = slots
        self.label = label
        self._items: deque = deque()
        self._held = 0  # received, not yet released

    def poll(self) -> bool:
        return bool(self._items)

    def _has_free_slot(self) -> bool:
        return len(self._items) + self._held < self.slots

    def try_send(self, pid, start, size, payload) -> bool:
        with self.cond:
            if not self._has_free_slot():
                return False
            self._items.append((pid, start, size, payload))
            self.cond.notify_all()
        return True

    def try_recv(self):
        with self.cond:
            if not self._items:
                return None
            self._held += 1
            return self._items.popleft()

    def _wait(self, ready, timeout: float, what: str, abort) -> None:
        if not self.cond.wait_for(lambda: ready() or abort.is_set(), timeout):
            raise TransportStall(
                f"channel {self.label!r}: stalled waiting for {what} "
                f"({timeout:.1f}s) — likely a dead or deadlocked peer"
            )
        if not ready():
            raise TransportAborted(
                f"channel {self.label!r}: aborted while waiting for {what}"
            )

    def send(self, pid, start, size, payload, timeout: float, abort) -> None:
        with self.cond:
            if not self._has_free_slot():
                self._wait(self._has_free_slot, timeout, "a free slot", abort)
            self._items.append((pid, start, size, payload))
            self.cond.notify_all()

    def recv(self, timeout: float, what: str, abort):
        with self.cond:
            if not self._items:
                self._wait(self.poll, timeout, what, abort)
            self._held += 1
            return self._items.popleft()

    def release(self) -> None:
        with self.cond:
            if self._held == 0:
                raise TransportError(
                    f"channel {self.label!r}: release without an "
                    "outstanding recv"
                )
            self._held -= 1
            self.cond.notify_all()

    def wait_readable(self, timeout: float, abort) -> bool:
        with self.cond:
            self.cond.wait_for(lambda: self._items or abort.is_set(), timeout)
            return bool(self._items)

    def wait_writable(self, timeout: float, abort) -> bool:
        with self.cond:
            self.cond.wait_for(
                lambda: self._has_free_slot() or abort.is_set(), timeout
            )
            return self._has_free_slot()

    def idle_wait(self, conn, abort, other=None):
        """The consumer's idle wait, ``wait(ready)``: every inbound
        source of the consumer notifies ``cond``, so the arguments (the
        :meth:`ShmRing.idle_wait` surface) need no wiring here.  The
        timeout is a safety net, not a poll interval."""
        cond = self.cond

        def wait(ready) -> None:
            with cond:
                cond.wait_for(ready, 0.5)

        return wait

    def close(self) -> None:
        """ShmRing teardown surface; nothing to unmap in-process."""
        self._items.clear()

    unlink = close


class LocalConn:
    """One end of an in-process control pipe: the ``poll``/``recv``/
    ``send``/``close`` subset of ``multiprocessing.connection.Connection``
    the worker protocol uses.  Messages pass by reference; ``cond`` is
    the receiving side's wake-up condition."""

    def __init__(self, cond: threading.Condition):
        self.cond = cond
        self.peer: LocalConn | None = None
        self._inbox: deque = deque()

    def send(self, msg) -> None:
        peer = self.peer
        with peer.cond:
            peer._inbox.append(msg)
            peer.cond.notify_all()

    def poll(self, timeout: float = 0.0) -> bool:
        if self._inbox or not timeout:
            return bool(self._inbox)
        with self.cond:
            return self.cond.wait_for(lambda: bool(self._inbox), timeout)

    def recv(self):
        return self._inbox.popleft()

    def close(self) -> None:
        pass


def _local_pipe(parent_cond, child_cond) -> tuple[LocalConn, LocalConn]:
    parent, child = LocalConn(parent_cond), LocalConn(child_cond)
    parent.peer, child.peer = child, parent
    return parent, child


class _LocalAbort(threading.Event):
    """Abort flag of a thread-hosted group: setting it also wakes every
    waiter, since they block on condition variables instead of polling.
    It also carries the group's completion count (:class:`_SharedAbort`)."""

    def __init__(self, conds: Sequence[threading.Condition]):
        super().__init__()
        self._conds = conds
        self.completed = ctypes.c_int64()

    def set(self) -> None:
        super().set()
        for cond in self._conds:
            with cond:
                cond.notify_all()

    def close(self) -> None:
        """:class:`_SharedAbort` teardown surface; nothing to free."""


class _SharedAbort:
    """Abort flag of a process-hosted group: one lock-free shared byte
    plus a doorbell that, once rung, is never drained — so every
    ``select`` that includes the flag (it has a ``fileno``) returns at
    once, however many waiters there are.

    Not a ``multiprocessing.Event``: that guards its flag with a
    semaphore, workers check the flag constantly, and a worker SIGKILLed
    inside ``is_set()`` would leave the semaphore held — hanging every
    sibling and the parent's crash recovery on their next check.

    ``completed`` is the group's completion count, a lock-free shared
    int64 with one writer: the samples whose backward stage 0 has run."""

    def __init__(self, ctx):
        self._flag = ctx.RawValue("b", 0)
        self.completed = ctx.RawValue("q", 0)
        self._bell = Doorbell()

    def set(self) -> None:
        self._flag.value = 1
        self._bell.ring()

    def is_set(self) -> bool:
        return bool(self._flag.value)

    def fileno(self) -> int:
        return self._bell.fileno()

    def close(self) -> None:
        self._bell.close()


# ---------------------------------------------------------------------------
# host threads (thread host)
# ---------------------------------------------------------------------------

#: idle host threads by slot name (``pipeline-stage-3``, ``infer-stage-0``)
_idle_hosts: dict[str, list["_HostThread"]] = {}
_hosts_lock = threading.Lock()


def _forget_hosts() -> None:
    """A forked child has none of its parent's threads (and may have
    inherited the lock held): start it with an empty pool."""
    global _hosts_lock
    _idle_hosts.clear()
    _hosts_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_hosts)


class _HostThread:
    """A long-lived daemon thread that runs the thread-hosted workers of
    one slot name, one at a time ("What a host decides" says why).  Idle
    it is parked on ``_wake`` with no timeout under the name
    ``idle-<slot>``; it is in ``_idle_hosts`` exactly while it is idle."""

    def __init__(self, slot: str):
        self.slot = slot
        self._wake = threading.Condition(threading.Lock())
        self._worker: _HostedWorker | None = None
        self.thread = threading.Thread(
            target=self._serve, name=f"idle-{slot}", daemon=True
        )
        self.thread.start()

    @classmethod
    def lease(cls, slot: str) -> "_HostThread":
        with _hosts_lock:
            idle = _idle_hosts.get(slot)
            if idle:
                return idle.pop()
        return cls(slot)

    def run(self, worker: "_HostedWorker") -> None:
        self.thread.name = worker.name
        with self._wake:
            self._worker = worker
            self._wake.notify()

    def _serve(self) -> None:
        while True:
            with self._wake:
                while self._worker is None:
                    self._wake.wait()
                worker, self._worker = self._worker, None
            # what ``clone`` would have given a thread started now
            if worker.cpus is not None:
                os.sched_setaffinity(0, worker.cpus)
            worker.target(*worker.args)  # _worker_main: never raises
            # idle again *before* anyone joining the worker is released:
            # "no thread carries a worker's name after teardown"
            self.thread.name = f"idle-{self.slot}"
            with _hosts_lock:
                _idle_hosts.setdefault(self.slot, []).append(self)
            worker.done.set()
            del worker  # an idle host pins no run's stages or labels


class _HostedWorker:
    """One worker's lease of a host thread, with the ``threading.Thread``
    surface :class:`WorkerGroup` uses.  The worker lives from
    :meth:`start` until its target returns — the thread under it does
    not end, so a stuck worker keeps its host and nobody else gets it."""

    def __init__(self, target, args, name: str):
        self.target = target
        self.args = args
        self.name = name
        self.ident: int | None = None
        self.cpus = None
        self.done = threading.Event()

    def start(self) -> None:
        if hasattr(os, "sched_getaffinity"):
            self.cpus = os.sched_getaffinity(0)
        host = _HostThread.lease(self.name)
        self.ident = host.thread.ident
        host.run(self)

    def join(self, timeout: float | None = None) -> None:
        self.done.wait(timeout)

    def is_alive(self) -> bool:
        return self.ident is not None and not self.done.is_set()


# ---------------------------------------------------------------------------
# the worker
# ---------------------------------------------------------------------------


@dataclass
class _ReduceSpec:
    """One stage worker's slice of the cross-replica reduce plane.

    The reduce topology is a chain over replica ranks (see
    :func:`~repro.pipeline.transport.build_reduce_rings`): partial
    gradient sums travel rank ``0 -> 1 -> ... -> R-1`` over the
    ``chain`` rings, and the finished global sum travels back
    ``R-1 -> ... -> 0`` over the ``result`` rings.  The chain order is
    load-bearing for bit-exactness: folding rank ``r``'s per-packet
    gradients on top of ranks ``0..r-1``'s partial sum reproduces the
    *stream-order left fold* a single pipeline at update size ``R*U``
    performs, addition by addition.
    """

    rank: int
    world: int
    chain_in: ShmRing | None  # from rank-1 (None at rank 0)
    chain_out: ShmRing | None  # to rank+1 (None at the last rank)
    result_in: ShmRing | None  # from rank+1 (None at the last rank)
    result_out: ShmRing | None  # to rank-1 (None at rank 0)


@dataclass
class _WorkerSpec:
    """Everything one stage worker needs, picklable under ``spawn``."""

    members: tuple  # the stage indices it runs (several: forward-only)
    conn: Any  # Connection | LocalConn
    fwd_in: Any  # ShmRing | LocalChannel; None for stage 0 of a training run
    fwd_out: Any  # None for the loss stage
    bwd_in: Any  # None for the loss stage and in forward-only mode
    bwd_out: Any  # None for stage 0 and in forward-only mode
    abort: Any  # _SharedAbort | _LocalAbort
    plan: list  # this stage's Plan.column (empty for forward-only)
    lockstep: bool  # every op of the column its own segment
    forward_only: bool
    update_after_backward: bool
    stall_timeout: float
    stages: list | None  # threads and fork: the member objects themselves
    build_specs: list | None = None  # a rebuild recipe per member ...
    stage_states: list | None = None  # ... and the weights to load into it
    inputs: list | None = None  # stage 0 of a training run: its packets
    labels: np.ndarray | None = None  # loss stage only
    reduce: _ReduceSpec | None = None  # replicated runs only


class StageWorker:
    """One stage's event loop (see the module docstring); forward-only,
    the loop of a group of adjacent stages."""

    def __init__(self, spec: _WorkerSpec, stages: Sequence[PipelineStage]):
        self.spec = spec
        stage = self.stage = stages[0]
        self.s = spec.members[0]
        #: each member stage with its own counters; the first member's
        #: are also the worker's (waits, wake-ups, placement)
        self.members = [
            (st, StageCounters(index=s)) for s, st in zip(spec.members, stages)
        ]
        self.counters = self.members[0][1]
        #: the member whose op runs now: an error names this stage
        self.active = self.s
        self.is_loss = stage.spec.kind == "loss"
        self.losses = np.zeros(len(spec.labels)) if self.is_loss else None
        #: a process host's training worker returns its trained state
        self.ship_state = not (
            spec.forward_only or isinstance(spec.conn, LocalConn)
        )
        #: the next forward packet: from the channel or, at stage 0 of a
        #: training run, the next of its own packets
        self._next_fwd = (
            deque(spec.inputs or ()).popleft if spec.fwd_in is None
            else spec.fwd_in.try_recv
        )
        #: compute stages re-read forward inputs lazily at backward time,
        #: so their inbound forward slot outlives the forward op
        self.defer_fwd_release = (
            stage.spec.kind == "compute" and not spec.forward_only
        )
        #: packets forwarded, not yet backwarded: backwards run FIFO
        self._pending_fwd: deque[int] = deque()
        #: perf_counter at this worker's first forward (its span's start)
        self._t0: float | None = None
        #: the loss stage's own backward packet, seeded by its forward
        self._seeded = None
        self.cap = stage.delay + 1  # PipeDream in-flight bound (eq. 5)
        self.in_flight = 0
        #: the running segment: the learning rate of each forward and of
        #: each backward it has left (module docstring, "The loop") ...
        self._fwd: deque[float] = deque()
        self._bwd: deque[float] = deque()
        #: ... and whether it is the last, open-ended one
        self._open = False
        inbound = [c for c in (spec.fwd_in, spec.bwd_in) if c is not None]
        #: (a loss-only pipeline has no channel, and never waits)
        self._idle_wait = inbound and inbound[0].idle_wait(
            spec.conn, spec.abort, *inbound[1:]
        )
        self._reduce_round = 0  # packet ids on the reduce rings
        if self.ship_state:
            # ship only THIS run's version trace back; the parent extends
            # its accumulated list.  A fork-inherited stage would
            # otherwise carry — and duplicate — prior runs' entries.
            stage.version_trace = []
        if spec.reduce is not None:
            # replicated sync runs fold per-packet gradient segments
            # across replicas instead of accumulating locally
            stage.collect_grad_segments = True
        if spec.forward_only:
            for st in stages:
                if st.spec.module is not None:
                    st.spec.module.eval()

    # -- waiting ----------------------------------------------------------

    # wait_seconds / wakeups accounting: everywhere the loop can block —
    # the idle wait, a packet that has not arrived yet, a send into a
    # full channel — goes through _blocked, so busy + wait is the
    # worker's lifetime less its own bookkeeping.

    def _blocked(self, block, *args):
        t0 = time.perf_counter()
        try:
            return block(*args)
        finally:
            self.counters.wait_seconds += time.perf_counter() - t0
            self.counters.wakeups += 1

    def _send(self, channel, pid, start, size, payload) -> None:
        spec = self.spec
        if not channel.try_send(pid, start, size, payload):
            self._blocked(
                channel.send, pid, start, size, payload, spec.stall_timeout,
                spec.abort,
            )

    def _recv(self, channel, what: str):
        pkt = channel.try_recv()
        if pkt is None:
            spec = self.spec
            pkt = self._blocked(
                channel.recv, spec.stall_timeout, what, spec.abort
            )
        return pkt

    # -- packet transformations -------------------------------------------

    # busy_seconds accounting: only the transformations themselves are
    # timed — blocking sends (downstream backpressure) fall outside the
    # window, so busy fractions stay comparable across hosts.

    def _forward(self, pkt) -> None:
        """Transform one inbound forward packet (through every member
        stage in order: the payload between two members is a local)."""
        pid, start, size, payload = pkt
        spec = self.spec
        if self._t0 is None:
            self._t0 = time.perf_counter()
        if self.is_loss:
            t0 = time.perf_counter()
            lvec, out = softmax_xent_grad_batch(
                payload[0], spec.labels[start : start + size]
            )
            self.losses[start : start + size] = lvec
            self.counters.forward_ops += 1
            self.counters.forward_samples += size
            self.counters.busy_seconds += time.perf_counter() - t0
            # seeds this packet's backward, run next (the plan's BWD in
            # the same tick); the gradient is a fresh array
            self._seeded = (pid, start, size, [out])
            if spec.fwd_in is not None:
                spec.fwd_in.release()
            return
        out = payload
        for stage, counters in self.members:
            self.active = counters.index
            t0 = time.perf_counter()
            out = stage.forward(pid, out, train=not spec.forward_only)
            counters.forward_ops += 1
            counters.forward_samples += size
            counters.busy_seconds += time.perf_counter() - t0
        # copy downstream *before* releasing anything the output may
        # alias (identity/sum stages pass views of the inbound slot)
        self._send(spec.fwd_out, pid, start, size, out)
        if not spec.forward_only:
            self._pending_fwd.append(pid)
            self.in_flight += 1
        if spec.fwd_in is not None and not self.defer_fwd_release:
            spec.fwd_in.release()

    def _has_backward(self) -> bool:
        bwd_in = self.spec.bwd_in
        return self._seeded is not None or (
            bwd_in is not None and bwd_in.poll()
        )

    def _backward(self) -> None:
        """Transform the next backward packet — the loss stage's seeded
        one, or the next on the backward channel — and, at stage 0,
        count its samples completed."""
        spec = self.spec
        seeded = self._seeded is not None
        if seeded:
            pkt, self._seeded = self._seeded, None
        else:
            pkt = self._recv(spec.bwd_in, f"stage {self.s} bwd packet")
        pid, start, size, grads = pkt
        t0 = time.perf_counter()
        upstream = self.stage.backward(pid, grads)
        if spec.update_after_backward:
            self.stage.apply_update()
        self.counters.backward_ops += 1
        self.counters.backward_samples += size
        self.counters.busy_seconds += time.perf_counter() - t0
        if spec.bwd_out is not None:
            self._send(spec.bwd_out, pid, start, size, upstream)
        if not seeded:
            spec.bwd_in.release()  # gradients are consumed eagerly
            self.in_flight -= 1
            expect = self._pending_fwd.popleft()
            if expect != pid:
                raise RuntimeError(
                    f"stage {self.s}: backward for packet {pid} "
                    f"arrived before packet {expect}'s — FIFO violated"
                )
            if spec.fwd_in is not None and self.defer_fwd_release:
                spec.fwd_in.release()
        if self.s == 0:
            spec.abort.completed.value += size

    # -- control ----------------------------------------------------------

    def _reduce_flush(self, local_count: int) -> None:
        """One cross-replica reduce round ending in a synchronized update.

        Every replica's stage worker (same stage, ranks ``0..R-1``)
        enters this once per global batch — replicas whose shard holds no
        samples for the batch enter with ``local_count == 0`` and empty
        segments, keeping the chain aligned.  Rank ``r`` receives ranks
        ``0..r-1``'s partial sums, folds its own per-packet gradients on
        top *in stream order*, and forwards; the last rank's fold is the
        global sum, which travels back down the result chain.  Everyone
        then installs the identical sum and applies the identical mean
        update, so replicas stay bit-for-bit in sync — and equal to one
        pipeline running the whole ``R*U`` batch.
        """
        red = self.spec.reduce
        params = self.stage.params
        segments = self.stage.pop_grad_segments()
        if red.chain_in is not None:
            pkt = self._recv(
                red.chain_in, f"stage {self.s} reduce chain (rank {red.rank})"
            )
            # cumulative sample count rides in the ``start`` meta slot
            upstream_count = int(pkt[1])
            acc: list = list(pkt[3])  # zero-copy views into the ring slot
        else:
            upstream_count = 0
            acc = [None] * len(params)
        total = upstream_count + int(local_count)
        for k, seg in enumerate(segments):
            a = acc[k]
            for g in seg:
                # the left fold: same association order as the single
                # pipeline's per-packet gradient accumulation
                a = g if a is None else a + g
            acc[k] = a
        if params and any(a is None for a in acc):
            # only reachable when rank 0 flushes a batch it saw no
            # samples of — the block-cyclic shard gives rank 0 the
            # earliest samples of every batch, so this is a plan bug
            raise RuntimeError(
                f"stage {self.s} rank {red.rank}: reduce round "
                f"{self._reduce_round} has no gradient to contribute or "
                "forward"
            )
        pid = self._reduce_round
        self._reduce_round += 1
        if red.chain_out is not None:
            size = max((int(a.shape[0]) for a in acc), default=0)
            self._send(red.chain_out, pid, total, size, acc)
            if red.chain_in is not None:
                red.chain_in.release()  # the send copied the views out
            pkt = self._recv(
                red.result_in,
                f"stage {self.s} reduce result (rank {red.rank})",
            )
            total = int(pkt[1])
            result = [np.array(a, copy=True) for a in pkt[3]]
            if red.result_out is not None:
                self._send(red.result_out, pid, total, pkt[2], pkt[3])
            red.result_in.release()
        else:
            # last rank: its fold IS the global sum.  Copy before
            # releasing the inbound slot the views may alias.
            result = [np.array(a, copy=True) for a in acc]
            if red.chain_in is not None:
                red.chain_in.release()
            size = max((int(a.shape[0]) for a in result), default=0)
            self._send(red.result_out, pid, total, size, result)
        if params:
            self.stage.set_reduced_grads(result)
        self.stage.flush_update(total)

    def _flush(self, count: int) -> None:
        if self.spec.reduce is not None:
            self._reduce_flush(int(count))
        else:
            self.stage.flush_update(count)

    def _reply(self) -> None:
        """The worker's one message: this run's measurements and, from a
        process host's training worker, its trained state."""
        span = 0.0 if self._t0 is None else time.perf_counter() - self._t0
        ship = self.ship_state
        if not isinstance(self.spec.conn, LocalConn):
            # a process worker is its process: placement diagnostics
            usage = resource.getrusage(resource.RUSAGE_SELF)
            self.counters.voluntary_switches = usage.ru_nvcsw
            self.counters.involuntary_switches = usage.ru_nivcsw
            if hasattr(os, "sched_getaffinity"):
                self.counters.cpus = tuple(sorted(os.sched_getaffinity(0)))
        payload = {
            "counters": [counters for _, counters in self.members],
            "losses": self.losses,
            "span": span,
            "state": self.stage.state_dict() if ship else None,
            "version_trace": list(self.stage.version_trace) if ship else (),
        }
        self.spec.conn.send(("state", payload))

    # -- the loop -----------------------------------------------------------

    def run(self) -> None:
        """Walk the column in segments, then reply — forward-only, after
        the open-ended last segment, at finalize (module docstring, "The
        loop")."""
        spec = self.spec
        lr = self.stage.lr
        for kind, arg in spec.plan:
            if kind == SET_LR:
                lr = arg
            elif kind == FLUSH:
                self._run_segment()
                self.stage.lr = lr
                self._flush(arg)
            else:
                (self._bwd if kind == BWD else self._fwd).append(lr)
                if spec.lockstep:
                    self._run_segment()
        self._run_segment()
        self.stage.lr = lr
        if spec.forward_only:
            self._open = True
            self._run_segment()  # returns at finalize
        self._reply()

    def _may_backward(self) -> bool:
        return bool(self._bwd) and self._has_backward()

    def _may_forward(self) -> bool:
        spec = self.spec
        return (
            (bool(self._fwd) or spec.forward_only)
            and self.in_flight < self.cap
            and (spec.fwd_in is None or spec.fwd_in.poll())
        )

    def _has_work(self) -> bool:
        """The idle wait's predicate: anything the running segment may
        do, which a packet beyond its counts is not."""
        spec = self.spec
        return (
            spec.abort.is_set()
            or (self._open and spec.conn.poll())
            or self._may_backward()
            or self._may_forward()
        )

    def _run_segment(self) -> None:
        """Backward priority, then a forward under the in-flight cap,
        else idle wait — until the segment's counts are spent or, for the
        open one, finalize arrives."""
        spec = self.spec
        while self._fwd or self._bwd or self._open:
            if spec.abort.is_set() or (self._open and spec.conn.poll()):
                # a stream's close() sends finalize before it sets abort:
                # answer the finalize instead of dropping it
                if self._open and spec.conn.poll():
                    spec.conn.recv()  # finalize, a stream's one message
                    return
                raise TransportAborted(f"stage {self.s}: run aborted")
            if self._may_backward():
                self.stage.lr = self._bwd.popleft()
                self._backward()
            elif self._may_forward():
                if self._fwd:
                    self.stage.lr = self._fwd.popleft()
                self._forward(self._next_fwd())
            else:
                self._blocked(self._idle_wait, self._has_work)


def _worker_main(spec: _WorkerSpec) -> None:
    """The single entry point of a stage worker: thread target and
    process target alike (top-level for ``spawn``)."""
    # a fork inherits the forking thread's grad mode, a host thread
    # whatever its previous worker left
    enable_grad()
    worker = None
    try:
        stages = spec.stages
        if stages is None:
            stages = [build.build() for build in spec.build_specs]
            for stage, state in zip(stages, spec.stage_states):
                stage.load_state_dict(state)
        worker = StageWorker(spec, stages)
        # a forward-only worker builds no autodiff graph: nothing reads
        # one, and its nodes would keep each layer's temporaries (im2col
        # columns, ...) alive until the packet is sent on — a worker
        # running several conv stages then re-faults its malloc arena's
        # pages on every packet
        with no_grad() if spec.forward_only else nullcontext():
            worker.run()
    except TransportAborted:
        pass  # the parent is tearing the run down; exit quietly
    except BaseException as exc:
        # an exception object only crosses an in-process endpoint
        cause = exc if isinstance(spec.conn, LocalConn) else None
        try:
            spec.conn.send(
                (
                    "err",
                    spec.members[0] if worker is None else worker.active,
                    f"{exc!r}\n{traceback.format_exc()}",
                    cause,
                )
            )
        except OSError:  # pragma: no cover - parent already gone
            pass
        spec.abort.set()
    finally:
        # a host thread outlives this worker: leave it no model's buffers
        _scratch.clear()


# ---------------------------------------------------------------------------
# the group
# ---------------------------------------------------------------------------


def _build_rings(stages, probe, forward_only, slots, heads, layouts,
                 layout_cache):
    """The shared-memory rings of a process-hosted run, by the worker
    they flow into: ``(fwd, bwd)``, ``fwd[0]`` ``None`` for a training
    run (stage 0 reads its own packets) and ``bwd`` all ``None`` for a
    forward-only run, whose ring ``i`` flows into stage ``heads[i]``."""
    if layouts is None:
        # boundary layouts depend only on architecture + packet
        # shape/dtype, so relaunches (per-segment drives, crash
        # recovery) skip the dummy probe pass after the first
        key = (probe.shape, str(probe.dtype))
        layouts = layout_cache.get(key)
        if layouts is None:
            layouts = layout_cache[key] = probe_boundary_layouts(stages, probe)
    if forward_only:
        return (
            build_inference_rings(stages, probe, slots, layouts, heads),
            [None] * len(heads),
        )
    fwd, bwd = build_pipeline_rings(stages, probe, RING_SLACK, layouts)
    return [None] + fwd, bwd + [None]


class WorkerGroup:
    """Host one :class:`StageWorker` per stage — or, forward-only, per
    group of adjacent stages — as threads over the parent's own stage
    objects, or as processes over shared-memory rings, and own launch,
    message receipt with a deadline, error attribution, the dead-worker
    watchdog and teardown.

    The constructor launches; a failure midway tears down whatever was
    created.  ``stages`` is the whole pipeline; a ``forward_only`` group
    hosts every stage but the final loss slot and leaves the last channel
    for the parent to consume.  Its ``groups`` (default: one per compute
    stage) are the contiguous stage-index runs each worker forwards in
    order; channels exist only between groups, so the ``i``-th channel
    flows into worker ``i`` and the last into the loss slot.  Worker
    ``w``'s messages and errors are addressed by ``w``; the errors it
    raises name a stage.  ``probe`` is a max-width input packet (shape and
    dtype size the rings; ``layouts``, when given, are its
    :func:`~repro.pipeline.transport.probe_boundary_layouts`); ``slots``
    a flat per-channel capacity replacing the ``D_s + 1 + RING_SLACK``
    training sizing.  ``plan[s]`` is stage ``s``'s :meth:`Plan.column
    <repro.pipeline.schedule.Plan.column>`, run op by op when
    ``lockstep``.  A training run's ``batch`` is ``(inputs, labels)``:
    stage 0's packets ``(pid, start, size, [x])`` in plan order, which
    it reads instead of a channel, and the loss stage's labels.
    """

    def __init__(
        self,
        stages: Sequence[PipelineStage],
        probe: np.ndarray,
        *,
        processes: bool,
        name: str,
        stall_timeout: float,
        plan: Sequence[list] | None = None,
        lockstep: bool = False,
        forward_only: bool = False,
        slots: int | None = None,
        update_after_backward: Callable[[int], bool] = lambda s: False,
        batch: tuple[list, np.ndarray] | None = None,
        reduce_plan: Sequence[_ReduceSpec] | None = None,
        model_factory=None,
        start_method: str | None = None,
        groups: Sequence[Sequence[int]] | None = None,
        layouts: list | None = None,
        layout_cache: dict | None = None,
    ):
        self.stall_timeout = float(stall_timeout)
        self.workers: list = []  # _HostedWorker | Process
        #: the forward channel into each worker (training: none into
        #: stage 0) and, forward-only, the last one, into the parent
        self.channels: list = []
        self.rings: list = []  # every channel of the run
        self.abort = None
        self._conns: list = []
        self._rx_buf: list[deque] = []
        S = len(stages)
        if groups is None:
            groups = [(s,) for s in range(S - 1 if forward_only else S)]
        self.groups = [tuple(g) for g in groups]
        count = len(self.groups)
        #: the stage each forward channel flows into
        heads = [g[0] for g in self.groups] + ([S - 1] if forward_only else [])
        rebuild = False
        try:
            if processes:
                method = resolve_start_method(start_method, model_factory)
                # the start method alone decides: a forked worker inherits
                # its stage object, any other rebuilds it from
                # ``model_factory`` plus the shipped state
                rebuild = method != "fork"
                ctx = mp.get_context(method)
                self.abort = _SharedAbort(ctx)
                pipes = [ctx.Pipe(duplex=True) for _ in range(count)]
                host = partial(ctx.Process, daemon=True)
                fwd, bwd = _build_rings(
                    stages, probe, forward_only, slots, heads, layouts,
                    {} if layout_cache is None else layout_cache,
                )
            else:
                # a channel's condition is its consumer's wake-up
                wakes = [threading.Condition() for _ in heads]
                # the parent end of each control pipe has its own
                # condition: waiting on one worker's reply is not woken
                # by every other worker's
                mine = [threading.Condition() for _ in range(count)]

                def channel(kind: str, i: int) -> LocalChannel:
                    s = heads[i]
                    return LocalChannel(
                        wakes[i],
                        slots or ring_slots_for(stages[s].delay, RING_SLACK),
                        f"{kind}[->{s}]",
                    )

                if forward_only:
                    fwd = [channel("fwd", i) for i in range(len(heads))]
                    bwd = [None] * len(heads)
                else:
                    fwd = [None] + [channel("fwd", s) for s in range(1, S)]
                    bwd = [channel("bwd", s) for s in range(S - 1)] + [None]
                self.abort = _LocalAbort(wakes + mine)
                pipes = [_local_pipe(mine[s], wakes[s]) for s in range(count)]
                host = _HostedWorker
            self.channels = fwd
            self.rings = [c for c in fwd + bwd if c is not None]
            self._rx_buf = [deque() for _ in range(count)]
            # worker w owns fwd[w] (and, training, where w is its stage,
            # bwd[w] from stage w + 1)
            for w, members in enumerate(self.groups):
                owned = [stages[s] for s in members]
                parent_conn, child_conn = pipes[w]
                spec = _WorkerSpec(
                    members=members,
                    conn=child_conn,
                    fwd_in=fwd[w],
                    fwd_out=fwd[w + 1] if w + 1 < len(fwd) else None,
                    bwd_in=bwd[w],
                    bwd_out=bwd[w - 1] if w > 0 else None,
                    abort=self.abort,
                    plan=[] if plan is None else plan[w],
                    lockstep=lockstep,
                    forward_only=forward_only,
                    update_after_backward=update_after_backward(w),
                    stall_timeout=self.stall_timeout,
                    stages=None if rebuild else owned,
                    build_specs=(
                        [st.build_spec(model_factory) for st in owned]
                        if rebuild else None
                    ),
                    stage_states=(
                        [st.state_dict() for st in owned] if rebuild else None
                    ),
                    inputs=batch[0] if batch and w == 0 else None,
                    labels=(
                        batch[1] if batch and owned[-1].spec.kind == "loss"
                        else None
                    ),
                    reduce=None if reduce_plan is None else reduce_plan[w],
                )
                self._conns.append(parent_conn)
                self.workers.append(
                    host(
                        target=_worker_main,
                        args=(spec,),
                        name=f"{name}-{w}",
                    )
                )
            for w in self.workers:
                w.start()
            if processes:
                # the child ends now live in the workers; drop the
                # parent's copies so a dead worker can surface as EOF
                for _, child_conn in pipes:
                    child_conn.close()
        except BaseException:
            self.teardown(failed=True)
            raise

    # -- messaging ----------------------------------------------------------

    def send(self, w: int, msg) -> None:
        try:
            self._conns[w].send(msg)
        except OSError as exc:
            self.check_errors()
            raise PipelineRuntimeError(
                self.groups[w][0],
                RuntimeError("worker control pipe is closed"),
            ) from exc

    def broadcast(self, msg) -> None:
        for w in range(len(self._conns)):
            self.send(w, msg)

    def _worker_error(self, msg) -> PipelineRuntimeError:
        _, stage_index, text, cause = msg
        return PipelineRuntimeError(
            stage_index, RuntimeError(text) if cause is None else cause
        )

    def _scan_for_err(self) -> None:
        """Drain buffered worker messages; raise the first ``err`` found.

        A worker failure often surfaces indirectly: the parent runs
        ahead, sibling workers of the stage that actually failed die next
        on the aborted transport (quietly — see :func:`_worker_main`),
        and the parent's first symptom can be a sibling's silence or a
        stall.  The root-cause ``err`` report is still sitting in the
        failed worker's endpoint; scanning every endpoint before raising
        a secondary error keeps the failure attributed to the right
        stage.  Other messages (healthy workers' state replies) are
        stashed and replayed to later :meth:`recv` calls.
        """
        for s, conn in enumerate(self._conns):
            try:
                while conn.poll(0):
                    msg = conn.recv()
                    if msg[0] == "err":
                        raise self._worker_error(msg)
                    self._rx_buf[s].append(msg)
            except (EOFError, OSError):
                continue

    def check_dead(self) -> None:
        """Raise for a worker that died *abnormally* (touches no pipe, so
        a monitor thread may call it while a driver owns the endpoints).

        Abnormal means a nonzero exit code: SIGKILL/OOM/segfault.  Every
        legitimate worker path — its reply, abort, even an
        internal error (reported as ``err`` first) — returns from
        :func:`_worker_main` and exits 0, so the exit code is the
        discriminator that works in every phase.  The check exists
        because pipe EOF alone cannot flag a dead worker: under ``fork``
        sibling workers inherit each other's pipe ends, keeping the write
        side open after a SIGKILL, and a dead stage can leave its
        *neighbors* blocked on rings with their own pipes silent.
        (Threads have no exit code; they report every failure as ``err``.)
        """
        for members, w in zip(self.groups, self.workers):
            code = getattr(w, "exitcode", None)
            if code:
                raise PipelineRuntimeError(
                    members[0],
                    RuntimeError(
                        "worker process died without reporting an error "
                        f"(exitcode={code})"
                    ),
                )

    def check_errors(self) -> None:
        """Surface a worker's error report or death without blocking."""
        self._scan_for_err()
        self.check_dead()

    def recv(self, w: int, expect: str | None = None, watch=None):
        """One message from worker ``w``.

        Blocks until the stall deadline, which restarts whenever the
        group's completion count moves, and raises when it passes.
        Meanwhile worker health is polled every 50 ms — this group's, or
        whatever ``watch()`` checks instead — so a dead or failed worker
        raises :class:`PipelineRuntimeError` instead of stalling out.  A
        worker that has exited with nothing buffered sent nothing before
        exiting — once ``send`` has returned, its message is visible to
        ``poll`` — so raising loses no messages.
        """
        conn = self._conns[w]
        buffered = self._rx_buf[w]
        s = self.groups[w][0]  # the stage an error names
        progress = self.abort.completed.value
        deadline = time.monotonic() + self.stall_timeout
        while not buffered and not conn.poll(min(self.stall_timeout, 0.05)):
            (watch or self.check_errors)()  # may stash worker w's messages
            if buffered:
                break
            if not self.workers[w].is_alive() and not conn.poll(0):
                raise PipelineRuntimeError(
                    s, RuntimeError("worker exited without replying")
                )
            now = time.monotonic()
            if self.abort.completed.value != progress:
                progress = self.abort.completed.value
                deadline = now + self.stall_timeout
            elif now >= deadline:
                raise RuntimeError(
                    f"pipeline runtime stalled waiting on stage {s} worker "
                    f"({self.stall_timeout:.1f}s without progress) — likely "
                    "deadlock or a dead worker"
                )
        if buffered:
            msg = buffered.popleft()  # err is never stashed
        else:
            try:
                msg = conn.recv()
            except (EOFError, OSError) as exc:
                # a worker killed without reporting closes its pipe end;
                # surface the documented error, not a bare EOF — unless a
                # sibling's buffered err names the real culprit
                self.check_errors()
                raise PipelineRuntimeError(
                    s,
                    RuntimeError(
                        "worker process died without reporting an error"
                    ),
                ) from exc
        if msg[0] == "err":
            raise self._worker_error(msg)
        if expect is not None and msg[0] != expect:  # pragma: no cover
            raise RuntimeError(
                f"stage {s}: expected {expect!r}, got {msg[0]!r}"
            )
        return msg

    # -- teardown -----------------------------------------------------------

    def teardown(self, failed: bool) -> None:
        """Join (or kill) every worker and free every channel."""
        if failed and self.abort is not None:
            self.abort.set()
        deadline = time.monotonic() + self.stall_timeout
        started = [w for w in self.workers if w.ident is not None]
        for w in started:
            w.join(max(0.0, deadline - time.monotonic()))
        stuck = []
        for w in started:
            if not w.is_alive():
                continue
            if hasattr(w, "terminate"):  # a process can always be killed
                w.terminate()
                w.join(5.0)
            else:  # a thread cannot
                stuck.append(w.name)
        for conn in self._conns:
            conn.close()
        for ring in self.rings:
            ring.close()
            ring.unlink()
        if self.abort is not None:
            self.abort.close()
        self.workers = []
        self.channels = []
        self.rings = []
        self._conns = []
        self._rx_buf = []
        if stuck and not failed:
            # only complain when no richer error is already propagating.
            # A straggling thread is a daemon that exits once its
            # in-flight op returns and it observes the abort flag.
            raise RuntimeError(f"pipeline workers failed to shut down: {stuck}")
