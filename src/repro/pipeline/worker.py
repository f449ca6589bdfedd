"""The pipeline's worker loops, hosted as threads or as processes.

The paper's argument is that fine-grained pipelined backpropagation
makes every stage run the *same* tiny loop forever: take one activation,
take one gradient, update, pass both on.  PipeDream's worker model
(Harlap et al. 2018: backward priority plus an in-flight cap) is that
loop again, and PipeDream and torchgpipe give each device a contiguous
block of layers.  Here :class:`StageWorker` runs a contiguous group of
training stages in plan order, :class:`FreeStageWorker` one free-running
stage, :class:`Lane` the serving stream's forward-only loop, and
:class:`WorkerGroup` hosts them (one per group or stage; serving, one
lane per CPU) and owns launch, health, replies and teardown.
:mod:`repro.pipeline.runtime` (training) and
:mod:`repro.pipeline.inference` (serving) are the parent-side drivers.
A training worker runs the simulator's own op bodies
(:class:`~repro.pipeline.executor.StageOps`) and supplies only its
group's edges.

The loop
--------

A training worker hosts a contiguous run of stages ``a..b`` (a *group*;
:mod:`repro.pipeline.runtime`, "Stage groups", says how many) and is
shipped :meth:`Plan.ops <repro.pipeline.schedule.Plan.ops>` ``(a, b)``
once in its spec: the plan's ticks restricted to its stages, in tick
order and in order within a tick, ``FLUSH`` and ``SET_LR`` applied to
all its stages where they fall.  It has one loop: run those ops through
:class:`~repro.pipeline.executor.StageOps` in the worker's order until
they end or the abort flag is set.  The order is one of two.

**In plan order** — every lockstep run, every run of a synchronous
schedule (replicas included) and every ``pb`` / ``1f1b`` run short of
a CPU per stage: :class:`StageWorker` runs the ops as shipped.  Inside the
group activations and gradients pass through ``StageOps``' dicts
exactly as in the simulator, so the loss stage's same-tick ``FWD`` →
``BWD`` seeding holds by construction; only ``a``'s inbound and
``b``'s outbound edges are channels.  Numerics depend only on each
stage's op order (no two stages share mutable state) and channels are
FIFO, so the run is bit-exact with the simulator whatever the cut;
``S`` groups of one stage are a worker per stage in lockstep.

A ``FLUSH`` applies each stage's averaged update, in stage order; in a
replica of a synchronous schedule it is instead each stage's
cross-replica reduce round (:meth:`StageWorker.reduce`: chain in, fold
in stream order, chain out, the sum back), and a replica whose shard
misses a global batch joins its round with a ``(FLUSH, -1, 0)`` op.

It cannot deadlock.  Every op waits only on ops of earlier ticks:
``FWD s`` of a packet on its ``FWD s-1`` one tick before, ``BWD s`` on
its ``BWD s+1`` one tick before (the loss stage's ``BWD`` on its own
``FWD``, same tick, same worker).  Take the pending op with the
smallest tick over all workers: everything it waits on has run, because
each worker runs in tick order and none has a pending op at an earlier
tick.  So it can run, provided no send blocks — and none does, by the
channel sizes.  Both channels into group ``a..b`` have ``D_a + 1 +
RING_SLACK`` slots (``D_s = 2(S-1-s)``, ``RING_SLACK = 2``), and the
group holds a boundary slot from its receipt until that packet's
``BWD a`` ("Channels").  At most one packet enters per tick, and the
packet injected at tick ``i`` runs ``FWD s`` at tick ``i + s`` and
``BWD s`` at ``i + 2(S-1) - s``.  Then:

* *Forward into* ``a``.  When group ``g-1`` sends a packet (its ``FWD
  a-1`` at tick ``u``) it has run its backwards of ticks ``<= u - 1``,
  so group ``g`` has run — and released the slot of — every packet
  whose ``BWD a`` is at tick ``<= u - 2``.  A held slot's packet has
  ``FWD a`` in ``[u - 1 - D_a, u + 1]``: at most ``D_a + 3`` packets,
  the one being sent included.  (Group ``g`` frees a slot right after
  its gradient send, straight-line code that waits on nothing the
  sender holds.)
* *Backward into* ``b``.  When group ``g+1`` sends a packet's gradient,
  group ``g`` has forwarded it at ``b``.  If group ``g``'s next op is
  at tick ``t``, a held slot's packet has ``FWD b <= t`` and ``BWD a =
  FWD b + D_b + (b - a) >= t``: at most ``D_b + (b - a) + 1 <= D_a +
  1`` packets, since ``D_a = D_b + 2(b - a)``.
* *Reduce rounds.*  A synchronous schedule's ``FLUSH`` comes after the
  tick in which the batch's last sample drained, and injection is held
  until then, so a worker blocked in a reduce round holds no ring slot,
  and its peers' rounds (the same stage on the other replicas) depend
  only on their own replicas' earlier ticks.

**Free-running** — ``pb`` and ``1f1b`` unless lockstep, one stage per
worker, when the launch has a usable CPU for every stage (on fewer,
the workers would share cores and the OS scheduler would set the
delays the cap only bounds).  A :class:`FreeStageWorker` runs its
stage's ops ``Plan.ops(s, s)`` — per-gradient updates, so no
``FLUSH`` (one is a plan bug, and raises) — each as soon as it is
possible, by PipeDream's rule: **backward priority** (the drain rule,
and the deadlock-freedom argument: the oldest in-flight packet can
always progress) → a forward only while fewer than ``D_s + 1 =
2(S-1-s) + 1`` packets sit between their forward and backward here →
idle wait.  Every op runs under the learning rate of the last
``SET_LR`` before it in the plan, and the stage keeps the plan's last
one.  The cap turns the paper's eq. 5 into a guaranteed staleness
ceiling: the forward of sample ``i`` at stage ``s`` sees at least
``max(0, i - 2(S-1-s))`` updates applied.

Stage 0's group has no inbound channel.  The batch rides in its spec,
as the loss stage's labels do: ``inputs`` holds the plan's packets, and
``FWD`` of packet ``p`` takes the ``p``-th.  Stage 0 also adds every
sample its backwards complete to the group's completion count, a shared
number next to the abort flag, and every op it runs to a step count
beside it: all the parent watches for stall detection.

When its ops end a worker sends its one reply and returns.

The lane
--------

A serving stream has no plan, no backward, no cap and no flush, so it
does not run this loop.  A :class:`Lane` hosts every compute stage and
repeats, until finalize: take a packet from its in channel, run each
stage's ``forward(..., train=False)`` in order under ``no_grad`` (no
autodiff graph), send the result on its out channel, release the slot.
Inference has no staleness, so where a stage runs cannot change an
output bit: each stage keeps its own
:class:`~repro.pipeline.executor.StageCounters`, an error names the
stage that raised, and the payload between two stages, skip arrays
included, never leaves the lane.  A lane is pinned to one CPU (``cpus``
in its spec, applied by :func:`_worker_main` on either host).  Lanes
are not fused training stages: the eq.-5 delays ``D_s`` are per stage.

Channels
--------

Packets ``(pid, start, size, payload)`` move over channels with the
:class:`~repro.pipeline.transport.ShmRing` surface — ``send`` /
``try_send`` / ``recv`` / ``try_recv`` / ``poll`` / ``release`` /
``has_free_slot`` and the consumer's ``idle_wait`` — by duck typing.  A
process host uses the shared-memory rings themselves (zero-copy views,
no pickling on the hot path); a thread host uses
:class:`LocalChannel`, a bounded deque passing references.  Nobody
polls on either: how to block is the channel's business.  A
:class:`LocalChannel`'s condition variable is the *consumer's* wake-up —
every inbound source of a thread-hosted worker (forward channel,
backward channel, control endpoint, abort flag) notifies the same
condition; a ring's doorbells (``transport.py``, "Doorbells") are pipe
bytes its peer writes, and an idle process-hosted worker blocks in one
``select`` over its inbound rings' bells, its control pipe and the abort
flag's bell.  Both hosts size each channel into a training group at
its first stage's ``D_a + 1 + RING_SLACK`` slots
(:func:`~repro.pipeline.transport.group_slots`; a flat count for
serving), which is what keeps every send from blocking ("The loop").
A serving stream's parent waits on every lane at once
(:meth:`WorkerGroup.wait_lanes`): one ``select`` over the lanes' bells,
or one condition that every lane's out channel (and, for free slots,
every in channel's ``release``) notifies.

Slot lifetime follows the autodiff engine's lazy reads (see
``transport.py``): a training worker holds both of a packet's inbound
slots — forward into ``a``, backward into ``b`` — until the packet
leaves the group at ``a``'s backward, because a compute stage re-reads
its forward input then and identity/sum stages pass views of either slot
through; it frees them *after* its send upstream (FIFO, checked: each
packet must be the one the plan has next).  A lane releases its slot as
soon as the packet's output is copied out.

Control messages
----------------

Only control crosses the control endpoint (an OS pipe per worker for
processes, an in-process :class:`LocalConn` pair for threads), and a
worker sends exactly one message on it: ``("state", payload)`` — or
``("err", stage, text, exc)`` for any failure (``exc`` is the exception
object itself on an in-process endpoint, ``None`` across a pipe).

A training worker needs nothing from the parent.  Flushes (with a
:class:`_ReduceSpec` per stage, cross-replica reduce rounds) and LR
changes are plan ops, so the worker replies when its ops end, and the
parent of a training run sends nothing at all.  It never writes ``stage.lr``
itself while workers run: a thread-hosted worker shares the stage
object.

A lane runs until told to stop, so a stream sends each lane one
message, ``("finalize",)``, and the reply answers it.  A lane reads its
control endpoint only where it would block (no packet waiting) and
before it honours the abort flag — not once per packet, which on a
process host builds a selector per call — and honours a ``finalize``
found there: a stream's ``close()`` sends ``finalize`` *before* setting abort
(abort is what unblocks a lane stuck in a ring send), so anything
sent-before is seen first.

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

Worker slot ``w`` of a thread-hosted group — ``pipeline-stage-a`` for
training (where ``a`` is the first stage of its group),
``infer-stage-w`` for serving (the ``w``-th lane) — is leased an idle **host
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
  at every lease (a lane then narrows it to its CPU), :func:`_worker_main`
  begins with ``enable_grad()`` and ends by emptying the thread's
  ``ops_conv`` scratch buffers (back into *that* arena, which is the
  point).
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
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Sequence

import numpy as np

from repro.pipeline.executor import StageCounters, StageOps
from repro.pipeline.schedule import BWD, FWD, SET_LR
from repro.pipeline.stage import PipelineStage
from repro.pipeline.transport import (
    Doorbell,
    ShmRing,
    TransportAborted,
    TransportError,
    TransportStall,
    block_on_bells,
    build_inference_rings,
    build_pipeline_rings,
    group_slots,
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
    on it too and is woken by ``release``.  ``space``, when given, is
    notified by ``release`` as well: the wake-up of a producer that
    waits on several channels at once (a stream's parent, over its
    lanes).
    """

    def __init__(self, cond: threading.Condition, slots: int, label: str,
                 space: threading.Condition | None = None):
        self.cond = cond
        self.space = space
        self.slots = slots
        self.label = label
        self._items: deque = deque()
        self._held = 0  # received, not yet released

    def poll(self) -> bool:
        return bool(self._items)

    def has_free_slot(self) -> bool:
        return len(self._items) + self._held < self.slots

    def try_send(self, pid, start, size, payload) -> bool:
        with self.cond:
            if not self.has_free_slot():
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
            if not self.has_free_slot():
                self._wait(self.has_free_slot, timeout, "a free slot", abort)
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
        if self.space is not None:
            with self.space:
                self.space.notify_all()

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
    It also carries the group's progress counts (:class:`_SharedAbort`)."""

    def __init__(self, conds: Sequence[threading.Condition]):
        super().__init__()
        self._conds = conds
        self.completed = ctypes.c_int64()
        self.steps = ctypes.c_int64()

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
    int64 with one writer: the samples whose backward stage 0 has run.
    ``steps``, written by the same worker when it hosts a stage group,
    counts the ops it has run: one group may run a whole fill between
    two completions."""

    def __init__(self, ctx):
        self._flag = ctx.RawValue("b", 0)
        self.completed = ctx.RawValue("q", 0)
        self.steps = ctx.RawValue("q", 0)
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
    """Everything one worker needs, picklable under ``spawn``: a training
    group's, or — with no ``plan`` — a serving lane's."""

    conn: Any  # Connection | LocalConn
    fwd_in: Any  # ShmRing | LocalChannel; None for stage 0 of a training run
    fwd_out: Any  # None for the loss stage's group
    abort: Any  # _SharedAbort | _LocalAbort
    stall_timeout: float
    stages: list | None  # threads and fork: the stage objects themselves
    build_specs: list | None = None  # a rebuild recipe per stage ...
    stage_states: list | None = None  # ... and the weights to load into it
    #: the group's Plan.ops (a free-running stage's: Plan.ops(s, s));
    #: None: a lane
    plan: list | None = None
    free_running: bool = False  # one stage, its ops in PipeDream's order
    update_after_backward: tuple = ()  # per stage of the group
    packets: list | None = None  # the plan's (start, size) per packet
    bwd_in: Any = None  # None for the loss stage's group
    bwd_out: Any = None  # None for stage 0's group
    inputs: list | None = None  # stage 0's group: its packets
    labels: np.ndarray | None = None  # the loss stage's group only
    #: per stage of the group: its _ReduceSpec (replicated synchronous
    #: runs), or None
    reduce: tuple = ()
    cpus: tuple | None = None  # the CPUs it runs on (None: the launcher's)


class _Worker:
    """What a training stage's loop and a serving lane's share: blocking
    with accounting, sending, and the one reply."""

    def __init__(self, spec: _WorkerSpec, counters: StageCounters):
        self.spec = spec
        #: the worker's own counters: waits, wake-ups, placement
        self.counters = counters
        #: perf_counter at this worker's first forward (its span's start)
        self._t0: float | None = None

    # wait_seconds / wakeups accounting: everywhere a loop can block —
    # the idle wait, a packet that has not arrived yet, a send into a
    # full channel — goes through _blocked.  Every packet hand-off that
    # does not block — taking a packet that is there, a send into a
    # channel with room, a slot release — goes through _handoff: each
    # may wake a peer, and a worker that has just woken one may sit
    # descheduled right there.  busy + wait + hand-off is the worker's
    # lifetime less its bookkeeping (control checks, loop overhead).

    def _blocked(self, block, *args):
        t0 = time.perf_counter()
        try:
            return block(*args)
        finally:
            self.counters.wait_seconds += time.perf_counter() - t0
            self.counters.wakeups += 1

    def _handoff(self, step, *args):
        t0 = time.perf_counter()
        try:
            return step(*args)
        finally:
            self.counters.handoff_seconds += time.perf_counter() - t0

    def _send(self, channel, pid, start, size, payload) -> None:
        spec = self.spec
        if not self._handoff(channel.try_send, pid, start, size, payload):
            self._blocked(
                channel.send, pid, start, size, payload, spec.stall_timeout,
                spec.abort,
            )

    def _reply(self, counters: list, **payload) -> None:
        """The worker's one message: this run's measurements, plus
        whatever ``payload`` the parent's driver reads."""
        span = 0.0 if self._t0 is None else time.perf_counter() - self._t0
        if not isinstance(self.spec.conn, LocalConn):
            # a process worker is its process: placement diagnostics
            usage = resource.getrusage(resource.RUSAGE_SELF)
            self.counters.voluntary_switches = usage.ru_nvcsw
            self.counters.involuntary_switches = usage.ru_nivcsw
            if hasattr(os, "sched_getaffinity"):
                self.counters.cpus = tuple(sorted(os.sched_getaffinity(0)))
        payload.update(counters=counters, span=span)
        self.spec.conn.send(("state", payload))


class StageWorker(_Worker):
    """A training worker: the contiguous stages ``a..b`` of its spec,
    their plan ops run in order (module docstring, "The loop").  The
    op bodies are :class:`~repro.pipeline.executor.StageOps`', the
    simulator's own; this worker is their ``edges``: the channel into
    ``a`` (stage 0: its own packets) and the one out of ``b`` forward,
    the channel into ``b`` and the one out of ``a`` backward, and a
    ``FLUSH``'s cross-replica reduce round."""

    def __init__(self, spec: _WorkerSpec, stages: Sequence[PipelineStage]):
        self.stages = list(stages)
        self.ops = StageOps(
            stages, spec.packets, spec.labels, self,
            spec.update_after_backward, clock=time.perf_counter,
            reduce=spec.reduce,
        )
        super().__init__(spec, self.ops.counters[0])
        #: a process host's worker returns its trained state
        self.ship_state = not isinstance(spec.conn, LocalConn)
        if self.ship_state:
            # ship only THIS run's version trace back; the parent extends
            # its accumulated list.  A fork-inherited stage would
            # otherwise carry — and duplicate — prior runs' entries.
            for stage in stages:
                stage.version_trace = []
        #: each reducing stage's rounds so far (packet ids on its rings)
        self._rounds: dict[int, int] = {}
        for stage, red in zip(stages, spec.reduce):
            if red is not None:
                # replicated sync runs fold per-packet gradient segments
                # across replicas instead of accumulating locally
                stage.collect_grad_segments = True

    @property
    def active(self) -> int:
        """The stage whose op runs now: an error names it."""
        return self.ops.active

    def _recv(self, channel, what: str):
        pkt = self._handoff(channel.try_recv)
        if pkt is None:
            spec = self.spec
            pkt = self._blocked(
                channel.recv, spec.stall_timeout, what, spec.abort
            )
        return pkt

    def _take(self, channel, start: int, what: str) -> list:
        """The payload of the next packet on ``channel``, which must be
        the one the plan has next (channels are FIFO)."""
        s = self.active
        pid, _, _, payload = self._recv(channel, f"stage {s} {what} packet")
        if pid != start:
            raise RuntimeError(
                f"stage {s}: {what} packet {pid} arrived where the plan "
                f"has packet {start} — FIFO violated"
            )
        return payload

    # -- the edges (StageOps) ---------------------------------------------

    def fwd_in(self, p: int, start: int, size: int) -> list:
        if self._t0 is None:
            self._t0 = time.perf_counter()
        spec = self.spec
        if spec.fwd_in is None:
            return spec.inputs[p][3]
        return self._take(spec.fwd_in, start, "fwd")

    def fwd_out(self, p: int, start: int, size: int, out: list) -> None:
        self._send(self.spec.fwd_out, start, start, size, out)

    def bwd_in(self, p: int, start: int, size: int) -> list:
        return self._take(self.spec.bwd_in, start, "bwd")

    def bwd_out(self, p: int, start: int, size: int, upstream) -> None:
        """The packet leaves the group: count it complete (stage 0) or
        send its gradient on, then free the slots it held here — after
        the send, since identity and sum stages pass views of them
        through (module docstring, "Channels")."""
        spec = self.spec
        if spec.bwd_out is None:
            spec.abort.completed.value += size
        else:
            self._send(spec.bwd_out, start, start, size, upstream)
        if spec.bwd_in is not None:
            self._handoff(spec.bwd_in.release)
        if spec.fwd_in is not None:
            self._handoff(spec.fwd_in.release)

    def reduce(
        self, stage: PipelineStage, red: _ReduceSpec, local_count: int
    ) -> None:
        """One cross-replica reduce round ending in a synchronized update.

        Every replica's worker of ``stage`` (same stage, ranks
        ``0..R-1``) enters this once per global batch — replicas whose
        shard holds no samples for the batch enter with ``local_count ==
        0`` and empty segments, keeping the chain aligned.  Rank ``r``
        receives ranks ``0..r-1``'s partial sums, folds its own
        per-packet gradients on top *in stream order*, and forwards; the
        last rank's fold is the global sum, which travels back down the
        result chain.  Everyone then installs the identical sum and
        applies the identical mean update, so replicas stay bit-for-bit
        in sync — and equal to one pipeline running the whole ``R*U``
        batch.
        """
        s = stage.index
        params = stage.params
        segments = stage.pop_grad_segments()
        if red.chain_in is not None:
            pkt = self._recv(
                red.chain_in, f"stage {s} reduce chain (rank {red.rank})"
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
        pid = self._rounds.get(s, 0)
        if params and any(a is None for a in acc):
            # only reachable when rank 0 flushes a batch it saw no
            # samples of — the block-cyclic shard gives rank 0 the
            # earliest samples of every batch, so this is a plan bug
            raise RuntimeError(
                f"stage {s} rank {red.rank}: reduce round {pid} has no "
                "gradient to contribute or forward"
            )
        self._rounds[s] = pid + 1
        if red.chain_out is not None:
            size = max((int(a.shape[0]) for a in acc), default=0)
            self._send(red.chain_out, pid, total, size, acc)
            if red.chain_in is not None:
                # the send copied the views out
                self._handoff(red.chain_in.release)
            pkt = self._recv(
                red.result_in, f"stage {s} reduce result (rank {red.rank})"
            )
            total = int(pkt[1])
            result = [np.array(a, copy=True) for a in pkt[3]]
            if red.result_out is not None:
                self._send(red.result_out, pid, total, pkt[2], pkt[3])
            self._handoff(red.result_in.release)
        else:
            # last rank: its fold IS the global sum.  Copy before
            # releasing the inbound slot the views may alias.
            result = [np.array(a, copy=True) for a in acc]
            if red.chain_in is not None:
                self._handoff(red.chain_in.release)
            size = max((int(a.shape[0]) for a in result), default=0)
            self._send(red.result_out, pid, total, size, result)
        if params:
            stage.set_reduced_grads(result)
        stage.flush_update(total)

    # -- the loop -----------------------------------------------------------

    def run(self) -> None:
        """Run the ops of :meth:`_order`, then reply."""
        abort = self.spec.abort
        steps = abort.steps if self.ops.lo == 0 else None

        def ops():
            for op in self._order():
                if abort.is_set():
                    raise TransportAborted(f"stage {self.active}: run aborted")
                yield op
                if steps is not None:
                    steps.value += 1

        self.ops.run(ops())
        ship = self.ship_state
        self._reply(
            self.ops.counters,
            losses=self.ops.losses,
            states=[st.state_dict() for st in self.stages] if ship else None,
            version_traces=(
                [list(st.version_trace) for st in self.stages]
                if ship else None
            ),
        )

    def _order(self):
        """The group's ops: plan order."""
        return self.spec.plan


class FreeStageWorker(StageWorker):
    """One stage, free-running: the same plan ops and op bodies, run in
    PipeDream's order as packets arrive (module docstring, "The
    loop")."""

    def __init__(self, spec: _WorkerSpec, stage: PipelineStage):
        super().__init__(spec, [stage])
        self.stage = stage
        self.s = stage.index
        self.cap = stage.delay + 1  # PipeDream in-flight bound (eq. 5)
        #: the learning rate and op of each forward and of each backward
        #: left to run
        self._fwd: deque[tuple] = deque()
        self._bwd: deque[tuple] = deque()
        inbound = [c for c in (spec.fwd_in, spec.bwd_in) if c is not None]
        #: (a loss-only pipeline has no channel, and never waits)
        self._idle_wait = inbound and inbound[0].idle_wait(
            spec.conn, spec.abort, *inbound[1:]
        )

    def _order(self):
        """Backward priority, then a forward under the in-flight cap,
        else idle wait — until every op has run, each under the learning
        rate of the last ``SET_LR`` before it in the plan; the stage
        keeps the plan's last one."""
        lr = self.stage.lr
        for op in self.spec.plan:
            kind, _, arg = op
            if kind == SET_LR:
                lr = arg
            elif kind in (FWD, BWD):
                (self._bwd if kind == BWD else self._fwd).append((lr, op))
            else:
                # a per-gradient plan has no FLUSH (test_plan.py)
                raise RuntimeError(f"stage {self.s}: free-running op {op}")
        abort = self.spec.abort
        while self._fwd or self._bwd:
            if self._may_backward():
                self.stage.lr, op = self._bwd.popleft()
            elif self._may_forward():
                self.stage.lr, op = self._fwd.popleft()
            else:
                if abort.is_set():
                    raise TransportAborted(f"stage {self.s}: run aborted")
                self._blocked(self._idle_wait, self._has_work)
                continue
            yield op
        self.stage.lr = lr

    def _may_backward(self) -> bool:
        bwd_in = self.spec.bwd_in
        # the loss stage's backward is the one its forward seeded
        return bool(self._bwd) and bool(
            self.ops.grads or (bwd_in is not None and bwd_in.poll())
        )

    def _may_forward(self) -> bool:
        fwd_in = self.spec.fwd_in
        c = self.counters
        return (
            bool(self._fwd)
            and c.forward_ops - c.backward_ops < self.cap
            and (fwd_in is None or fwd_in.poll())
        )

    def _has_work(self) -> bool:
        """The idle wait's predicate: any op the rule may run next."""
        abort = self.spec.abort
        return abort.is_set() or self._may_backward() or self._may_forward()


class Lane(_Worker):
    """A serving lane's loop: every compute stage's forward on each
    packet, until finalize (module docstring, "The lane")."""

    def __init__(self, spec: _WorkerSpec, stages: Sequence[PipelineStage]):
        #: each stage with its own counters; the first stage's are also
        #: the lane's (waits, wake-ups, placement)
        self.stages = [(st, StageCounters(index=st.index)) for st in stages]
        super().__init__(spec, self.stages[0][1])
        #: the stage whose forward runs now: an error names this stage
        self.active = stages[0].index
        self._idle_wait = spec.fwd_in.idle_wait(spec.conn, spec.abort)
        for st in stages:
            if st.spec.module is not None:
                st.spec.module.eval()

    def _has_work(self) -> bool:
        spec = self.spec
        return spec.abort.is_set() or spec.conn.poll() or spec.fwd_in.poll()

    def run(self) -> None:
        """Forward packets until finalize, then reply.  No autodiff
        graph: its nodes would keep each layer's temporaries (im2col
        columns, ...) alive until the packet is sent on, and a lane of
        several conv stages re-faults its arena's pages every packet."""
        spec = self.spec
        with no_grad():
            # the control endpoint is read only where the loop would
            # block and before the abort flag is honoured: a stream's
            # close() sends finalize before it sets abort, so answer the
            # finalize instead of dropping it
            while True:
                if spec.abort.is_set():
                    if spec.conn.poll():
                        break
                    raise TransportAborted("serving lane: run aborted")
                pkt = self._handoff(spec.fwd_in.try_recv)
                if pkt is None:
                    if spec.conn.poll():
                        break
                    self._blocked(self._idle_wait, self._has_work)
                    continue
                pid, start, size, out = pkt
                if self._t0 is None:
                    self._t0 = time.perf_counter()
                # the payload between two stages is a local
                for stage, counters in self.stages:
                    self.active = counters.index
                    t0 = time.perf_counter()
                    out = stage.forward(pid, out, train=False)
                    counters.forward_ops += 1
                    counters.forward_samples += size
                    counters.busy_seconds += time.perf_counter() - t0
                # copy downstream *before* releasing the slot the output
                # may alias (identity/sum stages pass views of the slot)
                self._send(spec.fwd_out, pid, start, size, out)
                self._handoff(spec.fwd_in.release)
        spec.conn.recv()  # finalize, a stream's one message
        self._reply([counters for _, counters in self.stages])


def _worker_main(spec: _WorkerSpec) -> None:
    """The single entry point of a worker — a training stage's, or a
    lane's when its spec has no plan: thread target and process target
    alike (top-level for ``spawn``)."""
    # a fork inherits the forking thread's grad mode, a host thread
    # whatever its previous worker left
    enable_grad()
    worker = None
    try:
        if spec.cpus is not None:
            os.sched_setaffinity(0, spec.cpus)  # this thread or process
        stages = spec.stages
        if stages is None:
            stages = [build.build() for build in spec.build_specs]
            for stage, state in zip(stages, spec.stage_states):
                stage.load_state_dict(state)
        if spec.plan is None:
            worker = Lane(spec, stages)
        elif spec.free_running:
            worker = FreeStageWorker(spec, *stages)
        else:
            worker = StageWorker(spec, stages)
        worker.run()
    except TransportAborted:
        pass  # the parent is tearing the run down; exit quietly
    except BaseException as exc:
        # an exception object only crosses an in-process endpoint
        cause = exc if isinstance(spec.conn, LocalConn) else None
        where = (spec.stages or spec.build_specs)[0].index
        if worker is not None:
            where = worker.active
        try:
            spec.conn.send(
                ("err", where, f"{exc!r}\n{traceback.format_exc()}", cause)
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


def _chain(fwd: list, bwd: list) -> list[tuple]:
    """Each training worker's ``(fwd_in, fwd_out, bwd_in, bwd_out)``:
    worker ``w`` reads ``fwd[w]`` / ``bwd[w]`` and writes ``fwd[w + 1]``
    / ``bwd[w - 1]``."""
    K = len(fwd)
    return [
        (fwd[w], fwd[w + 1] if w + 1 < K else None, bwd[w],
         bwd[w - 1] if w else None)
        for w in range(K)
    ]


def _build_rings(stages, probe, lanes, slots, layouts, groups):
    """The shared-memory rings of a process-hosted run: each training
    group's ``(fwd_in, fwd_out, bwd_in, bwd_out)`` — no ring into stage
    0, which reads its own packets — or each lane's ``(in, out)``."""
    if lanes is not None:
        return build_inference_rings(stages, probe, slots, layouts, len(lanes))
    fwd, bwd = build_pipeline_rings(stages, probe, RING_SLACK, layouts, groups)
    return _chain([None] + fwd, bwd + [None])


class WorkerGroup:
    """Host one :class:`StageWorker` per entry of ``groups`` — one
    :class:`FreeStageWorker` per stage without them — or one
    :class:`Lane` per entry of ``lanes`` — as threads over the parent's
    own stage objects, or as processes over shared-memory rings, and own
    launch, message receipt with a deadline, error attribution, the
    dead-worker watchdog and teardown.

    The constructor launches; a failure midway tears down whatever was
    created.  ``stages`` is the whole pipeline.  Lane ``w`` runs every
    stage but the final loss slot between its own in and out channel
    (``self.lanes[w]``: the parent feeds every in channel and consumes
    every out channel), on CPU ``lanes[w]`` (``None``: wherever the
    launcher may run); ``slots`` is each lane channel's capacity.
    Worker ``w``'s messages and errors are addressed by ``w``; the
    errors it raises name a stage.  ``probe`` is a max-width input
    packet (shape and dtype size the rings; ``layouts``, when given, are
    its :func:`~repro.pipeline.transport.probe_boundary_layouts`).
    ``groups[w]`` is training worker ``w``'s contiguous stage indices
    and ``plan[w]`` its :meth:`Plan.ops
    <repro.pipeline.schedule.Plan.ops>`, run in order on CPU ``cpus[w]``
    (``None``: wherever the launcher may run); without ``groups``,
    ``plan[s]`` is stage ``s``'s ``Plan.ops(s, s)``, run free.
    ``reduce_plan[s]``, when given, is stage ``s``'s
    :class:`_ReduceSpec`, which its ``FLUSH`` ops reduce over.  A training run's
    ``batch`` is ``(inputs, labels)``: stage 0's packets ``(pid, start,
    size, [x])`` in plan order, which it reads instead of a channel, and
    the loss stage's labels.
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
        groups: Sequence[tuple[int, ...]] | None = None,
        cpus: Sequence[int | None] | None = None,
        lanes: Sequence[int | None] | None = None,
        slots: int | None = None,
        update_after_backward: Callable[[int], bool] = lambda s: False,
        batch: tuple[list, np.ndarray] | None = None,
        reduce_plan: Sequence[_ReduceSpec] | None = None,
        model_factory=None,
        start_method: str | None = None,
        layouts: list | None = None,
    ):
        self.stall_timeout = float(stall_timeout)
        self.workers: list = []  # _HostedWorker | Process
        #: forward-only: each lane's (in, out) channel
        self.lanes: list[tuple] = []
        self.rings: list = []  # every channel of the run
        self.abort = None
        self._conns: list = []
        self._rx_buf: list[deque] = []
        #: a thread host's parent-side wake-ups: (out channels, in
        #: channels' free slots); a process host waits on bells instead
        self._lane_conds: tuple | None = None
        S = len(stages)
        forward_only = lanes is not None
        free = groups is None
        #: each training worker's stages
        self.groups = [] if forward_only else [
            tuple(g) for g in (groups or [(s,) for s in range(S)])
        ]
        count = len(lanes) if forward_only else len(self.groups)
        #: the stage worker ``w``'s errors name: a lane's or group's first
        self._stage = [0] * count if forward_only else [
            g[0] for g in self.groups
        ]
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
                wiring = _build_rings(
                    stages, probe, lanes, slots, layouts, self.groups
                )
            else:
                # a channel's condition is its consumer's wake-up
                wakes = [threading.Condition() for _ in range(count)]
                # the parent end of each control pipe has its own
                # condition: waiting on one worker's reply is not woken
                # by every other worker's
                mine = [threading.Condition() for _ in range(count)]
                if forward_only:
                    self._lane_conds = (
                        threading.Condition(), threading.Condition()
                    )
                    out_cond, space_cond = self._lane_conds
                    wiring = [
                        (
                            LocalChannel(
                                wakes[w], slots, f"infer[->lane{w}]",
                                space=space_cond,
                            ),
                            LocalChannel(out_cond, slots, f"infer[lane{w}->]"),
                        )
                        for w in range(count)
                    ]
                else:
                    def channel(kind: str, w: int, s: int) -> LocalChannel:
                        # into worker w at its stage s
                        return LocalChannel(
                            wakes[w],
                            group_slots(stages, self.groups[w], RING_SLACK),
                            f"{kind}[->{s}]",
                        )

                    wiring = _chain(
                        [None] + [
                            channel("fwd", w, self.groups[w][0])
                            for w in range(1, count)
                        ],
                        [
                            channel("bwd", w, self.groups[w][-1])
                            for w in range(count - 1)
                        ] + [None],
                    )
                self.abort = _LocalAbort(
                    wakes + mine + list(self._lane_conds or ())
                )
                pipes = [_local_pipe(mine[w], wakes[w]) for w in range(count)]
                host = _HostedWorker
            if forward_only:
                self.lanes = wiring
                self.rings = [c for lane in wiring for c in lane]
            else:  # every channel flows into some worker
                self.rings = [
                    c for wired in wiring for c in wired[::2] if c is not None
                ]
            self._rx_buf = [deque() for _ in range(count)]
            packets = [(p[1], p[2]) for p in batch[0]] if batch else []
            for w in range(count):
                parent_conn, child_conn = pipes[w]
                if forward_only:
                    owned = list(stages[:-1])
                    role = dict(
                        fwd_in=wiring[w][0], fwd_out=wiring[w][1],
                        cpus=None if lanes[w] is None else (lanes[w],),
                    )
                else:
                    group = self.groups[w]
                    owned = [stages[s] for s in group]
                    fwd_in, fwd_out, bwd_in, bwd_out = wiring[w]
                    cpu = None if cpus is None else cpus[w]
                    role = dict(
                        fwd_in=fwd_in, fwd_out=fwd_out,
                        bwd_in=bwd_in, bwd_out=bwd_out,
                        plan=[] if plan is None else plan[w],
                        free_running=free,
                        update_after_backward=tuple(
                            update_after_backward(s) for s in group
                        ),
                        packets=packets,
                        inputs=batch[0] if batch and w == 0 else None,
                        # the loss stage is the last (validate_stage_graph)
                        labels=batch[1] if batch and w == count - 1 else None,
                        reduce=() if reduce_plan is None else tuple(
                            reduce_plan[s] for s in group
                        ),
                        cpus=None if cpu is None else (cpu,),
                    )
                spec = _WorkerSpec(
                    conn=child_conn,
                    abort=self.abort,
                    stall_timeout=self.stall_timeout,
                    stages=None if rebuild else owned,
                    build_specs=(
                        [st.build_spec(model_factory) for st in owned]
                        if rebuild else None
                    ),
                    stage_states=(
                        [st.state_dict() for st in owned] if rebuild else None
                    ),
                    **role,
                )
                self._conns.append(parent_conn)
                self.workers.append(
                    host(
                        target=_worker_main,
                        args=(spec,),
                        # a training worker's slot is named after its
                        # first stage
                        name=f"{name}-{w if forward_only else self._stage[w]}",
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

    def wait_lanes(self, timeout: float, space: bool = False) -> bool:
        """The parent's one wait over every lane: until some lane's out
        channel has a packet (``space=True``: some lane's in channel has
        a free slot) — ``True`` — or the abort flag or ``timeout`` —
        ``False``.  A process host blocks in one ``select`` over the
        lanes' bells, a thread host on the condition those channels
        notify."""
        if space:
            ready = lambda: any(ins.has_free_slot() for ins, _ in self.lanes)
        else:
            ready = lambda: any(out.poll() for _, out in self.lanes)
        abort = self.abort
        if self._lane_conds is None:  # the parent created every ring
            bells = [
                ins.space_bell if space else out.data_bell
                for ins, out in self.lanes
            ]
            return block_on_bells(ready, bells, timeout, abort)
        cond = self._lane_conds[space]
        with cond:
            cond.wait_for(lambda: ready() or abort.is_set(), timeout)
            return ready()

    # -- messaging ----------------------------------------------------------

    def send(self, w: int, msg) -> None:
        try:
            self._conns[w].send(msg)
        except OSError as exc:
            self.check_errors()
            raise PipelineRuntimeError(
                self._stage[w], RuntimeError("worker control pipe is closed")
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
        for w, worker in enumerate(self.workers):
            code = getattr(worker, "exitcode", None)
            if code:
                raise PipelineRuntimeError(
                    self._stage[w],
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
        group's completion count or step count moves, and raises when it
        passes.
        Meanwhile worker health is polled every 50 ms — this group's, or
        whatever ``watch()`` checks instead — so a dead or failed worker
        raises :class:`PipelineRuntimeError` instead of stalling out.  A
        worker that has exited with nothing buffered sent nothing before
        exiting — once ``send`` has returned, its message is visible to
        ``poll`` — so raising loses no messages.
        """
        conn = self._conns[w]
        buffered = self._rx_buf[w]
        s = self._stage[w]
        abort = self.abort
        progress = abort.completed.value + abort.steps.value
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
            moved = abort.completed.value + abort.steps.value
            if moved != progress:
                progress = moved
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
        self.lanes = []
        self.rings = []
        self._conns = []
        self._rx_buf = []
        if stuck and not failed:
            # only complain when no richer error is already propagating.
            # A straggling thread is a daemon that exits once its
            # in-flight op returns and it observes the abort flag.
            raise RuntimeError(f"pipeline workers failed to shut down: {stuck}")
