"""Doorbell wake-ups: nothing in the process host or the serving path
sleeps, and nothing that blocks can miss its wake-up.

The shared-memory rings carry two doorbells (non-blocking pipes, see
``transport.py`` "Doorbells"); a waiter blocks in ``select`` on its bell
and the peer rings it after publishing.  These tests pin the failure
surface that buys: a lost wake-up, a worker killed while parked in its
wait, the abort flag reaching blocked waiters, fds leaking across
open/close, bells surviving the pickle into a spawned peer — and the
``wait_seconds`` / ``wakeups`` counters that make the saving visible.

The safety-net timeout every block carries would paper over a lost
wake-up in 50 ms; the tests that look for one patch it to seconds, so
the only thing that can end a wait in time is the bell.
"""

from __future__ import annotations

import ast
import gc
import multiprocessing as mp
import os
import signal
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.models.simple import mlp
from repro.pipeline import (
    PipelineExecutor,
    PipelineRuntimeError,
    ProcessPipelineRunner,
)
from repro.pipeline import inference, runtime, transport, worker
from repro.pipeline.executor import PipelineRunStats, StageCounters
from repro.pipeline.inference import open_inference_stream
from repro.pipeline.schedule import BWD
from repro.pipeline.transport import (
    ArraySpec,
    ShmRing,
    TransportAborted,
)
from repro.pipeline.worker import WorkerGroup, _SharedAbort

pytestmark = pytest.mark.concurrency(timeout=60)

FEATURES = 16
LAYOUT = (ArraySpec((1, 4), "float64"),)


def _model():
    return mlp(FEATURES, 4, hidden=(8,), seed=3)  # 4 stages, 3 workers


def _stages():
    return PipelineExecutor(_model(), lr=0.05).stages


def _open_fds() -> int:
    gc.collect()  # pipes and process sentinels close with their objects
    return len(os.listdir("/proc/self/fd"))


def _shm_segments() -> set:
    return set(os.listdir("/dev/shm"))


needs_proc = pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd") or not os.path.isdir("/dev/shm"),
    reason="needs /proc and /dev/shm to count fds and segments",
)


@pytest.fixture
def slow_safety_net(monkeypatch):
    """Only a bell can end a wait in time (forked peers inherit it)."""
    monkeypatch.setattr(transport, "WAIT_SAFETY_NET", 5.0)


@pytest.fixture
def rings():
    made = []

    def make(label: str, slots: int) -> ShmRing:
        made.append(ShmRing.create(label, LAYOUT, slots))
        return made[-1]

    yield make
    for ring in made:
        ring.close()
        ring.unlink()


# ---------------------------------------------------------------------------
# peers (module level: a spawned child imports them by name)
# ---------------------------------------------------------------------------


def _echo(ping: ShmRing, pong: ShmRing, count: int) -> None:
    for _ in range(count):
        pid, start, size, views = ping.recv(30.0)
        pong.send(pid, start, size, views, 30.0)
        ping.release()


def _pauses(n: int, seed: int) -> np.ndarray:
    """Seeded micro-pauses: busy-loop iterations before each operation,
    zero for nine in ten (so both sides keep running into each other)."""
    rng = np.random.default_rng(seed)
    spins = rng.integers(0, 400, size=n)
    spins[rng.random(n) > 0.1] = 0
    return spins


def _consume(ring: ShmRing, count: int, seed: int) -> None:
    """Exit 0 iff every packet arrived, in order, intact."""
    ok = True
    for k, spins in enumerate(_pauses(count, seed).tolist()):
        for _ in range(spins):
            pass
        pid, _start, _size, views = ring.recv(30.0)
        ok &= pid == k and views[0][0, 0] == k
        ring.release()
    os._exit(0 if ok else 1)


def _block_in(op: str, ring: ShmRing, abort) -> None:
    """Exit 0 iff the blocked ring operation ends in TransportAborted."""
    try:
        if op == "recv":
            ring.recv(30.0, abort=abort)
        else:
            ring.send(9, 9, 1, [np.zeros((1, 4))], 30.0, abort)
    except TransportAborted:
        os._exit(0)
    os._exit(1)


# ---------------------------------------------------------------------------
# the bell protocol
# ---------------------------------------------------------------------------


class TestBellProtocol:
    def test_no_lost_wakeup_over_a_two_slot_ring(self, rings, slow_safety_net):
        """50 000 packets through 2 slots, both sides pausing at seeded
        random points: producer and consumer block on each other
        constantly, and one lost wake-up costs the whole budget."""
        n = 50_000
        ring = rings("lost-wake", 2)
        peer = mp.get_context("fork").Process(
            target=_consume, args=(ring, n, 1), daemon=True
        )
        payload = [np.zeros((1, 4))]
        t0 = time.perf_counter()
        peer.start()
        for k, spins in enumerate(_pauses(n, 2).tolist()):
            for _ in range(spins):
                pass
            payload[0][0, 0] = k
            ring.send(k, k, 1, payload, 30.0)
        peer.join(30.0)
        elapsed = time.perf_counter() - t0
        assert peer.exitcode == 0
        assert elapsed < 5.0, f"a wake-up was lost: exchange took {elapsed:.2f}s"

    @pytest.mark.parametrize("fenced", [False, True])
    def test_bells_survive_the_pickle_into_a_spawned_peer(
        self, rings, monkeypatch, fenced
    ):
        """The perf probe's shape: both rings reach a *spawned* peer
        through ``ShmRing.__reduce__``.  Without its bells the peer
        cannot ring and every hop costs the safety-net timeout."""
        if fenced:
            monkeypatch.setenv("REPRO_SHM_FENCE", "1")
        ping, pong = rings("ping", 4), rings("pong", 4)
        assert (ping._fence is not None) == fenced
        trips, warm = 200, 20
        peer = mp.get_context("spawn").Process(
            target=_echo, args=(ping, pong, trips + warm), daemon=True
        )
        peer.start()
        payload = [np.ones((1, 4))]
        half_rtt = []
        for k in range(trips + warm):
            t0 = time.perf_counter()
            ping.send(k, k, 1, payload, 30.0)
            assert pong.recv(30.0)[0] == k
            pong.release()
            if k >= warm:
                half_rtt.append((time.perf_counter() - t0) / 2.0)
        peer.join(30.0)
        assert peer.exitcode == 0
        assert np.median(half_rtt) < 1e-3

    def test_bare_attach_has_no_bells_and_stays_correct(self, rings):
        """A ring attached from its descriptor alone cannot ring or be
        rung; both sides then re-check on the safety net — slow, right."""
        ring = rings("bare", 1)
        bare = ShmRing.attach(ring.descriptor)
        payload = [np.zeros((1, 4))]
        try:
            assert bare.data_bell is None and bare.space_bell is None
            # the bare consumer waits for data no bell announces to it
            late = threading.Timer(0.02, ring.send, (0, 0, 1, payload, 1.0))
            late.start()
            assert bare.recv(1.0)[0] == 0
            late.join()
            # the producer waits for a slot the bare consumer cannot ring
            late = threading.Timer(0.02, bare.release)
            late.start()
            ring.send(1, 1, 1, payload, 1.0)
            late.join()
            assert bare.recv(1.0)[0] == 1
        finally:
            bare.close()

    @pytest.mark.parametrize("op", ["recv", "send"])
    def test_abort_releases_a_blocked_waiter(self, rings, slow_safety_net, op):
        ring = rings(f"abort-{op}", 1)
        if op == "send":
            ring.send(0, 0, 1, [np.zeros((1, 4))], 1.0)  # full
        ctx = mp.get_context("fork")
        abort = _SharedAbort(ctx)
        peer = ctx.Process(target=_block_in, args=(op, ring, abort), daemon=True)
        try:
            peer.start()
            time.sleep(0.3)  # parked in its wait by now
            assert peer.is_alive()
            t0 = time.perf_counter()
            abort.set()
            peer.join(5.0)
            elapsed = time.perf_counter() - t0
        finally:
            abort.close()
        assert peer.exitcode == 0
        assert elapsed < 0.1, f"abort took {elapsed * 1e3:.0f} ms to land"


# ---------------------------------------------------------------------------
# workers parked in their wait
# ---------------------------------------------------------------------------


def _x(n: int, seed: int = 0) -> np.ndarray:
    return np.random.default_rng(seed).normal(size=(n, FEATURES))


class TestParkedWorkers:
    @needs_proc
    def test_sigkill_of_a_parked_worker(self, slow_safety_net):
        """Every worker's ops are one backward that never comes, so
        every worker sits in its idle wait.  Killing one must surface as
        that stage's error within the stall timeout — while the parent
        waits for stage 0's reply — release the siblings, leak nothing,
        and leave the interpreter able to run the next pipeline."""
        fds, shm = _open_fds(), _shm_segments()
        stall = 5.0
        group = WorkerGroup(
            _stages(), np.zeros((1, FEATURES)), processes=True,
            name="parked", stall_timeout=stall,
            plan=[[(BWD, s, 0)] for s in range(4)],
            batch=([], np.zeros(4, dtype=int)),
        )
        procs = list(group.workers)
        try:
            time.sleep(0.3)
            assert all(p.is_alive() for p in procs)
            os.kill(procs[1].pid, signal.SIGKILL)
            t0 = time.perf_counter()
            with pytest.raises(PipelineRuntimeError) as err:
                group.recv(0, "state")
            assert err.value.stage_index == 1
            assert time.perf_counter() - t0 < stall
        finally:
            t0 = time.perf_counter()
            group.teardown(failed=True)
            torn_down = time.perf_counter() - t0
        assert not any(p.is_alive() for p in procs)
        # the siblings left on the abort bell, not on a terminate()
        assert [p.exitcode for p in procs] == [0, -signal.SIGKILL, 0, 0]
        assert torn_down < 1.0
        del err, group, procs
        assert _open_fds() == fds
        assert _shm_segments() == shm

        X, Y = _x(8), np.arange(8) % 4
        runner = ProcessPipelineRunner(_model(), lr=0.05, stall_timeout=30.0)
        assert np.isfinite(runner.train(X, Y).losses).all()

    @needs_proc
    def test_failed_launch_leaks_nothing(self, monkeypatch):
        fds, shm = _open_fds(), _shm_segments()
        real, built = worker._WorkerSpec, []

        def spec(**kwargs):
            if len(built) == 2:
                raise RuntimeError("launch failed midway")
            built.append(real(**kwargs))
            return built[-1]

        monkeypatch.setattr(worker, "_WorkerSpec", spec)
        with pytest.raises(RuntimeError, match="launch failed midway"):
            WorkerGroup(
                _stages(), np.zeros((1, FEATURES)), processes=True,
                name="doomed", stall_timeout=5.0,
                batch=([], np.zeros(4, dtype=int)),
            )
        built.clear()
        assert _open_fds() == fds
        assert _shm_segments() == shm

    @needs_proc
    def test_open_close_leaks_no_fd_and_no_segment(self):
        stages = _stages()
        x = _x(1)

        def cycle():
            with open_inference_stream(
                stages, backend="process", sample_shape=(FEATURES,)
            ) as stream:
                assert stream.submit(0, 0, x)
                while not stream.wait(5.0):
                    pass
                assert len(stream.poll()) == 1

        cycle()  # first-use allocations (multiprocessing's heap arena)
        fds, shm = _open_fds(), _shm_segments()
        for _ in range(50):
            cycle()
        assert _open_fds() == fds
        assert _shm_segments() == shm


# ---------------------------------------------------------------------------
# wait counters
# ---------------------------------------------------------------------------


class TestWaitCounters:
    @pytest.mark.parametrize("backend", ["threaded", "process"])
    def test_idle_stream_wakes_once_per_packet(self, backend, monkeypatch):
        """Two packets every 5 ms through an otherwise idle two-lane
        stream (the second finds the first's lane busy and takes the
        other): a lane is woken for its packets and little else, and its
        time is accounted for — busy in its stages, blocked, or handing
        packets on.  A lane's
        own counts (waits, wake-ups, placement) sit on its first
        stage's counters."""
        monkeypatch.setattr(inference, "usable_cpus", lambda: 2)
        packets = 100
        X = _x(2 * packets, seed=4)
        gc.collect()
        gc.disable()  # a collection pause is neither busy nor blocked
        try:
            stream = open_inference_stream(
                _stages(), backend=backend, sample_shape=(FEATURES,)
            )
            t0 = time.perf_counter()
            got = 0
            for k in range(0, 2 * packets, 2):
                for i in (k, k + 1):
                    while not stream.submit(i, i, X[i : i + 1]):
                        stream.wait(1.0, space=True)
                # the next pair waits 5 ms from now, not from a
                # schedule: a host stall must not turn into a burst
                resume = time.perf_counter() + 0.005
                while (left := resume - time.perf_counter()) > 0:
                    if stream.wait(left):
                        got += len(stream.poll())
            while got < 2 * packets:
                stream.wait(1.0)
                got += len(stream.poll())
            lifetime = time.perf_counter() - t0
            stream.close()
        finally:
            gc.enable()
        # the loss slot has no worker: a lane runs every other stage
        n = len(stream.counters) - 1
        placement = stream.placement()
        assert sum(lane["packets"] for lane in placement) == 2 * packets
        for lane, counters in zip(placement, stream.lane_counters):
            c, sent = counters[0], lane["packets"]
            assert [m.forward_ops for m in counters] == [sent] * n
            assert 0 < c.wakeups <= 2 * sent, (sent, c)
            busy = sum(m.busy_seconds for m in counters)
            assert busy + c.wait_seconds + c.handoff_seconds == pytest.approx(
                lifetime, rel=0.10
            ), c
            if backend == "process":
                assert c.voluntary_switches >= sent // 2
                assert c.cpus == (lane["cpu"],)
            else:
                assert (c.voluntary_switches, c.cpus) == (0, ())

    @pytest.mark.parametrize("backend", ["threaded", "process"])
    def test_one_wait_covers_every_lane(
        self, backend, monkeypatch, slow_safety_net
    ):
        """The parent's wait spans every lane: a result that lands on
        the second lane while the parent is already blocked ends the
        wait at once, not on a timeout or the safety net."""
        monkeypatch.setattr(inference, "usable_cpus", lambda: 2)
        stages = _stages()
        forward = stages[0].forward

        def slow_second_packet(pid, payload, train=True):
            if pid == 1:
                time.sleep(0.3)
            return forward(pid, payload, train)

        # before the open: a forked lane inherits the shadow
        stages[0].forward = slow_second_packet
        stream = open_inference_stream(
            stages, backend=backend, sample_shape=(FEATURES,)
        )
        got = []
        try:
            t0 = time.perf_counter()
            assert stream.submit(0, 0, _x(1)) and stream.submit(1, 1, _x(1))
            assert [lane["packets"] for lane in stream.placement()] == [1, 1]
            while len(got) < 2:
                assert stream.wait(5.0)
                got += stream.poll()
            elapsed = time.perf_counter() - t0
        finally:
            stream.close()
        assert sorted(pid for pid, _, _ in got) == [0, 1]
        assert elapsed < 2.0, f"the second lane's result took {elapsed:.2f}s"

    def test_lane_reads_its_control_endpoint_only_when_idle(
        self, monkeypatch
    ):
        """A lane reads its control endpoint where it would block and
        before it honours abort, not once per packet (on a process host
        each read builds a selector): ``n`` packets queued behind a
        gated first one are served with no read between them.  Closed
        with packets still queued, the stream still gets the lane's
        counters back."""
        monkeypatch.setattr(inference, "usable_cpus", lambda: 1)
        n = 16
        started = [0]  # forwards begun when the lane read its endpoint
        reads: list[int] = []
        poll = worker.LocalConn.poll

        def counted(conn, *args, **kwargs):
            if threading.current_thread().name.startswith("infer-stage-"):
                reads.append(started[0])
            return poll(conn, *args, **kwargs)

        monkeypatch.setattr(worker.LocalConn, "poll", counted)
        stages = _stages()
        stream = open_inference_stream(
            stages, backend="threaded", sample_shape=(FEATURES,),
            capacity=2 * n,
        )
        gate, entered = threading.Event(), threading.Event()
        forward = stages[0].forward

        def gated(pid, payload, train=True):
            started[0] += 1
            entered.set()
            gate.wait(10.0)
            return forward(pid, payload, train)

        # armed after the open, whose layout probe calls forward too
        stages[0].forward = gated
        X = _x(2 * n)
        try:
            for i in range(n):
                assert stream.submit(i, i, X[i : i + 1])
            gate.set()
            got = []
            while len(got) < n:
                assert stream.wait(5.0)
                got += stream.poll()
            assert reads and not [r for r in reads if 0 < r < n], reads
            # now close with packets queued behind a gated one
            gate.clear()
            entered.clear()
            for i in range(n, 2 * n):
                assert stream.submit(i, i, X[i : i + 1])
            assert entered.wait(5.0)
            threading.Timer(0.2, gate.set).start()
        finally:
            stream.close()
        (lane,) = stream.lane_counters
        assert n < lane[0].forward_ops < 2 * n, lane[0]

    def test_training_workers_account_their_waits(self, monkeypatch):
        X, Y = _x(16, seed=7), np.arange(16) % 4
        # lockstep: two stage groups on any host (one group alone never
        # waits); free-running: one worker per stage, a CPU each
        for lockstep, cpus in ((True, 2), (False, _model().num_stages)):
            monkeypatch.setattr(runtime, "usable_cpus", lambda: cpus)
            stats = ProcessPipelineRunner(
                _model(), lr=0.05, lockstep=lockstep, stall_timeout=30.0
            ).train(X, Y)
            # a worker's waits sit on its first stage's counters
            for group in stats.control["groups"]:
                c = stats.stages[group[0]]
                busy = sum(stats.stages[s].busy_seconds for s in group)
                assert c.wakeups > 0 and c.wait_seconds > 0.0
                spent = busy + c.wait_seconds + c.handoff_seconds
                assert spent <= stats.wall_seconds + 1.0

    def test_replica_merge_sums_waits(self):
        def part(wait, wakeups, cpus):
            return PipelineRunStats(
                stages=[
                    StageCounters(
                        index=0, forward_ops=2, busy_seconds=0.5,
                        wait_seconds=wait, wakeups=wakeups,
                        voluntary_switches=wakeups, cpus=cpus,
                    )
                ],
                time_steps=4, losses=np.zeros(2), backend="process",
            )

        merged = PipelineRunStats.merge_replicas(
            [part(1.0, 3, (0,)), part(2.0, 4, (0, 1))], np.zeros(4)
        ).stages[0]
        assert (merged.forward_ops, merged.busy_seconds) == (4, 1.0)
        assert (merged.wait_seconds, merged.wakeups) == (3.0, 7)
        assert (merged.voluntary_switches, merged.cpus) == (7, (0, 1))


# ---------------------------------------------------------------------------
# the guard
# ---------------------------------------------------------------------------


SLEEP_FREE = (
    "pipeline/worker.py",
    "pipeline/transport.py",
    "pipeline/inference.py",
    "pipeline/runtime.py",
    "serve/server.py",
)


@pytest.mark.parametrize("relpath", SLEEP_FREE)
def test_no_sleep_call_remains(relpath):
    """Every wait in these files blocks on something that is signalled;
    a ``time.sleep`` creeping back in is a poll loop creeping back in."""
    source = Path(repro.__file__).parent / relpath
    tree = ast.parse(source.read_text())
    sleeps = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (
            (isinstance(node.func, ast.Attribute) and node.func.attr == "sleep")
            or (isinstance(node.func, ast.Name) and node.func.id == "sleep")
        )
    ]
    assert not sleeps, f"{relpath}: time.sleep at lines {sleeps}"
