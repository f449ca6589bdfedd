"""The compiled plan (``Schedule.plan``): the one place tick semantics live.

The simulator interprets it, lockstep workers run its columns and the
occupancy grids render it, so its invariants are pinned here directly:
packetization, per-stage FIFO order, the eq.-5 in-flight bound that
makes barrier-free lockstep safe, flush totals, the tick count against
the closed form ``Schedule.drain_span``, and the grids against the
closed-form grid functions they replaced (kept below as the oracle).
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.models.simple import small_cnn
from repro.pipeline import (
    ConcurrentPipelineRunner,
    PipelineExecutor,
    fill_drain_occupancy,
    gpipe_occupancy,
    make_schedule,
    one_f_one_b_occupancy,
    pb_occupancy,
    stage_delay,
)
from repro.pipeline import runtime as runtime_module
from repro.pipeline.occupancy import Occupancy
from repro.pipeline.schedule import BWD, FLUSH, FWD, SET_LR

#: (mode, make_schedule kwargs): the four schedules, gpipe with and
#: without a tail micro-batch inside every batch (6 = 4 + 2)
CONFIGS = [
    ("pb", {}),
    ("1f1b", {}),
    ("fill_drain", dict(update_size=4)),
    ("gpipe", dict(update_size=8, micro_batch_size=4)),
    ("gpipe", dict(update_size=6, micro_batch_size=4)),
]
DEPTHS = (1, 2, 4, 7)
#: empty, one sample, a tail batch, several full batches
SIZES = (0, 1, 7, 24)


def _plan(mode, kw, n, S, lr_at=None):
    sched = make_schedule(mode, **kw)
    return sched, sched.plan(n, S, lr_at)


# -- the closed-form grid functions the plan replaced (the oracle) -----------


def _empty(S: int, T: int) -> Occupancy:
    return Occupancy(
        grid=np.zeros((S, T), dtype=np.int8),
        fwd_sample=np.full((S, T), -1, dtype=np.int64),
        bwd_sample=np.full((S, T), -1, dtype=np.int64),
    )


def _mark(occ: Occupancy, s: int, t_f: int, t_b: int, sid: int) -> None:
    occ.grid[s, t_f] |= FWD
    occ.fwd_sample[s, t_f] = sid
    occ.grid[s, t_b] |= BWD
    occ.bwd_sample[s, t_b] = sid


def oracle_pb(S: int, n: int) -> Occupancy:
    """Sample ``i``: ``F_s`` at ``i + s``, ``B_s`` at ``i + 2S-2-s``."""
    occ = _empty(S, n + 2 * S - 2)
    for i in range(n):
        for s in range(S):
            _mark(occ, s, i + s, i + 2 * S - 2 - s, i)
    return occ


def oracle_fill_drain(S: int, N: int, num_batches: int) -> Occupancy:
    """Each batch takes ``N + 2S - 2`` steps, back to back."""
    span = N + 2 * S - 2
    occ = _empty(S, span * num_batches)
    for b in range(num_batches):
        for i in range(N):
            for s in range(S):
                t0 = b * span + i
                _mark(occ, s, t0 + s, t0 + 2 * S - 2 - s, b * N + i)
    return occ


def _assert_same(got: Occupancy, want: Occupancy) -> None:
    assert np.array_equal(got.grid, want.grid)
    assert np.array_equal(got.fwd_sample, want.fwd_sample)
    assert np.array_equal(got.bwd_sample, want.bwd_sample)


# -- plan invariants ----------------------------------------------------------


@pytest.mark.parametrize("S", DEPTHS)
@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("mode,kw", CONFIGS)
class TestPlanInvariants:
    def test_every_sample_in_exactly_one_packet(self, mode, kw, n, S):
        sched, plan = _plan(mode, kw, n, S)
        covered = [i for start, size in plan.packets
                   for i in range(start, start + size)]
        assert covered == list(range(n))
        assert all(1 <= size <= sched.micro_batch
                   for _, size in plan.packets)

    def test_columns_keep_packet_order(self, mode, kw, n, S):
        _, plan = _plan(mode, kw, n, S)
        order = list(range(len(plan.packets)))
        for s in range(S):
            column = plan.column(s)
            assert [p for k, p in column if k == FWD] == order
            assert [p for k, p in column if k == BWD] == order

    def test_in_flight_within_eq5_bound(self, mode, kw, n, S):
        """At every tick, packets forwarded but not yet backwarded at
        stage ``s`` number at most ``D_s + 1``: the capacity argument
        that lets lockstep workers run without a barrier."""
        _, plan = _plan(mode, kw, n, S)
        in_flight = [0] * S
        for tick in plan.ticks:
            for kind, s, _ in tick:
                if kind == FWD:
                    in_flight[s] += 1
            for s in range(S):
                assert in_flight[s] <= stage_delay(s, S) + 1
            for kind, s, _ in tick:
                if kind == BWD:
                    in_flight[s] -= 1
        assert in_flight == [0] * S

    def test_loss_backward_shares_its_forward_tick(self, mode, kw, n, S):
        _, plan = _plan(mode, kw, n, S)
        for tick in plan.ticks:
            fwd = [p for k, s, p in tick if k == FWD and s == S - 1]
            bwd = [p for k, s, p in tick if k == BWD and s == S - 1]
            assert fwd == bwd

    def test_flushes_sum_to_the_stream(self, mode, kw, n, S):
        sched, plan = _plan(mode, kw, n, S)
        flushes = [c for tick in plan.ticks for k, _, c in tick
                   if k == FLUSH]
        if sched.update_after_backward(0):
            assert flushes == []
        else:
            assert sum(flushes) == n
            assert all(c <= sched.update_size for c in flushes)

    def test_ticks_equal_drain_span(self, mode, kw, n, S):
        sched, plan = _plan(mode, kw, n, S)
        assert len(plan.ticks) == sched.drain_span(n, S)


@pytest.mark.parametrize("S", (2, 3, 4, 7))
@pytest.mark.parametrize("mode", ("pb", "1f1b"))
def test_drain_span_of_an_empty_stream_is_zero(mode, S):
    assert make_schedule(mode).drain_span(0, S) == 0


def test_set_lr_on_first_tick_and_on_change():
    """``lr_at`` is evaluated after every tick; SET_LR is emitted on the
    first tick and whenever the value changes, to every stage."""
    _, plan = _plan("pb", {}, 6, 3, lr_at=lambda done: 0.1 if done < 3 else 0.05)
    lrs = [(t, lr) for t, tick in enumerate(plan.ticks)
           for k, s, lr in tick if k == SET_LR]
    # sample k completes at tick k + 2S - 2 = k + 4
    assert lrs == [(0, 0.1), (6, 0.05)]
    for s in range(3):
        assert [a for k, a in plan.column(s) if k == SET_LR] == [0.1, 0.05]


# -- occupancy: rendered from the plan, equal to the closed forms ------------


class TestOccupancyFromPlan:
    @pytest.mark.parametrize("S", DEPTHS)
    @pytest.mark.parametrize("n", (1, 7, 24))
    def test_pb_and_1f1b(self, S, n):
        want = oracle_pb(S, n)
        _assert_same(pb_occupancy(S, n), want)
        _assert_same(one_f_one_b_occupancy(S, n), want)
        _assert_same(Occupancy.from_plan(_plan("pb", {}, n, S)[1]), want)

    @pytest.mark.parametrize("S", DEPTHS)
    @pytest.mark.parametrize("N,batches", ((1, 3), (4, 1), (4, 3)))
    def test_fill_drain(self, S, N, batches):
        want = oracle_fill_drain(S, N, batches)
        _assert_same(fill_drain_occupancy(S, N, num_batches=batches), want)
        plan = _plan("fill_drain", dict(update_size=N), N * batches, S)[1]
        _assert_same(Occupancy.from_plan(plan), want)

    @pytest.mark.parametrize("S", DEPTHS)
    @pytest.mark.parametrize("M,B,batches", ((2, 4, 2), (3, 2, 3), (1, 4, 2)))
    def test_gpipe_at_micro_batch_granularity(self, S, M, B, batches):
        """A gpipe plan's cells are packets: the fill-and-drain grid with
        ``M`` packets per mini-batch."""
        want = oracle_fill_drain(S, M, batches)
        _assert_same(gpipe_occupancy(S, M, num_batches=batches), want)
        kw = dict(update_size=M * B, micro_batch_size=B)
        plan = _plan("gpipe", kw, M * B * batches, S)[1]
        _assert_same(Occupancy.from_plan(plan), want)

    def test_empty_stream_has_no_columns(self):
        assert pb_occupancy(4, 0).time_steps == 0


# -- lockstep without a barrier ------------------------------------------------


@pytest.mark.concurrency(timeout=120)
def test_lockstep_stage0_runs_ahead_of_a_slow_last_stage(monkeypatch):
    """Thread-hosted lockstep workers run their columns with no per-tick
    barrier: while the last stage sleeps in its first backward, stage 0
    forwards packets whose ticks come after it.  The result stays
    hex-identical to the simulator."""
    rng = np.random.default_rng(5)
    n = 10
    X = rng.normal(size=(n, 3, 8, 8))
    Y = rng.integers(0, 4, size=n)
    kw = dict(lr=0.05, momentum=0.9, mode="pb")
    sim = PipelineExecutor(small_cnn(num_classes=4, seed=3), **kw).train(X, Y)
    runner = ConcurrentPipelineRunner(
        small_cnn(num_classes=4, seed=3), lockstep=True, **kw
    )
    S = runner.num_stages
    # one stage per worker on any host: a single group could not run ahead
    monkeypatch.setattr(runtime_module, "usable_cpus", lambda: S)
    first, last = runner.stages[0], runner.stages[S - 1]
    forward, backward = first.forward, last.backward
    fwd_done: dict[int, float] = {}
    slow_done: list[float] = []
    lock = threading.Lock()

    def timed_forward(pid, payload, train=True):
        out = forward(pid, payload, train)
        with lock:
            fwd_done[pid] = time.monotonic()
        return out

    def slow_backward(pid, grads):
        if pid == 0:
            time.sleep(0.5)
        out = backward(pid, grads)
        if pid == 0:
            slow_done.append(time.monotonic())
        return out

    first.forward = timed_forward
    last.backward = slow_backward
    stats = runner.train(X, Y)
    # packet 0's last-stage backward runs at tick S - 1; with a barrier
    # stage 0's forward of packet S (tick S) would start after it ended
    assert fwd_done[S] < slow_done[0]
    assert [float(v).hex() for v in stats.losses] == [
        float(v).hex() for v in sim.losses
    ]
    assert stats.time_steps == sim.time_steps
