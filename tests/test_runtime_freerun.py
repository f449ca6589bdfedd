"""Semantic properties of the free-running threaded runtime.

Without the lockstep barrier the pb/1f1b trajectories depend on thread
timing, so bit-exactness is off the table; what the runtime *does*
guarantee — and what these tests pin — is:

* **eq. 5 as an inequality.**  The per-stage in-flight cap
  (``D_s + 1`` packets, PipeDream's bound) means the forward pass of
  sample ``i`` at stage ``s`` sees at least ``max(0, i - 2(S-1-s))``
  and at most ``i`` updates: never *staler* than the discrete-time
  model, possibly fresher.  Backward still sees exactly ``i`` updates
  (per-gradient schedules update once per backward, FIFO).
* **occupancy accounting.**  The measured run record's busy-step
  counts per stage equal the modeled occupancy-grid row totals of
  :mod:`repro.pipeline.occupancy` — the wall-clock runtime does exactly
  the work the paper's timing model says it does, no more, no less.
* **synchronous schedules stay exact.**  fill_drain/gpipe apply their
  averaged update only after the batch fully drains, when the pipeline
  is empty — so their update math is identical to sequential mini-batch
  SGDM even free-running (only mid-flight loss *logging* could differ,
  and with batch-gated injection it does not).
* **one protocol.**  Free-running workers run their plan column like
  lockstep ones: an LR schedule governs from the first op, every op
  runs under the simulator's learning rate, and the parent sends a
  training worker nothing — on both hosts.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.models.simple import small_cnn
from repro.optim import SGDM
from repro.pipeline import (
    ConcurrentPipelineRunner,
    PipelineExecutor,
    make_pipeline_engine,
)
from repro.pipeline.worker import WorkerGroup
from repro.pipeline.occupancy import (
    BWD,
    FWD,
    fill_drain_occupancy,
    gpipe_occupancy,
    pb_occupancy,
)
from repro.tensor import Tensor, cross_entropy

pytestmark = pytest.mark.concurrency


def _stream(n: int, seed: int = 3):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, 3, 8, 8)), rng.integers(0, 10, size=n)


def max_param_diff(m1, m2):
    return max(
        float(np.abs(a.data - b.data).max())
        for a, b in zip(m1.parameters(), m2.parameters())
    )


class TestEq5Inequality:
    @pytest.mark.parametrize("jitter_seed", [0, 1, 2])
    @pytest.mark.parametrize("mode", ["pb", "1f1b"])
    def test_forward_lag_bounded_by_pipeline_delay(
        self, mode, jitter_seed, jittered
    ):
        """max(0, i - 2(S-1-s)) <= v_fwd(i) <= i at every compute stage,
        under randomized worker interleavings."""
        n = 24
        X, Y = _stream(n)
        m = small_cnn(seed=5)
        runner = jittered(
            ConcurrentPipelineRunner(
                m, lr=0.01, momentum=0.9, mode=mode, lockstep=False,
                record_versions=True,
            ),
            0.001, jitter_seed,
        )
        runner.train(X, Y)
        S = m.num_stages
        for s, stage in enumerate(runner.stages):
            if stage.spec.kind != "compute":
                continue
            D = 2 * (S - 1 - s)
            assert len(stage.version_trace) == n
            for sid, v_fwd, v_bwd in stage.version_trace:
                assert max(0, sid - D) <= v_fwd <= sid, (
                    f"stage {s}: sample {sid} saw version {v_fwd}, "
                    f"outside [{max(0, sid - D)}, {sid}]"
                )
                # per-gradient schedules: backward of sample i is always
                # the (i+1)-th event at the stage, so it sees i updates
                assert v_bwd == sid

    def test_last_stage_has_zero_lag(self):
        """D_{S-1} = 0: the stage before the loss is always current —
        the in-flight cap forces strict alternation there."""
        n = 16
        X, Y = _stream(n)
        m = small_cnn(seed=5)
        runner = ConcurrentPipelineRunner(
            m, lr=0.01, momentum=0.9, mode="pb", lockstep=False,
            record_versions=True,
        )
        runner.train(X, Y)
        compute = [st for st in runner.stages if st.spec.kind == "compute"]
        # small_cnn's last compute stage is followed only by zero-delay
        # pool/fc/loss plumbing; check the deepest *parametrized* stage
        # whose delay is smallest
        deepest = compute[-1]
        D = deepest.delay
        for sid, v_fwd, _ in deepest.version_trace:
            assert v_fwd >= max(0, sid - D)


class TestOccupancyAccounting:
    def test_pb_busy_steps_match_occupancy_rows(self):
        n = 20
        X, Y = _stream(n)
        m = small_cnn(seed=5)
        runner = ConcurrentPipelineRunner(m, lr=0.01, mode="pb",
                                          lockstep=False)
        stats = runner.train(X, Y)
        occ = pb_occupancy(m.num_stages, n)
        for s, st in enumerate(stats.stages):
            assert st.forward_ops == int(
                np.count_nonzero(occ.grid[s] & FWD)
            )
            assert st.backward_ops == int(
                np.count_nonzero(occ.grid[s] & BWD)
            )

    def test_gpipe_busy_steps_match_occupancy_rows(self):
        """Micro-batch granularity: the runtime's packet ops equal the
        grid's micro-batch cells."""
        n, N, B = 16, 8, 4
        X, Y = _stream(n)
        m = small_cnn(seed=5)
        runner = ConcurrentPipelineRunner(
            m, lr=0.01, mode="gpipe", update_size=N, micro_batch_size=B,
            lockstep=False,
        )
        stats = runner.train(X, Y)
        occ = gpipe_occupancy(m.num_stages, N // B, num_batches=n // N)
        for s, st in enumerate(stats.stages):
            assert st.forward_ops == int(
                np.count_nonzero(occ.grid[s] & FWD)
            )
            assert st.backward_ops == int(
                np.count_nonzero(occ.grid[s] & BWD)
            )

    def test_fill_drain_busy_steps_match_occupancy_rows(self):
        n, N = 12, 4
        X, Y = _stream(n)
        m = small_cnn(seed=5)
        runner = ConcurrentPipelineRunner(
            m, lr=0.01, mode="fill_drain", update_size=N, lockstep=False
        )
        stats = runner.train(X, Y)
        occ = fill_drain_occupancy(m.num_stages, N, num_batches=n // N)
        for s, st in enumerate(stats.stages):
            assert st.forward_ops == int(
                np.count_nonzero(occ.grid[s] & FWD)
            )
            assert st.backward_ops == int(
                np.count_nonzero(occ.grid[s] & BWD)
            )

    def test_runtime_stats_shape(self):
        n = 10
        X, Y = _stream(n)
        m = small_cnn(seed=5)
        runner = ConcurrentPipelineRunner(m, lr=0.01, mode="pb",
                                          lockstep=False)
        stats = runner.train(X, Y)
        rt = stats
        assert rt.mode == "free_running"
        assert len(rt.stages) == m.num_stages
        assert rt.wall_seconds > 0.0
        assert rt.busy_seconds > 0.0
        for s in range(m.num_stages):
            assert 0.0 <= rt.busy_fraction(s) <= 1.0
            assert rt.idle_seconds(s) >= 0.0
        rows = rt.summary_rows()
        assert len(rows) == m.num_stages
        assert {"stage", "fwd_ops", "bwd_ops", "busy_s", "busy_frac"} <= set(
            rows[0]
        )


class TestSynchronousSchedulesStayExact:
    @pytest.mark.parametrize("jitter_seed", [0, 1])
    def test_free_gpipe_equals_sequential_sgdm(self, jitter_seed, jittered):
        n, N, B = 16, 8, 4
        X, Y = _stream(n)
        m1, m2 = small_cnn(seed=5), small_cnn(seed=5)
        jittered(
            ConcurrentPipelineRunner(
                m1, lr=0.05, momentum=0.9, weight_decay=1e-4, mode="gpipe",
                update_size=N, micro_batch_size=B, lockstep=False,
            ),
            0.001, jitter_seed,
        ).train(X, Y)
        ref = SGDM(m2.parameters(), lr=0.05, momentum=0.9, weight_decay=1e-4)
        for b in range(n // N):
            loss = cross_entropy(
                m2(Tensor(X[b * N : (b + 1) * N])), Y[b * N : (b + 1) * N]
            )
            ref.zero_grad()
            loss.backward()
            ref.step()
        assert max_param_diff(m1, m2) < 1e-8

    def test_free_fill_drain_tail_batch(self):
        """n not divisible by N: the tail still averages over its own
        size when free-running."""
        n, N = 10, 4
        X, Y = _stream(n)
        m1, m2 = small_cnn(seed=7), small_cnn(seed=7)
        ConcurrentPipelineRunner(
            m1, lr=0.05, momentum=0.9, mode="fill_drain", update_size=N,
            lockstep=False,
        ).train(X, Y)
        ref = SGDM(m2.parameters(), lr=0.05, momentum=0.9)
        for start in range(0, n, N):
            xb, yb = X[start : start + N], Y[start : start + N]
            loss = cross_entropy(m2(Tensor(xb)), yb)
            ref.zero_grad()
            loss.backward()
            ref.step()
        assert max_param_diff(m1, m2) < 1e-10

    def test_free_gpipe_losses_bit_match_simulator(self):
        """With batch-gated injection the synchronous schedules compute
        every loss on fully-flushed weights, so even the recorded losses
        are reproducible free-running."""
        from repro.pipeline import PipelineExecutor

        n, N, B = 16, 8, 4
        X, Y = _stream(n)
        m1, m2 = small_cnn(seed=5), small_cnn(seed=5)
        sim = PipelineExecutor(
            m1, lr=0.05, momentum=0.9, mode="gpipe", update_size=N,
            micro_batch_size=B,
        ).train(X, Y)
        free = ConcurrentPipelineRunner(
            m2, lr=0.05, momentum=0.9, mode="gpipe", update_size=N,
            micro_batch_size=B, lockstep=False,
        ).train(X, Y)
        assert np.array_equal(sim.losses, free.losses)


class TestModeledTimeSteps:
    def test_free_running_reports_drain_span(self):
        """Free-running has no global clock; ``time_steps`` reports the
        modeled span (identical to what lockstep measures) so
        utilization stays comparable across engines."""
        from repro.pipeline import make_schedule

        n = 14
        X, Y = _stream(n)
        m = small_cnn(seed=5)
        sched = make_schedule("pb")
        runner = ConcurrentPipelineRunner(m, lr=0.01, schedule=sched,
                                          lockstep=False)
        stats = runner.train(X, Y)
        assert stats.time_steps == sched.drain_span(n, m.num_stages)


def _lr_decay(done: int) -> float:
    return 0.05 / (1 + 0.1 * done)


def _hex(values) -> list[str]:
    return [float(v).hex() for v in values]


#: (runtime, lockstep): the simulator and lockstep hosts are the
#: reference the free-running hosts must agree with
ENGINES = [
    ("sim", True),
    ("threaded", True),
    ("process", True),
    ("threaded", False),
    ("process", False),
]


class TestLrScheduleFromFirstOp:
    @pytest.mark.parametrize("runtime,lockstep", ENGINES)
    @pytest.mark.parametrize("mode", ["pb", "1f1b"])
    def test_zero_lr_schedule_moves_no_parameter(self, mode, runtime, lockstep):
        """``lr_schedule`` is the learning rate of every update, the
        first included: a schedule pinned at zero (no momentum, no
        weight decay) leaves every parameter bit for bit where it was."""
        X, Y = _stream(12)
        m = small_cnn(widths=(4, 8), seed=5)
        before = [p.data.copy() for p in m.parameters()]
        make_pipeline_engine(
            runtime, m, lr=0.05, momentum=0.0, mode=mode, lockstep=lockstep,
            lr_schedule=lambda done: 0.0,
        ).train(X, Y)
        moved = [
            name
            for (name, p), old in zip(m.named_parameters(), before)
            if not np.array_equal(p.data, old)
        ]
        assert moved == [], f"{len(moved)}/{len(before)} moved: {moved}"


class TestOneProtocol:
    @pytest.mark.parametrize("runtime", ["threaded", "process"])
    def test_free_gpipe_lr_schedule_runs_the_plan(self, runtime, monkeypatch):
        """Free-running gpipe under an LR schedule: the parent sends
        nothing, receives one reply per worker and no ack, and losses,
        weights and each stage's final LR are the simulator's."""
        sent = []
        for name in ("send", "broadcast"):

            def spy(group, *args, _real=getattr(WorkerGroup, name)):
                sent.append(args[-1])
                return _real(group, *args)

            monkeypatch.setattr(WorkerGroup, name, spy)
        n = 12
        X, Y = _stream(n)
        kw = dict(
            lr=0.05, momentum=0.9, mode="gpipe", update_size=4,
            micro_batch_size=2, lr_schedule=_lr_decay,
        )
        m_sim, m_free = small_cnn(seed=5), small_cnn(seed=5)
        sim_engine = PipelineExecutor(m_sim, **kw)
        sim = sim_engine.train(X, Y)
        free_engine = make_pipeline_engine(
            runtime, m_free, lockstep=False, **kw
        )
        free = free_engine.train(X, Y)
        assert sent == []
        assert free.control["protocol"] == "plan"
        assert free.control["acks_received"] == 0
        assert free.control["msgs_received"] == free.num_stages
        assert free.time_steps == sim.time_steps
        assert _hex(free.losses) == _hex(sim.losses)
        for a, b in zip(m_sim.parameters(), m_free.parameters()):
            assert a.data.tobytes() == b.data.tobytes()
        assert _hex(st.lr for st in free_engine.stages) == _hex(
            st.lr for st in sim_engine.stages
        )
