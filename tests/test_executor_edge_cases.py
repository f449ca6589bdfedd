"""Executor edge cases: tail batches, single samples, repeated runs,
and the degenerate zero-sample / zero-step streams for every schedule."""

import numpy as np
import pytest

from repro.core import MitigationConfig
from repro.models import small_cnn
from repro.optim import SGDM
from repro.pipeline import (
    PipelineExecutor,
    PipelineRunStats,
    StageCounters,
    fill_drain_occupancy,
    gpipe_occupancy,
    make_pipeline_engine,
    one_f_one_b_occupancy,
    pb_occupancy,
)
from repro.pipeline.occupancy import BWD, FWD
from repro.serve import InferenceSession
from repro.tensor import Tensor, cross_entropy

#: Every schedule with its canonical kwargs (micro-batched gpipe wider
#: than some of the streams below, deliberately).
ALL_SCHEDULES = [
    ("pb", {}),
    ("1f1b", {}),
    ("fill_drain", dict(update_size=4)),
    ("gpipe", dict(update_size=4, micro_batch_size=4)),
]


def max_param_diff(m1, m2):
    return max(
        float(np.abs(a.data - b.data).max())
        for a, b in zip(m1.parameters(), m2.parameters())
    )


def _counters(index, ops, samples, busy=0.0):
    """One stage's counters with equal forward and backward work."""
    return StageCounters(
        index, forward_ops=ops, backward_ops=ops, forward_samples=samples,
        backward_samples=samples, busy_seconds=busy,
    )


class TestFillDrainTailBatch:
    def test_partial_final_batch_matches_reference(self, rng):
        """n not divisible by N: the tail batch must average over its own
        size, exactly as the reference does."""
        n, N = 10, 4  # batches of 4, 4, 2
        X = rng.normal(size=(n, 3, 8, 8))
        Y = rng.integers(0, 10, size=n)
        m1, m2 = small_cnn(seed=7), small_cnn(seed=7)
        PipelineExecutor(
            m1, lr=0.05, momentum=0.9, mode="fill_drain", update_size=N
        ).train(X, Y)
        ref = SGDM(m2.parameters(), lr=0.05, momentum=0.9)
        for start in range(0, n, N):
            xb, yb = X[start : start + N], Y[start : start + N]
            loss = cross_entropy(m2(Tensor(xb)), yb)
            ref.zero_grad()
            loss.backward()
            ref.step()
        assert max_param_diff(m1, m2) < 1e-10

    def test_update_size_larger_than_stream(self, rng):
        """A single batch smaller than update_size still drains/updates."""
        X = rng.normal(size=(3, 3, 8, 8))
        Y = rng.integers(0, 10, size=3)
        m = small_cnn(seed=7)
        ex = PipelineExecutor(
            m, lr=0.05, momentum=0.9, mode="fill_drain", update_size=8
        )
        stats = ex.train(X, Y)
        assert stats.samples == 3
        assert all(s.updates_applied == 1 for s in ex.stages)


class TestSmallStreams:
    def test_single_sample_pb(self, rng):
        X = rng.normal(size=(1, 3, 8, 8))
        Y = rng.integers(0, 10, size=1)
        m = small_cnn(seed=7)
        stats = PipelineExecutor(m, lr=0.05, mode="pb").train(X, Y)
        assert stats.samples == 1
        assert stats.time_steps == 1 + 2 * m.num_stages - 2
        assert np.isfinite(stats.losses[0])

    def test_consecutive_trains_continue_state(self, rng):
        """Calling train() twice equals one train() over the concatenated
        stream up to the pipeline boundary effects of draining between."""
        X = rng.normal(size=(8, 3, 8, 8))
        Y = rng.integers(0, 10, size=8)
        m = small_cnn(seed=7)
        ex = PipelineExecutor(m, lr=0.02, momentum=0.9, mode="pb")
        ex.train(X[:4], Y[:4])
        ex.train(X[4:], Y[4:])
        assert ex.samples_completed == 8
        assert all(s.updates_applied == 8 for s in ex.stages)

    def test_empty_stream(self, rng):
        m = small_cnn(seed=7)
        ex = PipelineExecutor(m, lr=0.05, mode="pb")
        stats = ex.train(
            np.zeros((0, 3, 8, 8)), np.zeros(0, dtype=int)
        )
        assert stats.samples == 0
        assert stats.time_steps == 0


class TestZeroStreamStats:
    """Regression pins for the degenerate streams: utilization and
    mean_loss must be *defined* (0.0 and NaN), not accidents of a 0/0
    or a fabricated one-step capacity."""

    @pytest.mark.parametrize("mode,kw", ALL_SCHEDULES)
    def test_empty_stream_every_schedule(self, mode, kw):
        m = small_cnn(seed=7)
        ex = PipelineExecutor(m, lr=0.05, mode=mode, **kw)
        stats = ex.train(np.zeros((0, 3, 8, 8)), np.zeros(0, dtype=int))
        assert stats.samples == 0
        assert stats.time_steps == 0
        assert stats.forward_ops == 0 and stats.backward_ops == 0
        assert stats.utilization == 0.0
        assert np.isnan(stats.mean_loss)
        assert stats.updates_per_stage == [0] * m.num_stages
        # weights untouched by a run that saw no data
        ref = small_cnn(seed=7)
        assert max_param_diff(m, ref) == 0.0

    @pytest.mark.parametrize("mode,kw", ALL_SCHEDULES)
    def test_single_sample_every_schedule(self, rng, mode, kw):
        X = rng.normal(size=(1, 3, 8, 8))
        Y = rng.integers(0, 10, size=1)
        m = small_cnn(seed=7)
        ex = PipelineExecutor(m, lr=0.05, momentum=0.9, mode=mode, **kw)
        stats = ex.train(X, Y)
        assert stats.samples == 1
        assert np.isfinite(stats.losses[0])
        assert stats.mean_loss == pytest.approx(float(stats.losses[0]))
        assert 0.0 < stats.utilization <= 1.0
        assert all(s.updates_applied == 1 for s in ex.stages)
        assert all(s.in_flight == 0 for s in ex.stages)

    @pytest.mark.parametrize("mode,kw", ALL_SCHEDULES)
    def test_batch_smaller_than_micro_batch(self, rng, mode, kw):
        """n=2 with micro_batch_size=4 / update_size=4: one short packet
        drains and (for the synchronous schedules) averages over the 2
        samples actually seen."""
        n = 2
        X = rng.normal(size=(n, 3, 8, 8))
        Y = rng.integers(0, 10, size=n)
        m = small_cnn(seed=7)
        ex = PipelineExecutor(m, lr=0.05, momentum=0.9, mode=mode, **kw)
        stats = ex.train(X, Y)
        assert stats.samples == n
        assert np.all(np.isfinite(stats.losses))
        expected_updates = n if mode in ("pb", "1f1b") else 1
        assert all(
            s.updates_applied == expected_updates for s in ex.stages
        )
        if mode == "gpipe":
            # both samples rode one short packet, matching fill_drain's
            # averaged update exactly
            m_ref = small_cnn(seed=7)
            ref = SGDM(m_ref.parameters(), lr=0.05, momentum=0.9)
            loss = cross_entropy(m_ref(Tensor(X)), Y)
            ref.zero_grad()
            loss.backward()
            ref.step()
            assert max_param_diff(m, m_ref) < 1e-10

    def test_zero_step_stats_never_fabricate_capacity(self):
        """Direct construction: a zero-step record reports utilization
        0.0 even with nonzero op counts (the old ``max(time_steps, 1)``
        clamp invented one step of capacity)."""
        stats = PipelineRunStats(
            [_counters(s, ops=3, samples=3) for s in range(5)],
            time_steps=0, losses=np.zeros(0),
        )
        assert stats.utilization == 0.0
        assert stats.samples == 0
        assert np.isnan(stats.mean_loss)

    def test_partial_tail_micro_batch_counts_fractionally(self):
        """Two packets of width 4 and 2: work is 6 sample transformations
        per stage per direction, capacity ``2 * S * T * B``."""
        stats = PipelineRunStats(
            [_counters(s, ops=2, samples=6) for s in range(2)],
            time_steps=10, micro_batch=4, losses=np.zeros(6),
        )
        assert stats.forward_ops == stats.backward_ops == 4
        assert stats.forward_samples == stats.backward_samples == 12
        assert stats.utilization == pytest.approx(24 / (2.0 * 2 * 10 * 4))

    @pytest.mark.parametrize(
        "mode,kw,occupancy",
        [
            ("pb", {}, lambda S: pb_occupancy(S, 12)),
            ("1f1b", {}, lambda S: one_f_one_b_occupancy(S, 12)),
            ("fill_drain", dict(update_size=4),
             lambda S: fill_drain_occupancy(S, 4, num_batches=3)),
            ("gpipe", dict(update_size=8, micro_batch_size=4),
             lambda S: gpipe_occupancy(S, 2, num_batches=2)),
        ],
    )
    def test_sim_stage_counters_match_occupancy_rows(
        self, rng, mode, kw, occupancy
    ):
        """The simulator fills the same per-stage counters the worker
        hosts measure: row ``s`` of the schedule's occupancy grid."""
        n = 16 if mode == "gpipe" else 12
        X = rng.normal(size=(n, 3, 8, 8))
        Y = rng.integers(0, 10, size=n)
        stats = PipelineExecutor(
            small_cnn(seed=7), lr=0.01, mode=mode, **kw
        ).train(X, Y)
        occ = occupancy(stats.num_stages)
        assert stats.time_steps == occ.time_steps
        for s, st in enumerate(stats.stages):
            assert st.index == s
            assert st.forward_ops == np.count_nonzero(occ.grid[s] & FWD)
            assert st.backward_ops == np.count_nonzero(occ.grid[s] & BWD)
            assert st.forward_samples == st.backward_samples == n

    @pytest.mark.parametrize("runtime", ["sim", "threaded", "process"])
    def test_infer_returns_the_samePipelineRunStats(self, rng, runtime):
        """``train`` and serving the trained engine
        (``InferenceSession.from_engine``) answer with one record type on
        every backend; a forward-only run carries outputs and per-stage
        counters, and no losses (so its ``mean_loss`` is NaN)."""
        X = rng.normal(size=(6, 3, 8, 8))
        Y = rng.integers(0, 10, size=6)
        m = small_cnn(seed=7)
        engine = make_pipeline_engine(runtime, m, 0.01)
        trained = engine.train(X, Y)
        session = InferenceSession.from_engine(
            engine, runtime=runtime, micro_batch=4
        )
        stats = session.infer(X)
        assert type(trained) is type(stats) is PipelineRunStats
        assert engine.last_runtime_stats is trained
        assert stats.losses is None and trained.outputs is None
        assert np.isnan(stats.mean_loss)  # no losses: NaN, not a crash
        assert stats.backend == trained.backend == runtime
        assert stats.outputs.shape == (6, 10) and stats.samples == 6
        assert stats.num_stages == m.num_stages
        for st in stats.stages[:-1]:  # the loss slot never runs
            assert (st.forward_ops, st.forward_samples) == (2, 6)
            assert st.backward_ops == 0
        assert stats.stages[-1].busy_steps == 0


class TestNumericalHygiene:
    def test_losses_recorded_per_sample_in_order(self, rng):
        X = rng.normal(size=(6, 3, 8, 8))
        Y = rng.integers(0, 10, size=6)
        m = small_cnn(seed=7)
        stats = PipelineExecutor(m, lr=1e-6, mode="pb").train(X, Y)
        # with a negligible LR every loss equals the frozen-model loss
        frozen = [
            float(cross_entropy(m(Tensor(X[i : i + 1])), Y[i : i + 1]).data)
            for i in range(6)
        ]
        np.testing.assert_allclose(stats.losses, frozen, atol=1e-3)

    def test_weight_stash_restores_master_after_backward(self, rng):
        X = rng.normal(size=(10, 3, 8, 8))
        Y = rng.integers(0, 10, size=10)
        m = small_cnn(seed=7)
        ex = PipelineExecutor(
            m, lr=0.05, momentum=0.9, mode="pb",
            mitigation=MitigationConfig.stashing(),
        )
        ex.train(X, Y)
        # master weights are finite and the stash is empty
        assert all(np.all(np.isfinite(p.data)) for p in m.parameters())
        assert all(s.in_flight == 0 for s in ex.stages)


#: the four engines ``make_pipeline_engine`` can return
ALL_ENGINES = [
    pytest.param("sim", {}, id="sim"),
    pytest.param("threaded", {}, id="threaded"),
    pytest.param("process", {}, id="process"),
    pytest.param(
        "process", dict(replicas=2, model_factory=small_cnn), id="replicated"
    ),
]


class TestHyperparameterValidation:
    """``lr > 0`` and ``0 <= momentum < 1`` are checked once, next to the
    update kernel, by every optimizer — engines included (they used to
    construct and train with ``lr=-0.1, momentum=1.5``)."""

    @pytest.mark.parametrize("runtime,kwargs", ALL_ENGINES)
    @pytest.mark.parametrize(
        "bad,match",
        [
            (dict(lr=-0.1), "learning rate"),
            (dict(lr=0.0), "learning rate"),
            (dict(lr=0.1, momentum=1.5), "momentum"),
            (dict(lr=0.1, momentum=1.0), "momentum"),
            (dict(lr=0.1, momentum=-0.1), "momentum"),
        ],
    )
    def test_engines_reject_bad_lr_and_momentum(
        self, runtime, kwargs, bad, match
    ):
        with pytest.raises(ValueError, match=match):
            make_pipeline_engine(runtime, small_cnn(seed=0), **bad, **kwargs)

    @pytest.mark.parametrize("runtime,kwargs", ALL_ENGINES)
    def test_engines_accept_the_boundary(self, runtime, kwargs):
        engine = make_pipeline_engine(
            runtime, small_cnn(seed=0), lr=1e-9, momentum=0.0, **kwargs
        )
        assert all(st.momentum == 0.0 for st in engine.stages)


class TestReplicaStatsMerge:
    """Regression pins for per-replica stats aggregation: merging R
    replicas' records must sum *work* but never sum *capacity* — R
    identically-busy replicas report the same utilization and busy
    fractions as one, not R× (or 1/R of) it."""

    def _run_record(self, time_steps=10, replicas=1, busy=2.0):
        return PipelineRunStats(
            [_counters(s, ops=8, samples=8, busy=busy) for s in range(2)],
            time_steps=time_steps, losses=np.zeros(8),
            schedule="fill_drain", replicas=replicas, wall_seconds=2.0,
            backend="process", mode="free_running",
        )

    def test_replicas_field_scales_capacity(self):
        """Direct construction: the same work over R=2 replicas' worth
        of worker-step capacity is half the utilization."""
        one = self._run_record()
        two = self._run_record(replicas=2)
        assert two.utilization == pytest.approx(one.utilization / 2)
        assert two.busy_fraction(0) == pytest.approx(one.busy_fraction(0) / 2)

    def test_merge_identical_records_keeps_utilization(self):
        """R identical replicas running concurrently: work doubles,
        time_steps and wall_seconds stay max (not sum), replicas carries
        R — so utilization and busy fractions are unchanged, not doubled
        or halved (two fully-busy replicas report busy_fraction 1.0)."""
        parts = [self._run_record(), self._run_record()]
        assert parts[0].busy_fraction(0) == pytest.approx(1.0)
        merged = PipelineRunStats.merge_replicas(
            parts, np.zeros(16), updates_per_stage=[3, 3]
        )
        assert merged.replicas == 2
        assert merged.time_steps == 10  # max, never sum
        assert merged.wall_seconds == pytest.approx(2.0)
        assert merged.forward_samples == 32
        assert merged.forward_ops == merged.backward_ops == 32
        assert merged.stages[0].busy_seconds == pytest.approx(4.0)
        assert merged.stages[0].forward_samples == 16
        assert merged.samples == 16
        assert merged.updates_per_stage == [3, 3]
        assert (merged.backend, merged.mode) == ("process", "free_running")
        assert merged.utilization == pytest.approx(parts[0].utilization)
        assert merged.busy_fraction(0) == pytest.approx(1.0)
        assert merged.idle_seconds(0) == pytest.approx(0.0)
        assert merged.mean_busy_fraction == pytest.approx(1.0)

    def test_merge_uneven_records_uses_max_steps(self):
        """Uneven shards: the longer replica's steps set the shared
        wall capacity."""
        parts = [self._run_record(time_steps=10, busy=1.0),
                 self._run_record(time_steps=7, busy=0.5)]
        merged = PipelineRunStats.merge_replicas(parts, np.zeros(16))
        assert merged.time_steps == 10
        assert merged.busy_fraction(1) == pytest.approx(1.5 / 4.0)
        assert merged.idle_seconds(1) == pytest.approx(2.5)

    @pytest.mark.parametrize(
        "change",
        [dict(schedule="gpipe"), dict(micro_batch=2), dict(num_stages=3)],
    )
    def test_merge_rejects_mismatched_records(self, change):
        S = change.pop("num_stages", 2)
        fields = dict(schedule="fill_drain", micro_batch=1) | change
        other = PipelineRunStats(
            [_counters(s, ops=8, samples=8) for s in range(S)],
            time_steps=10, losses=np.zeros(8), **fields,
        )
        with pytest.raises(ValueError, match="mismatched"):
            PipelineRunStats.merge_replicas(
                [self._run_record(), other], np.zeros(16)
            )

    def test_merge_rejects_the_empty_list(self):
        with pytest.raises(ValueError, match="at least one"):
            PipelineRunStats.merge_replicas([], np.zeros(0))
