"""Executor edge cases: tail batches, single samples, repeated runs,
and the degenerate zero-sample / zero-step streams for every schedule."""

import numpy as np
import pytest

from repro.core import MitigationConfig
from repro.models import small_cnn
from repro.optim import SGDM
from repro.pipeline import PipelineExecutor, PipelineRunStats
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
            losses=np.zeros(0), time_steps=0, forward_ops=3,
            backward_ops=3, num_stages=5, samples=0,
        )
        assert stats.utilization == 0.0
        assert np.isnan(stats.mean_loss)

    def test_legacy_op_count_fallback_still_works(self):
        """Legacy records (op counts, no sample counts) keep their
        op-granularity utilization."""
        stats = PipelineRunStats(
            losses=np.zeros(4), time_steps=10, forward_ops=20,
            backward_ops=20, num_stages=2, samples=4,
        )
        assert stats.utilization == pytest.approx(40 / (2.0 * 2 * 10))


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


class TestReplicaStatsMerge:
    """Regression pins for per-replica stats aggregation: merging R
    replicas' records must sum *work* but never sum *capacity* — R
    identically-busy replicas report the same utilization and busy
    fractions as one, not R× (or 1/R of) it."""

    def _run_record(self, time_steps=10, replicas=1):
        return PipelineRunStats(
            losses=np.zeros(8), time_steps=time_steps, forward_ops=16,
            backward_ops=16, num_stages=2, samples=8,
            forward_samples=16, backward_samples=16, micro_batch=1,
            schedule="fill_drain", replicas=replicas,
        )

    def test_replicas_field_scales_capacity(self):
        """Direct construction: the same work over R=2 replicas' worth
        of worker-step capacity is half the utilization."""
        one = self._run_record()
        two = self._run_record(replicas=2)
        assert two.utilization == pytest.approx(one.utilization / 2)

    def test_merge_identical_records_keeps_utilization(self):
        """R identical replicas running concurrently: work doubles,
        time_steps stays max (not sum), replicas carries R — so
        utilization is unchanged, not doubled or halved."""
        parts = [self._run_record(), self._run_record()]
        merged = PipelineRunStats.merge_replicas(parts, np.zeros(16))
        assert merged.replicas == 2
        assert merged.time_steps == 10  # max, never sum
        assert merged.forward_samples == 32
        assert merged.samples == 16
        assert merged.utilization == pytest.approx(parts[0].utilization)

    def test_merge_uneven_records_uses_max_steps(self):
        """Uneven shards: the longer replica's steps set the shared
        wall capacity."""
        parts = [self._run_record(time_steps=10),
                 self._run_record(time_steps=7)]
        merged = PipelineRunStats.merge_replicas(parts, np.zeros(16))
        assert merged.time_steps == 10

    def test_merge_rejects_mismatched_records(self):
        other = PipelineRunStats(
            losses=np.zeros(8), time_steps=10, forward_ops=16,
            backward_ops=16, num_stages=3, samples=8,
            schedule="fill_drain",
        )
        with pytest.raises(ValueError, match="mismatched"):
            PipelineRunStats.merge_replicas(
                [self._run_record(), other], np.zeros(16)
            )
        with pytest.raises(ValueError, match="at least one"):
            PipelineRunStats.merge_replicas([], np.zeros(0))

    def test_runtime_stats_merge_busy_fractions(self):
        """RuntimeStats.merge_replicas: per-stage busy seconds sum
        across replicas but the per-stage time budget is wall * R, so
        two fully-busy replicas report busy_fraction 1.0 (the un-
        normalized merge would report 2.0)."""
        from repro.pipeline import RuntimeStats, StageCounters

        def record():
            return RuntimeStats(
                mode="free_running", schedule="fill_drain", num_stages=2,
                wall_seconds=2.0, backend="process",
                stages=[
                    StageCounters(
                        index=s, forward_ops=8, backward_ops=8,
                        forward_samples=8, backward_samples=8,
                        busy_seconds=2.0,
                    )
                    for s in range(2)
                ],
            )

        single = record()
        assert single.busy_fraction(0) == pytest.approx(1.0)
        merged = RuntimeStats.merge_replicas([record(), record()])
        assert merged.replicas == 2
        assert merged.wall_seconds == pytest.approx(2.0)  # max, not sum
        assert merged.stages[0].busy_seconds == pytest.approx(4.0)
        assert merged.stages[0].forward_samples == 16
        assert merged.busy_fraction(0) == pytest.approx(1.0)
        assert merged.idle_seconds(0) == pytest.approx(0.0)

    def test_runtime_stats_merge_rejects_mismatch(self):
        from repro.pipeline import RuntimeStats, StageCounters

        a = RuntimeStats(
            mode="free_running", schedule="fill_drain", num_stages=1,
            wall_seconds=1.0,
            stages=[StageCounters(index=0)],
        )
        b = RuntimeStats(
            mode="free_running", schedule="fill_drain", num_stages=2,
            wall_seconds=1.0,
            stages=[StageCounters(index=s) for s in range(2)],
        )
        with pytest.raises(ValueError):
            RuntimeStats.merge_replicas([a, b])
        with pytest.raises(ValueError):
            RuntimeStats.merge_replicas([])
