"""Semantic properties of the four pipeline schedules.

* ``pb`` — forward weight versions follow eq. 5, and the whole run is
  *exactly* the flat delay simulator with the pipeline profile and
  ``consistent=False`` (forward stale, backward current).
* ``1f1b`` — same staleness, zero inconsistency: equals the flat
  simulator with ``consistent=True`` (weight stashing), and every
  sample's backward reuses its forward weights.
* ``gpipe`` — identical to sequential mini-batch SGDM for any micro-batch
  size dividing the update (the Figure-16 check extended to micro-batched
  packets), with slot utilization ``M/(M + 2S - 2)``.
* ``fill_drain`` — covered by the Figure-16 tests and the goldens; here
  only its equivalence with ``gpipe`` at micro-batch one is asserted (see
  also the bit-exact version in ``test_schedules_golden.py``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.delayed_sgd import DelayedSGDM
from repro.models import resnet_tiny, small_cnn
from repro.optim import SGDM
from repro.pipeline import (
    PipelineExecutor,
    fill_drain_utilization,
    make_schedule,
    pipeline_delay_profile,
)
from repro.tensor import Tensor, cross_entropy
from repro.train import train_step


@pytest.fixture
def stream(rng):
    return rng.normal(size=(12, 3, 8, 8)), rng.integers(0, 10, size=12)


def max_param_diff(m1, m2):
    return max(
        float(np.abs(a.data - b.data).max())
        for a, b in zip(m1.parameters(), m2.parameters())
    )


def _run_flat_simulator(model, X, Y, consistent: bool):
    """Per-sample DelayedSGDM with the pipeline's staleness profile."""
    profile = pipeline_delay_profile(model, sim_batch_size=1)
    opt = DelayedSGDM(
        model, lr=0.05, momentum=0.9, weight_decay=1e-4,
        delay=profile, consistent=consistent,
    )
    return [
        train_step(opt, model, X[i : i + 1], Y[i : i + 1])
        for i in range(X.shape[0])
    ]


class TestPBStaleness:
    def test_version_lag_follows_eq5(self, stream):
        """Forward version of sample i at stage s is max(0, i - 2(S-1-s));
        backward sees the current weights (version i)."""
        X, Y = stream
        m = small_cnn(seed=5)
        ex = PipelineExecutor(
            m, lr=0.01, momentum=0.9, mode="pb", record_versions=True
        )
        ex.train(X, Y)
        S = m.num_stages
        for s, stage in enumerate(ex.stages):
            if stage.spec.kind != "compute":
                continue
            D = 2 * (S - 1 - s)
            assert stage.version_trace
            for sid, v_fwd, v_bwd in stage.version_trace:
                assert v_fwd == max(0, sid - D)
                assert v_bwd == sid

    def test_pb_equals_flat_simulator_forward_delay_only(self, stream):
        """The executor's pb schedule IS the Appendix-G.2 simulator with
        the eq.-5 profile and consistent=False — losses and final weights
        match to float round-off."""
        X, Y = stream
        m1 = small_cnn(seed=5)
        m2 = small_cnn(seed=5)
        stats = PipelineExecutor(
            m1, lr=0.05, momentum=0.9, weight_decay=1e-4, mode="pb"
        ).train(X, Y)
        losses_flat = _run_flat_simulator(m2, X, Y, consistent=False)
        np.testing.assert_allclose(stats.losses, losses_flat, atol=1e-9)
        assert max_param_diff(m1, m2) < 1e-9


class TestOneFOneB:
    def test_zero_inconsistency_equals_consistent_simulator(self, stream):
        """1f1b (PipeDream weight stashing) == flat simulator with
        consistent=True: forward staleness unchanged, but forward and
        backward of each sample share the same weights."""
        X, Y = stream
        m1 = small_cnn(seed=5)
        m2 = small_cnn(seed=5)
        stats = PipelineExecutor(
            m1, lr=0.05, momentum=0.9, weight_decay=1e-4, mode="1f1b"
        ).train(X, Y)
        losses_flat = _run_flat_simulator(m2, X, Y, consistent=True)
        np.testing.assert_allclose(stats.losses, losses_flat, atol=1e-9)
        assert max_param_diff(m1, m2) < 1e-9

    def test_forward_staleness_still_follows_eq5(self, stream):
        """Stashing removes inconsistency, not staleness."""
        X, Y = stream
        m = small_cnn(seed=5)
        ex = PipelineExecutor(
            m, lr=0.01, momentum=0.9, mode="1f1b", record_versions=True
        )
        ex.train(X, Y)
        S = m.num_stages
        for s, stage in enumerate(ex.stages):
            if stage.spec.kind != "compute":
                continue
            assert stage.always_stash
            D = 2 * (S - 1 - s)
            for sid, v_fwd, _ in stage.version_trace:
                assert v_fwd == max(0, sid - D)

    def test_differs_from_pb(self, stream):
        X, Y = stream
        m1, m2 = small_cnn(seed=5), small_cnn(seed=5)
        PipelineExecutor(m1, lr=0.05, momentum=0.9, mode="pb").train(X, Y)
        PipelineExecutor(m2, lr=0.05, momentum=0.9, mode="1f1b").train(X, Y)
        assert max_param_diff(m1, m2) > 1e-12

    def test_stash_drains(self, stream):
        X, Y = stream
        m = resnet_tiny(widths=(4, 8, 8), seed=0)
        ex = PipelineExecutor(m, lr=0.01, momentum=0.9, mode="1f1b")
        ex.train(X, Y)
        assert all(s.in_flight == 0 for s in ex.stages)


class TestGPipe:
    """Extends the Figure-16 executor validation to micro-batched packets."""

    @pytest.mark.parametrize("micro", [1, 2, 4])
    def test_equals_sequential_minibatch_sgdm(self, rng, micro):
        n, N = 16, 8
        X = rng.normal(size=(n, 3, 8, 8))
        Y = rng.integers(0, 10, size=n)
        m1, m2 = small_cnn(seed=5), small_cnn(seed=5)
        PipelineExecutor(
            m1, lr=0.05, momentum=0.9, weight_decay=1e-4,
            mode="gpipe", update_size=N, micro_batch_size=micro,
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

    def test_skip_path_topology(self, rng):
        """Micro-batched packets must route the residual skip stack
        exactly like per-sample payloads do."""
        n, N, micro = 12, 6, 3
        X = rng.normal(size=(n, 3, 8, 8))
        Y = rng.integers(0, 10, size=n)
        m1 = resnet_tiny(widths=(4, 8, 8), seed=2)
        m2 = resnet_tiny(widths=(4, 8, 8), seed=2)
        PipelineExecutor(
            m1, lr=0.02, momentum=0.9, mode="gpipe",
            update_size=N, micro_batch_size=micro,
        ).train(X, Y)
        ref = SGDM(m2.parameters(), lr=0.02, momentum=0.9)
        for b in range(n // N):
            loss = cross_entropy(
                m2(Tensor(X[b * N : (b + 1) * N])), Y[b * N : (b + 1) * N]
            )
            ref.zero_grad()
            loss.backward()
            ref.step()
        assert max_param_diff(m1, m2) < 1e-8

    def test_tail_micro_batch_and_tail_batch(self, rng):
        """n not divisible by N, N not divisible by B: tail packets carry
        the remainder and the tail batch averages over its own size."""
        n, N, micro = 11, 4, 3  # batches 4,4,3; packets 3+1 / 3+1 / 3
        X = rng.normal(size=(n, 3, 8, 8))
        Y = rng.integers(0, 10, size=n)
        m1, m2 = small_cnn(seed=7), small_cnn(seed=7)
        ex = PipelineExecutor(
            m1, lr=0.05, momentum=0.9, mode="gpipe",
            update_size=N, micro_batch_size=micro,
        )
        stats = ex.train(X, Y)
        assert stats.samples == n
        ref = SGDM(m2.parameters(), lr=0.05, momentum=0.9)
        for start in range(0, n, N):
            xb, yb = X[start : start + N], Y[start : start + N]
            loss = cross_entropy(m2(Tensor(xb)), yb)
            ref.zero_grad()
            loss.backward()
            ref.step()
        assert max_param_diff(m1, m2) < 1e-8

    @pytest.mark.parametrize("micro", [2, 4])
    def test_utilization_closed_form(self, rng, micro):
        """Sample-level utilization equals the micro-batch eq. 1 form
        M/(M + 2S - 2) when B divides N and N divides n."""
        n, N = 16, 8
        X = rng.normal(size=(n, 3, 8, 8))
        Y = rng.integers(0, 10, size=n)
        m = small_cnn(seed=5)
        stats = PipelineExecutor(
            m, lr=0.01, mode="gpipe", update_size=N, micro_batch_size=micro
        ).train(X, Y)
        M, S = N // micro, m.num_stages
        assert stats.utilization == pytest.approx(
            M / (M + 2 * S - 2), abs=1e-9
        )
        # fewer, fatter packets: micro-batching shortens the run
        per_sample = PipelineExecutor(
            small_cnn(seed=5), lr=0.01, mode="fill_drain", update_size=N
        ).train(X, Y)
        assert stats.time_steps < per_sample.time_steps

    def test_micro_batch_counts_samples_not_ops(self, rng):
        """The utilization fix: a batched op of B samples counts B sample
        transformations against a capacity scaled by B — not one op."""
        n, N, micro = 8, 8, 4
        X = rng.normal(size=(n, 3, 8, 8))
        Y = rng.integers(0, 10, size=n)
        m = small_cnn(seed=5)
        stats = PipelineExecutor(
            m, lr=0.01, mode="gpipe", update_size=N, micro_batch_size=micro
        ).train(X, Y)
        S = m.num_stages
        assert stats.forward_ops == S * (n // micro)
        assert stats.forward_samples == S * n
        assert stats.backward_samples == S * n
        assert stats.micro_batch == micro
        # the old formula (ops / 2ST) would claim M/(M+2S-2) only by
        # accident of B dividing everything; the sample form is exact
        assert stats.utilization == pytest.approx(
            (2 * S * n) / (2 * S * stats.time_steps * micro), abs=1e-12
        )


class TestScheduleFactory:
    def test_names_round_trip(self):
        from repro.pipeline import SCHEDULE_NAMES

        for name in SCHEDULE_NAMES:
            assert make_schedule(name, update_size=2).name == name

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError):
            make_schedule("pipedream-2bw")

    def test_bad_sizes_raise(self):
        with pytest.raises(ValueError):
            make_schedule("fill_drain", update_size=0)
        with pytest.raises(ValueError):
            make_schedule("gpipe", update_size=4, micro_batch_size=0)

    def test_gpipe_update_never_below_micro_batch(self):
        # update_size=1 is the "unset" sentinel: one micro-batch/update
        sched = make_schedule("gpipe", update_size=1, micro_batch_size=8)
        assert sched.update_size == 8
        assert sched.micro_batch == 8
        # an explicitly inconsistent configuration is rejected
        with pytest.raises(ValueError):
            make_schedule("gpipe", update_size=2, micro_batch_size=8)

    def test_per_gradient_schedules_have_update_size_one(self):
        assert make_schedule("pb", update_size=64).update_size == 1
        assert make_schedule("1f1b", update_size=64).update_size == 1

    @pytest.mark.parametrize(
        "mode,kw",
        [
            ("pb", {}),
            ("1f1b", {}),
            ("fill_drain", dict(update_size=4)),
            ("gpipe", dict(update_size=4, micro_batch_size=3)),
            ("gpipe", dict(update_size=6, micro_batch_size=2)),
        ],
    )
    def test_drain_span_matches_executor(self, rng, mode, kw):
        """Schedule.drain_span(n, S) is exact: it equals the executor's
        observed time_steps for a full run, including partial tail
        batches and tail micro-batches."""
        for n in (1, 7, 10, 12):
            X = rng.normal(size=(n, 3, 8, 8))
            Y = rng.integers(0, 10, size=n)
            m = small_cnn(seed=5)
            sched = make_schedule(mode, **kw)
            stats = PipelineExecutor(m, lr=0.01, schedule=sched).train(X, Y)
            assert sched.drain_span(n, m.num_stages) == stats.time_steps, (
                mode, kw, n,
            )

    def test_fill_drain_per_slot_utilization_unchanged(self, rng):
        """Per-sample schedules keep the original utilization numbers."""
        n, N = 16, 4
        X = rng.normal(size=(n, 3, 8, 8))
        Y = rng.integers(0, 10, size=n)
        m = small_cnn(seed=5)
        stats = PipelineExecutor(
            m, lr=0.01, mode="fill_drain", update_size=N
        ).train(X, Y)
        assert stats.utilization == pytest.approx(
            fill_drain_utilization(m.num_stages, N), abs=1e-9
        )
