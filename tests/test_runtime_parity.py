"""Bit-exact parity: lockstep threaded runtime vs the simulator.

The lockstep :class:`~repro.pipeline.runtime.ConcurrentPipelineRunner`
promises to compute *exactly* what :class:`PipelineExecutor` computes —
same per-sample losses (to the bit), same final weights, same per-stage
update counts — for every schedule.  That contract is what makes the
concurrent runtime testable at all: any divergence is a concurrency bug
(lost packet, reordered update, torn weight read), never float noise.

Coverage: all four schedules × pipeline depths {1, 2, 4} stages ×
micro-batch widths {1, 4, tail-remainder}, plus a re-pin of the
canonical goldens from ``test_schedules_golden`` through the threaded
engine (same hex-string comparison helpers, same workload).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.models.arch import StageDef, StageGraphModel
from repro.models.simple import small_cnn
from repro.nn import Flatten, Linear, Sequential
from repro.pipeline import ConcurrentPipelineRunner, PipelineExecutor
from repro.utils.rng import new_rng

from test_schedules_golden import (
    GOLDEN,
    LR,
    MOMENTUM,
    N_SAMPLES,
    RUNS,
    SEED,
    WEIGHT_DECAY,
)

pytestmark = pytest.mark.concurrency


# -- model zoo: pipelines of 1, 2 and 4 stages -------------------------------


def _loss_only(seed: int = 0) -> StageGraphModel:
    """1 stage: the degenerate pipeline (loss only, no parameters)."""
    return StageGraphModel([StageDef("loss", kind="loss")], name="loss_only")


def _two_stage(seed: int = 0) -> StageGraphModel:
    """2 stages: one linear head + loss."""
    return StageGraphModel(
        [
            StageDef(
                "head",
                module=Sequential(
                    Flatten(), Linear(3 * 8 * 8, 4, rng=new_rng(seed))
                ),
            ),
            StageDef("loss", kind="loss"),
        ],
        name="two_stage",
    )


def _four_stage(seed: int = 0) -> StageGraphModel:
    """4 stages: conv, pool, fc, loss (``small_cnn`` with one width)."""
    return small_cnn(num_classes=4, widths=(4,), seed=seed)


MODELS = {1: _loss_only, 2: _two_stage, 4: _four_stage}

#: (schedule mode, executor kwargs) — micro-batch widths 1 and 4 for the
#: micro-batched schedule, plus per-sample widths for the others.
SCHEDULE_CONFIGS = [
    ("pb", {}),
    ("1f1b", {}),
    ("fill_drain", dict(update_size=4)),
    ("gpipe", dict(update_size=4, micro_batch_size=1)),
    ("gpipe", dict(update_size=4, micro_batch_size=4)),
]


def _hex_losses(stats) -> list[str]:
    return [float(l).hex() for l in stats.losses]


def _weight_fingerprint(model) -> tuple[str, str]:
    wsum = float(np.sum([float(p.data.sum()) for p in model.parameters()]))
    wabs = float(
        np.sum([float(np.abs(p.data).sum()) for p in model.parameters()])
    )
    return wsum.hex(), wabs.hex()


def _stream(n: int, seed: int = 99):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, 3, 8, 8)), rng.integers(0, 4, size=n)


def _run_both(depth: int, mode: str, kw: dict, n: int):
    """Train twin models through simulator and lockstep runner."""
    X, Y = _stream(n)
    m_sim = MODELS[depth](seed=2024)
    m_thr = MODELS[depth](seed=2024)
    common = dict(lr=LR, momentum=MOMENTUM, weight_decay=WEIGHT_DECAY,
                  mode=mode, **kw)
    sim = PipelineExecutor(m_sim, **common).train(X, Y)
    runner = ConcurrentPipelineRunner(m_thr, lockstep=True, **common)
    thr = runner.train(X, Y)
    return sim, thr, m_sim, m_thr


class TestLockstepBitExact:
    @pytest.mark.parametrize("depth", sorted(MODELS))
    @pytest.mark.parametrize("mode,kw", SCHEDULE_CONFIGS)
    def test_losses_weights_and_update_counts(self, depth, mode, kw):
        sim, thr, m_sim, m_thr = _run_both(depth, mode, kw, n=16)
        assert _hex_losses(sim) == _hex_losses(thr), (
            f"{mode} x {depth} stages: per-sample losses drifted"
        )
        assert _weight_fingerprint(m_sim) == _weight_fingerprint(m_thr)
        assert sim.updates_per_stage == thr.updates_per_stage
        assert sim.time_steps == thr.time_steps
        assert sim.forward_ops == thr.forward_ops
        assert sim.backward_ops == thr.backward_ops
        assert sim.forward_samples == thr.forward_samples

    @pytest.mark.parametrize("mode,kw", SCHEDULE_CONFIGS)
    def test_tail_remainder_micro_batch(self, mode, kw):
        """n=11 with update 4 (batches 4,4,3) and micro 4 (tail packets
        of 3): the remainder path is bit-exact too."""
        sim, thr, m_sim, m_thr = _run_both(4, mode, kw, n=11)
        assert _hex_losses(sim) == _hex_losses(thr)
        assert _weight_fingerprint(m_sim) == _weight_fingerprint(m_thr)
        assert sim.updates_per_stage == thr.updates_per_stage

    def test_lr_schedule_applied_at_barrier(self):
        """A sample-dependent LR schedule stays bit-exact: its changes
        are ``SET_LR`` ops in every worker's column, between the same two
        operations where the simulator applies them."""
        X, Y = _stream(12)
        sched = lambda done: 0.05 / (1 + 0.1 * done)  # noqa: E731
        m1 = small_cnn(num_classes=4, widths=(4, 8), seed=3)
        m2 = small_cnn(num_classes=4, widths=(4, 8), seed=3)
        sim = PipelineExecutor(
            m1, lr=0.05, momentum=0.9, mode="pb", lr_schedule=sched
        ).train(X, Y)
        thr = ConcurrentPipelineRunner(
            m2, lr=0.05, momentum=0.9, mode="pb", lr_schedule=sched,
            lockstep=True,
        ).train(X, Y)
        assert _hex_losses(sim) == _hex_losses(thr)
        assert _weight_fingerprint(m1) == _weight_fingerprint(m2)


class TestGoldenRePin:
    """The canonical hex goldens of ``test_schedules_golden`` hold for
    the lockstep threaded engine verbatim — the strongest statement of
    the parity contract (pins generated by the *pre-refactor* executor
    now reproduced by a multi-threaded runtime)."""

    @pytest.mark.parametrize("label", sorted(RUNS))
    def test_threaded_matches_golden(self, label):
        rng = np.random.default_rng(99)
        X = rng.normal(size=(N_SAMPLES, 3, 8, 8))
        Y = rng.integers(0, 4, size=N_SAMPLES)
        model = small_cnn(num_classes=4, widths=(4, 8), seed=SEED)
        runner = ConcurrentPipelineRunner(
            model, lr=LR, momentum=MOMENTUM, weight_decay=WEIGHT_DECAY,
            lockstep=True, **RUNS[label],
        )
        stats = runner.train(X, Y)
        golden = GOLDEN[label]
        assert _hex_losses(stats) == golden["losses"], (
            f"{label}: threaded losses drifted from the golden pins"
        )
        wsum, wabs = _weight_fingerprint(model)
        assert wsum == golden["weight_sum"]
        assert wabs == golden["weight_abs_sum"]


class TestRuntimeStatsLockstep:
    def test_runtime_stats_attached_and_consistent(self):
        X, Y = _stream(10)
        m = small_cnn(num_classes=4, widths=(4,), seed=1)
        runner = ConcurrentPipelineRunner(m, lr=0.01, mode="pb", lockstep=True)
        stats = runner.train(X, Y)
        rt = stats
        assert rt is runner.last_runtime_stats
        assert rt.mode == "lockstep"
        assert rt.schedule == "pb"
        assert rt.num_stages == m.num_stages
        assert rt.wall_seconds > 0.0
        # per-stage op counts sum to the run totals
        assert sum(s.forward_ops for s in rt.stages) == stats.forward_ops
        assert sum(s.backward_ops for s in rt.stages) == stats.backward_ops
        # every stage transformed every sample exactly once in each pass
        for st in rt.stages:
            assert st.forward_ops == 10
            assert st.backward_ops == 10
        assert 0.0 <= rt.mean_busy_fraction <= 1.0

    def test_simulator_runs_have_no_runtime_stats(self):
        X, Y = _stream(6)
        m = small_cnn(num_classes=4, widths=(4,), seed=1)
        stats = PipelineExecutor(m, lr=0.01, mode="pb").train(X, Y)
        assert stats.backend == "sim"


class TestEngineSurface:
    def test_make_pipeline_engine_rejects_unknown(self):
        from repro.pipeline import make_pipeline_engine

        with pytest.raises(ValueError):
            make_pipeline_engine("distributed", small_cnn(seed=0), lr=0.1)
