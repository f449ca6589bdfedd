"""Replica parity: R data-parallel pipeline replicas vs one at ``R*U``.

The :class:`~repro.pipeline.runtime.ReplicatedPipelineRunner` promises
that for the synchronous schedules (``fill_drain``, ``gpipe``) data
parallelism is *mathematically invisible*: ``R`` replicas at per-replica
update size ``U``, each streaming a disjoint block-cyclic shard and
chain-reducing per-packet gradient segments in rank order, compute
exactly what one :class:`PipelineExecutor` at update size ``R*U``
computes — same per-sample losses (to the bit), same final weights,
same per-stage update counts.  Any divergence is a reduce-plane bug
(reordered fold, lost segment, miscounted flush), never float noise.

For the asynchronous schedules (``pb``, ``1f1b``) there is no global
batch to pin against; instead each replica must independently obey the
paper's eq.-5 staleness ceiling ``D_s = 2(S-1-s)`` on its own shard,
and the end-of-train rank-order delta-average merge must be
deterministic under lockstep.

Coverage: replica counts {2, 3} × pipeline depths {1, 2, 4} stages ×
micro-batch widths {1, 4, tail-remainder}, uneven shards (n not
divisible by ``R*U``, including replicas that miss the last global
round entirely), engine-facade wiring, and constructor validation.
"""

from __future__ import annotations

import os
import threading

import numpy as np
import pytest

from repro.models.arch import StageDef, StageGraphModel
from repro.models.simple import small_cnn
from repro.nn import Flatten, Linear, Sequential
from repro.pipeline import (
    PipelineExecutor,
    ReplicatedPipelineRunner,
    make_pipeline_engine,
)
from repro.pipeline import runtime as runtime_module
from repro.utils.rng import new_rng

from test_schedules_golden import LR, MOMENTUM, WEIGHT_DECAY
from test_stage_state import BN_FACTORY, bn_stream, buffers_hex

pytestmark = pytest.mark.concurrency


# -- model zoo: pipelines of 1, 2 and 4 stages (factories, spawn-safe) -------


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

#: (schedule mode, per-replica schedule kwargs) — per-replica update 2
#: for fill_drain and 4 for gpipe at micro widths 4 and 1.
SYNC_CONFIGS = [
    ("fill_drain", dict(update_size=2)),
    ("gpipe", dict(update_size=4, micro_batch_size=4)),
    ("gpipe", dict(update_size=4, micro_batch_size=1)),
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


def _run_both(depth: int, replicas: int, mode: str, kw: dict, n: int,
              lockstep: bool = False):
    """Train twin models: simulator at ``R*U`` vs R replicas at ``U``."""
    X, Y = _stream(n)
    factory = MODELS[depth]
    global_kw = dict(kw, update_size=kw["update_size"] * replicas)
    m_sim = factory(seed=2024)
    m_rep = factory(seed=2024)
    common = dict(lr=LR, momentum=MOMENTUM, weight_decay=WEIGHT_DECAY)
    sim = PipelineExecutor(m_sim, mode=mode, **common, **global_kw).train(X, Y)
    runner = ReplicatedPipelineRunner(
        m_rep, mode=mode, replicas=replicas, model_factory=factory,
        lockstep=lockstep, **common, **kw,
    )
    rep = runner.train(X, Y)
    return sim, rep, m_sim, m_rep, runner


class TestReplicaParitySync:
    @pytest.mark.parametrize("depth", sorted(MODELS))
    @pytest.mark.parametrize("replicas", [2, 3])
    @pytest.mark.parametrize("mode,kw", SYNC_CONFIGS)
    def test_losses_weights_and_update_counts(
        self, depth, replicas, mode, kw
    ):
        sim, rep, m_sim, m_rep, runner = _run_both(
            depth, replicas, mode, kw, n=12
        )
        tag = f"{mode} x {depth} stages x {replicas} replicas"
        assert _hex_losses(sim) == _hex_losses(rep), (
            f"{tag}: per-sample losses drifted"
        )
        assert _weight_fingerprint(m_sim) == _weight_fingerprint(m_rep), tag
        assert sim.updates_per_stage == rep.updates_per_stage, tag
        assert rep.samples == 12
        assert runner.samples_completed == 12

    @pytest.mark.parametrize("replicas", [2, 3])
    @pytest.mark.parametrize("mode,kw", SYNC_CONFIGS)
    def test_tail_remainder_and_uneven_shards(self, replicas, mode, kw):
        """n=11: uneven block-cyclic shards, a partial last global round
        (some replicas contribute short batches or miss it entirely and
        join the reduce with a zero flush), and tail micro-packets —
        still bit-exact."""
        sim, rep, m_sim, m_rep, _ = _run_both(4, replicas, mode, kw, n=11)
        assert _hex_losses(sim) == _hex_losses(rep)
        assert _weight_fingerprint(m_sim) == _weight_fingerprint(m_rep)
        assert sim.updates_per_stage == rep.updates_per_stage

    def test_lockstep_replicas_match_too(self):
        """Lockstep mode drives each replica on the per-step barrier;
        the reduce plane must behave identically."""
        sim, rep, m_sim, m_rep, _ = _run_both(
            2, 2, "fill_drain", dict(update_size=2), n=12, lockstep=True
        )
        assert rep.mode == "lockstep"
        assert _hex_losses(sim) == _hex_losses(rep)
        assert _weight_fingerprint(m_sim) == _weight_fingerprint(m_rep)

    def test_runtime_stats_merge_replicas(self):
        """Merged run records carry the replica count and per-stage op
        totals over all replicas without double-counting capacity."""
        _, rep, _, _, runner = _run_both(
            4, 2, "fill_drain", dict(update_size=2), n=12
        )
        rt = rep
        assert rt.replicas == 2
        assert rep.replicas == 2
        assert rt.num_stages == runner.num_stages
        # every sample crosses every stage exactly once, summed over
        # both replicas
        for s in range(rt.num_stages):
            assert rt.stages[s].forward_samples == 12
            assert rt.stages[s].backward_samples == 12
        # busy fractions stay normalized against R * wall
        for s in range(rt.num_stages):
            assert 0.0 <= rt.busy_fraction(s) <= 1.0


    def test_batchnorm_statistics_merge_outside_the_parity_check(self):
        """BatchNorm running statistics are shard-local, so they are
        exempt from the replicas-agree check and merge as the rank-order
        mean; per-sample packets normalize sample by sample, so losses
        and parameters stay hex-identical to one pipeline at ``R*U``."""
        X, Y = bn_stream(16)
        m_sim, m_rep = BN_FACTORY(), BN_FACTORY()
        common = dict(lr=0.05, momentum=0.9, mode="fill_drain")
        sim = PipelineExecutor(m_sim, update_size=8, **common).train(X, Y)
        runner = ReplicatedPipelineRunner(
            m_rep, replicas=2, model_factory=BN_FACTORY, update_size=4,
            **common,
        )
        rep = runner.train(X, Y)
        assert _hex_losses(sim) == _hex_losses(rep)
        for a, b in zip(m_sim.parameters(), m_rep.parameters()):
            assert a.data.tobytes() == b.data.tobytes()
        merged = [b for _, b in m_rep.named_buffers()]
        assert all(np.all(np.isfinite(b)) for b in merged)
        assert all(
            got != init
            for got, init in zip(buffers_hex(m_rep), buffers_hex(BN_FACTORY()))
        )
        # the mean of the two replicas' statistics, folded in rank order
        per_rank = [
            [b for _, b in r.model.named_buffers()]
            for r in runner.replica_runners
        ]
        for got, b0, b1 in zip(merged, *per_rank):
            assert got.tobytes() == ((b0 + b1) / 2).tobytes()

    def test_groups_launch_before_driver_threads(self, monkeypatch):
        """Fork before threads: every replica's ``WorkerGroup`` (S
        forks) is constructed on the calling thread, none on a
        ``replica-driver-*`` thread where a sibling's held lock could be
        inherited locked."""
        launched_on: list[str] = []

        class Recording(runtime_module.WorkerGroup):
            def __init__(self, *args, **kwargs):
                launched_on.append(threading.current_thread().name)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(runtime_module, "WorkerGroup", Recording)
        _run_both(2, 3, "fill_drain", dict(update_size=2), n=12)
        assert launched_on == [threading.current_thread().name] * 3

    def test_launch_failure_tears_down_earlier_groups(self, monkeypatch):
        """Replica 1's launch fails: replica 0's already-forked workers
        are torn down, nothing is left running, the error propagates."""
        real = runtime_module.WorkerGroup
        built: list = []

        def flaky(*args, **kwargs):
            if built:
                raise OSError("injected launch failure")
            built.append(real(*args, **kwargs))
            built.append(list(built[0].workers))
            return built[0]

        monkeypatch.setattr(runtime_module, "WorkerGroup", flaky)
        with pytest.raises(OSError, match="injected launch failure"):
            _run_both(2, 2, "fill_drain", dict(update_size=2), n=12)
        assert built[1] and not any(w.is_alive() for w in built[1])
        assert not [
            t.name for t in threading.enumerate()
            if t.name.startswith("replica-driver-")
        ]


class TestReplicaStalenessAsync:
    @pytest.mark.parametrize("mode", ["pb", "1f1b"])
    def test_eq5_ceiling_holds_per_replica(self, mode):
        """Each replica runs the asynchronous schedule on its own shard;
        the observed forward version of that replica's sample i at stage
        s must satisfy eq. 5: ``v_fwd >= i - 2(S-1-s)`` (clamped at the
        cold start)."""
        X, Y = _stream(9)
        factory = MODELS[4]
        runner = ReplicatedPipelineRunner(
            factory(seed=2024), lr=LR, momentum=MOMENTUM, mode=mode,
            replicas=2, model_factory=factory, record_versions=True,
        )
        runner.train(X, Y)
        S = runner.num_stages
        checked = 0
        for r, rep in enumerate(runner.replica_runners):
            for s, st in enumerate(rep.stages):
                for (i, v_fwd, _v_bwd) in st.version_trace:
                    floor = max(0, i - 2 * (S - 1 - s))
                    assert v_fwd >= floor, (
                        f"{mode}: replica {r} stage {s} sample {i} saw "
                        f"version {v_fwd} < eq.-5 floor {floor}"
                    )
                    checked += 1
        assert checked > 0, "no version traces recorded"

    @pytest.mark.parametrize("mode", ["pb", "1f1b"])
    def test_lockstep_merge_is_deterministic(self, mode):
        """The end-of-train rank-order delta-average merge must be a
        pure function of the (lockstep-deterministic) replica
        trajectories: two identical runs land on identical weights."""

        def run():
            factory = MODELS[4]
            m = factory(seed=2024)
            runner = ReplicatedPipelineRunner(
                m, lr=LR, momentum=MOMENTUM, mode=mode, replicas=2,
                model_factory=factory, lockstep=True,
            )
            stats = runner.train(*_stream(9))
            # a replica is neither cut into stage groups nor pinned: one
            # worker per stage, each on the caller's CPUs
            mask = tuple(sorted(os.sched_getaffinity(0)))
            assert [st.cpus for st in stats.stages] == [mask] * 4
            return _hex_losses(stats), _weight_fingerprint(m)

        losses_a, fp_a = run()
        losses_b, fp_b = run()
        assert losses_a == losses_b
        assert fp_a == fp_b


class TestReplicatedEngineWiring:
    def test_make_pipeline_engine_dispatches_replicas(self):
        factory = MODELS[2]
        engine = make_pipeline_engine(
            "process", factory(seed=1), lr=LR, mode="fill_drain",
            update_size=2, replicas=2, model_factory=factory,
        )
        assert isinstance(engine, ReplicatedPipelineRunner)
        assert engine.replicas == 2
        # synchronous: the engine-facing update size is the global one,
        # so DurableRun aligns checkpoints to global drain barriers
        assert engine.update_size == 4

    def test_replicas_one_falls_back_to_plain_runner(self):
        from repro.pipeline import ProcessPipelineRunner

        factory = MODELS[2]
        engine = make_pipeline_engine(
            "process", factory(seed=1), lr=LR, mode="fill_drain",
            update_size=2, replicas=1, model_factory=factory,
        )
        assert isinstance(engine, ProcessPipelineRunner)
        assert not isinstance(engine, ReplicatedPipelineRunner)

    @pytest.mark.parametrize("runtime", ["sim", "threaded"])
    def test_replicas_require_process_runtime(self, runtime):
        factory = MODELS[2]
        with pytest.raises(ValueError, match="process"):
            make_pipeline_engine(
                runtime, factory(seed=1), lr=LR, mode="fill_drain",
                update_size=2, replicas=2, model_factory=factory,
            )

    def test_constructor_validation(self):
        factory = MODELS[2]
        with pytest.raises(ValueError, match="replicas"):
            ReplicatedPipelineRunner(
                factory(seed=1), lr=LR, mode="fill_drain", update_size=2,
                replicas=1, model_factory=factory,
            )
        with pytest.raises(ValueError, match="model_factory"):
            ReplicatedPipelineRunner(
                factory(seed=1), lr=LR, mode="fill_drain", update_size=2,
                replicas=2,
            )
        from repro.pipeline.schedule import make_schedule

        with pytest.raises(ValueError, match="schedule"):
            ReplicatedPipelineRunner(
                factory(seed=1), lr=LR,
                schedule=make_schedule("fill_drain", update_size=4),
                replicas=2, model_factory=factory,
            )

    def test_async_engine_keeps_per_replica_update_size(self):
        factory = MODELS[2]
        engine = make_pipeline_engine(
            "process", factory(seed=1), lr=LR, mode="pb", replicas=2,
            model_factory=factory,
        )
        assert isinstance(engine, ReplicatedPipelineRunner)
        assert engine.update_size == 1
