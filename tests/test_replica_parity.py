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
    PipelineRunStats,
    ReplicatedPipelineRunner,
    make_pipeline_engine,
)
from repro.pipeline import runtime as runtime_module
from repro.pipeline import worker as worker_module
from repro.pipeline.inference import lane_cpus
from repro.pipeline.stage import STATE_ARRAYS
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


def _record_parts(monkeypatch) -> list:
    """Every per-replica run record, in rank order, as the replicated
    runner merges them (each keeps its own workers' pinned CPUs)."""
    parts: list = []
    merge = PipelineRunStats.merge_replicas

    def recording(per_replica, *args, **kwargs):
        parts.extend(per_replica)
        return merge(per_replica, *args, **kwargs)

    monkeypatch.setattr(
        PipelineRunStats, "merge_replicas", staticmethod(recording)
    )
    return parts


def _record_launches(monkeypatch) -> list:
    """Every replica launch's worker group, in launch (rank) order."""
    launched: list = []

    class Recording(runtime_module.WorkerGroup):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            launched.append(self)

    monkeypatch.setattr(runtime_module, "WorkerGroup", Recording)
    return launched


def _state_bytes(model_stages) -> list:
    """Every stage's weights, velocity, previous weights, BatchNorm
    buffers and update count, as bytes."""
    return [
        (
            [[a.tobytes() for a in state[key]] for key in STATE_ARRAYS],
            state["updates_applied"],
        )
        for state in (st.state_dict() for st in model_stages)
    ]


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

    @pytest.mark.parametrize("mode,kw,lockstep", [
        ("gpipe", dict(update_size=4, micro_batch_size=2), False),
        ("fill_drain", dict(update_size=2), True),
    ])
    def test_sync_replicas_run_in_plan_order(
        self, monkeypatch, mode, kw, lockstep
    ):
        """No timing can move a synchronous replica's bit, so its stages
        run in plan order, its flushes being the reduce rounds: no worker
        is a free-running one (forked workers inherit the patched
        class), the empty stream's record, a full run's and the engine
        all say lockstep, and the run is bit-exact with the simulator at
        ``R*U``."""

        class NoFree(worker_module.FreeStageWorker):
            def __init__(self, *args, **kwargs):
                raise AssertionError("a sync replica ran a free worker")

        monkeypatch.setattr(worker_module, "FreeStageWorker", NoFree)
        X, Y = _stream(8)
        factory = MODELS[4]
        m_sim, m_rep = factory(seed=2024), factory(seed=2024)
        common = dict(
            lr=LR, momentum=MOMENTUM, weight_decay=WEIGHT_DECAY, mode=mode
        )
        engine = make_pipeline_engine(
            "process", m_rep, replicas=2, model_factory=factory,
            lockstep=lockstep, **common, **kw,
        )
        empty = engine.train(X[:0], Y[:0])
        rep = engine.train(X, Y)
        assert empty.mode == "lockstep"
        assert rep.mode == "lockstep"
        assert engine.runtime_mode == "lockstep"
        sim = PipelineExecutor(
            m_sim, **common, **dict(kw, update_size=2 * kw["update_size"])
        ).train(X, Y)
        assert _hex_losses(sim) == _hex_losses(rep)
        assert _weight_fingerprint(m_sim) == _weight_fingerprint(m_rep)
        assert sim.updates_per_stage == rep.updates_per_stage

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


#: K, the CPUs in each replica's share; "S": a CPU per stage
SHARES = (1, 2, "S")


def _share_cpus(monkeypatch, replicas: int, share, num_stages: int) -> int:
    """Patch the usable CPUs to ``R·K``, so each replica's share holds
    ``K`` of them; return ``K``."""
    k = num_stages if share == "S" else share
    monkeypatch.setattr(runtime_module, "usable_cpus", lambda: replicas * k)
    return k


class TestReplicaShares:
    """A replica is a pipeline on its own share of the CPUs: ``K =
    min(S, len(share))`` contiguous stage groups pinned to the share,
    free-running only with a CPU per stage (``repro.pipeline.runtime``,
    "Stage groups")."""

    @pytest.mark.parametrize("share", SHARES)
    @pytest.mark.parametrize("replicas", [2, 3])
    @pytest.mark.parametrize("mode,kw", SYNC_CONFIGS)
    def test_sync_replicas_match_the_simulator_at_every_share(
        self, monkeypatch, mode, kw, replicas, share
    ):
        R, S = replicas, 4
        k = _share_cpus(monkeypatch, R, share, S)
        launched = _record_launches(monkeypatch)
        parts = _record_parts(monkeypatch)
        X, Y = _stream(12)
        common = dict(lr=LR, momentum=MOMENTUM, weight_decay=WEIGHT_DECAY)
        sim = PipelineExecutor(
            MODELS[S](seed=2024), mode=mode, **common,
            **dict(kw, update_size=R * kw["update_size"]),
        )
        runner = ReplicatedPipelineRunner(
            MODELS[S](seed=2024), mode=mode, replicas=R,
            model_factory=MODELS[S], **common, **kw,
        )
        sim_stats, rep = sim.train(X, Y), runner.train(X, Y)
        assert rep.mode == "lockstep"
        assert _hex_losses(sim_stats) == _hex_losses(rep)
        assert _state_bytes(sim.stages) == _state_bytes(runner.stages)
        assert sim_stats.updates_per_stage == rep.updates_per_stage
        # each replica launched K workers, pinned to its own share
        shares = runtime_module.cpu_shares(lane_cpus(R * k), R)
        assert [r._cpus for r in runner.replica_runners] == shares
        assert [len(g.groups) for g in launched] == [k] * R
        for group, part, mine in zip(launched, parts, shares):
            assert [s for g in group.groups for s in g] == list(range(S))
            assert {c for st in part.stages for c in st.cpus} <= set(mine)

    @pytest.mark.parametrize("mode", ["pb", "1f1b"])
    def test_lockstep_async_replicas_agree_across_shares(
        self, monkeypatch, mode
    ):
        """Losses, weights, velocity, BatchNorm buffers and update
        counts of lockstep replicas do not depend on how many CPUs each
        replica's share holds."""
        R = 2
        S = BN_FACTORY().num_stages
        X, Y = bn_stream(11)
        launched = _record_launches(monkeypatch)
        runs = []
        for share in SHARES:
            k = _share_cpus(monkeypatch, R, share, S)
            del launched[:]
            runner = ReplicatedPipelineRunner(
                BN_FACTORY(), lr=0.05, momentum=0.9, mode=mode,
                replicas=R, model_factory=BN_FACTORY, lockstep=True,
                stall_timeout=60.0,
            )
            stats = runner.train(X, Y)
            assert stats.mode == "lockstep"
            assert [len(g.groups) for g in launched] == [k] * R
            runs.append((
                _hex_losses(stats),
                list(stats.updates_per_stage),
                _state_bytes(runner.stages),
            ))
        assert runs[1] == runs[0]
        assert runs[2] == runs[0]

    @pytest.mark.parametrize("mode", ["pb", "1f1b"])
    def test_async_replicas_with_a_cpu_per_stage_run_free(
        self, monkeypatch, mode, cpu_per_stage
    ):
        launched = _record_launches(monkeypatch)
        factory = MODELS[4]
        runner = ReplicatedPipelineRunner(
            factory(seed=2024), lr=LR, momentum=MOMENTUM, mode=mode,
            replicas=2, model_factory=factory,
        )
        stats = runner.train(*_stream(9))
        assert stats.mode == runner.runtime_mode == "free_running"
        assert [len(g.groups) for g in launched] == [4, 4]
        assert all(
            g.groups == [(s,) for s in range(4)] for g in launched
        )

    @pytest.mark.parametrize("share,want", [
        (1, "lockstep"), (2, "lockstep"), ("S", "free_running"),
    ])
    def test_empty_stream_record_follows_the_replicas_rule(
        self, monkeypatch, share, want
    ):
        """An empty stream launches nothing; its record still says what
        the replicas run on their shares, as a full run's does."""
        factory = MODELS[4]
        _share_cpus(monkeypatch, 2, share, 4)
        engine = make_pipeline_engine(
            "process", factory(seed=2024), lr=LR, momentum=MOMENTUM,
            mode="pb", replicas=2, model_factory=factory,
        )
        X, Y = _stream(8)
        empty = engine.train(X[:0], Y[:0])
        full = engine.train(X, Y)
        assert empty.mode == full.mode == engine.runtime_mode == want


class TestReplicaStalenessAsync:
    @pytest.mark.parametrize("mode", ["pb", "1f1b"])
    def test_eq5_ceiling_holds_per_replica(self, mode, cpu_per_stage):
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
    def test_lockstep_merge_is_deterministic(self, mode, monkeypatch):
        """The end-of-train rank-order delta-average merge must be a
        pure function of the (lockstep-deterministic) replica
        trajectories: two identical runs land on identical weights."""
        parts = _record_parts(monkeypatch)

        def run():
            factory = MODELS[4]
            m = factory(seed=2024)
            runner = ReplicatedPipelineRunner(
                m, lr=LR, momentum=MOMENTUM, mode=mode, replicas=2,
                model_factory=factory, lockstep=True,
            )
            stats = runner.train(*_stream(9))
            # each replica's workers sit on that replica's own slice of
            # the caller's CPUs: on 2 CPUs or more, slices of their own
            shares = runtime_module.cpu_shares(
                sorted(os.sched_getaffinity(0)), 2
            )
            used = [
                {c for st in part.stages for c in st.cpus}
                for part in parts[-2:]
            ]
            assert [u <= set(s) for u, s in zip(used, shares)] == [True] * 2
            if len(os.sched_getaffinity(0)) >= 2:
                assert not used[0] & used[1]
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

    def test_cpu_shares_are_equal_disjoint_slices(self):
        """``max(1, len // R)`` CPUs each, in mask order, round robin
        when the replicas outnumber the CPUs."""
        shares = runtime_module.cpu_shares
        assert shares([0, 1, 2, 3, 4], 2) == [[0, 1], [2, 3]]
        assert shares([0, 1, 2, 3], 1) == [[0, 1, 2, 3]]
        assert shares([0, 1], 3) == [[0], [1], [0]]
        assert shares([5], 2) == [[5], [5]]
        assert shares([None], 2) == [[None], [None]]

    def test_async_engine_keeps_per_replica_update_size(self):
        factory = MODELS[2]
        engine = make_pipeline_engine(
            "process", factory(seed=1), lr=LR, mode="pb", replicas=2,
            model_factory=factory,
        )
        assert isinstance(engine, ReplicatedPipelineRunner)
        assert engine.update_size == 1
