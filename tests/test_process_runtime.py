"""Process-per-stage runtime: bit-exact parity and free-running semantics.

The :class:`~repro.pipeline.runtime.ProcessPipelineRunner` promises the
same contracts as the threaded runner, now across OS process boundaries
and the shared-memory transport:

* **lockstep** is hex-identical to :class:`PipelineExecutor` for every
  schedule — the full PR-2 parity matrix ({1, 2, 4} stages × micro
  widths {1, 4, tail}) plus a re-pin of the canonical schedule goldens,
  reusing the exact helpers of ``test_runtime_parity``;
* **free-running** keeps the eq.-5 staleness ceiling via the per-stage
  in-flight caps, keeps the synchronous schedules numerically identical
  to sequential SGDM, and reports measured per-stage activity collected
  from the worker processes;
* trained weights and optimizer state ship back to the parent at drain
  time (the master model is usable immediately after ``train()``), and
  worker failures surface as :class:`PipelineRuntimeError`, never hangs.
"""

from __future__ import annotations

import threading
from functools import partial

import numpy as np
import pytest

from repro.models.simple import small_cnn
from repro.optim import SGDM
from repro.pipeline import (
    PipelineExecutor,
    PipelineRuntimeError,
    ProcessPipelineRunner,
    make_pipeline_engine,
    model_fingerprint,
)
from repro.tensor import Tensor, cross_entropy

from test_runtime_parity import (
    MODELS,
    SCHEDULE_CONFIGS,
    _hex_losses,
    _stream,
    _weight_fingerprint,
)
from test_schedules_golden import (
    GOLDEN,
    LR,
    MOMENTUM,
    N_SAMPLES,
    RUNS,
    SEED,
    WEIGHT_DECAY,
)
from test_stage_state import BN_FACTORY, BN_SCHEDULE, bn_stream, buffers_hex

pytestmark = pytest.mark.concurrency

#: Generous per-wait deadline; the SIGALRM conftest guard still bounds
#: total test time, so a deadlock fails loudly either way.
STALL = 60.0


def _run_both(depth: int, mode: str, kw: dict, n: int, **runner_kw):
    """Train twin models through the simulator and the lockstep process
    runner (mirror of ``test_runtime_parity._run_both``)."""
    X, Y = _stream(n)
    m_sim = MODELS[depth](seed=2024)
    m_proc = MODELS[depth](seed=2024)
    common = dict(lr=LR, momentum=MOMENTUM, weight_decay=WEIGHT_DECAY,
                  mode=mode, **kw)
    sim = PipelineExecutor(m_sim, **common).train(X, Y)
    runner = ProcessPipelineRunner(
        m_proc, lockstep=True, stall_timeout=STALL, **common, **runner_kw
    )
    proc = runner.train(X, Y)
    return sim, proc, m_sim, m_proc, runner


class TestLockstepBitExact:
    @pytest.mark.parametrize("depth", sorted(MODELS))
    @pytest.mark.parametrize("mode,kw", SCHEDULE_CONFIGS)
    def test_losses_weights_and_update_counts(self, depth, mode, kw):
        sim, proc, m_sim, m_proc, _ = _run_both(depth, mode, kw, n=16)
        assert _hex_losses(sim) == _hex_losses(proc), (
            f"{mode} x {depth} stages: per-sample losses drifted across "
            "process boundaries"
        )
        assert _weight_fingerprint(m_sim) == _weight_fingerprint(m_proc)
        assert sim.updates_per_stage == proc.updates_per_stage
        assert sim.time_steps == proc.time_steps
        assert sim.forward_ops == proc.forward_ops
        assert sim.backward_ops == proc.backward_ops
        assert sim.forward_samples == proc.forward_samples

    @pytest.mark.parametrize("mode,kw", SCHEDULE_CONFIGS)
    def test_tail_remainder_micro_batch(self, mode, kw):
        """n=11 with update 4 (batches 4,4,3) and micro 4 (tail packets
        of 3): the remainder path is bit-exact through the rings too."""
        sim, proc, m_sim, m_proc, _ = _run_both(4, mode, kw, n=11)
        assert _hex_losses(sim) == _hex_losses(proc)
        assert _weight_fingerprint(m_sim) == _weight_fingerprint(m_proc)
        assert sim.updates_per_stage == proc.updates_per_stage

    def test_optimizer_state_ships_back(self):
        """Per-stage velocity returns to the parent bit-exact, so a
        second run continues exactly where the first stopped."""
        X, Y = _stream(12)
        m_sim = MODELS[4](seed=2024)
        m_proc = MODELS[4](seed=2024)
        common = dict(lr=LR, momentum=MOMENTUM, weight_decay=WEIGHT_DECAY,
                      mode="pb")
        sim_engine = PipelineExecutor(m_sim, **common)
        sim_engine.train(X, Y)
        runner = ProcessPipelineRunner(
            m_proc, lockstep=True, stall_timeout=STALL, **common
        )
        runner.train(X, Y)
        for st_sim, st_proc in zip(sim_engine.stages, runner.stages):
            assert st_sim.updates_applied == st_proc.updates_applied
            for p_sim, p_proc in zip(st_sim.params, st_proc.params):
                assert np.array_equal(
                    st_sim.velocity(p_sim), st_proc.velocity(p_proc)
                )

    def test_consecutive_runs_stay_bit_exact(self):
        """Two train() calls == one longer sim stream split in two: the
        state round-trip through the workers is lossless."""
        X, Y = _stream(16)
        m_sim = MODELS[4](seed=9)
        m_proc = MODELS[4](seed=9)
        common = dict(lr=LR, momentum=MOMENTUM, mode="pb")
        sim = PipelineExecutor(m_sim, **common)
        sim.train(X[:8], Y[:8])
        sim.train(X[8:], Y[8:])
        runner = ProcessPipelineRunner(
            m_proc, lockstep=True, stall_timeout=STALL, **common
        )
        runner.train(X[:8], Y[:8])
        runner.train(X[8:], Y[8:])
        assert _weight_fingerprint(m_sim) == _weight_fingerprint(m_proc)
        assert runner.samples_completed == 16

    @pytest.mark.parametrize("jitter_seed", [1, 2])
    @pytest.mark.parametrize(
        "mode,kw",
        [("pb", {}), ("gpipe", dict(update_size=4, micro_batch_size=2))],
    )
    def test_lr_schedule_applied_at_barrier(
        self, mode, kw, jitter_seed, jittered
    ):
        """LR changes are ``SET_LR`` ops in every worker's column, so
        they land between the same two operations of every worker as in
        the simulator — whatever the worker timing."""
        X, Y = _stream(12)
        sched = lambda done: 0.05 / (1 + 0.1 * done)  # noqa: E731
        m1 = small_cnn(num_classes=4, widths=(4, 8), seed=3)
        m2 = small_cnn(num_classes=4, widths=(4, 8), seed=3)
        sim_engine = PipelineExecutor(
            m1, lr=0.05, momentum=0.9, mode=mode, lr_schedule=sched, **kw
        )
        sim = sim_engine.train(X, Y)
        runner = jittered(
            ProcessPipelineRunner(
                m2, lr=0.05, momentum=0.9, mode=mode, lr_schedule=sched,
                lockstep=True, stall_timeout=STALL, **kw,
            ),
            0.002, jitter_seed,
        )
        proc = runner.train(X, Y)
        assert _hex_losses(sim) == _hex_losses(proc)
        assert _weight_fingerprint(m1) == _weight_fingerprint(m2)
        # the final LR returns with the shipped state
        assert [st.lr for st in sim_engine.stages] == [
            st.lr for st in runner.stages
        ]


class TestGoldenRePin:
    """The canonical hex goldens hold for the process engine verbatim —
    pins generated by the pre-refactor single-threaded executor now
    reproduced by multi-process workers over shared memory."""

    @pytest.mark.parametrize("label", sorted(RUNS))
    def test_process_matches_golden(self, label):
        rng = np.random.default_rng(99)
        X = rng.normal(size=(N_SAMPLES, 3, 8, 8))
        Y = rng.integers(0, 4, size=N_SAMPLES)
        model = small_cnn(num_classes=4, widths=(4, 8), seed=SEED)
        runner = ProcessPipelineRunner(
            model, lr=LR, momentum=MOMENTUM, weight_decay=WEIGHT_DECAY,
            lockstep=True, stall_timeout=STALL, **RUNS[label],
        )
        stats = runner.train(X, Y)
        golden = GOLDEN[label]
        assert _hex_losses(stats) == golden["losses"], (
            f"{label}: process-engine losses drifted from the golden pins"
        )
        wsum, wabs = _weight_fingerprint(model)
        assert wsum == golden["weight_sum"]
        assert wabs == golden["weight_abs_sum"]


class TestFreeRunning:
    @pytest.mark.parametrize("mode", ["pb", "1f1b"])
    def test_eq5_staleness_ceiling(self, mode):
        """max(0, i - 2(S-1-s)) <= v_fwd(i) <= i at every compute stage:
        the in-flight caps survive the process transport."""
        n = 24
        X, Y = _stream(n)
        m = small_cnn(seed=5)
        runner = ProcessPipelineRunner(
            m, lr=0.01, momentum=0.9, mode=mode, lockstep=False,
            record_versions=True, stall_timeout=STALL,
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
                assert v_bwd == sid

    def test_version_trace_accumulates_across_runs(self):
        """Two train() calls yield both runs' trace entries — matching
        the sim/threaded engines — even though each run's workers start
        from a fresh (or forked) stage."""
        X, Y = _stream(12)
        m = small_cnn(seed=5)
        runner = ProcessPipelineRunner(
            m, lr=0.01, mode="pb", lockstep=True, record_versions=True,
            stall_timeout=STALL,
        )
        runner.train(X[:6], Y[:6])
        runner.train(X[6:], Y[6:])
        for stage in runner.stages:
            if stage.spec.kind == "compute":
                assert len(stage.version_trace) == 12
                assert [t[0] for t in stage.version_trace[:6]] == list(range(6))

    def test_free_gpipe_equals_sequential_sgdm(self):
        n, N, B = 16, 8, 4
        X, Y = _stream(n)
        m1, m2 = small_cnn(seed=5), small_cnn(seed=5)
        ProcessPipelineRunner(
            m1, lr=0.05, momentum=0.9, weight_decay=1e-4, mode="gpipe",
            update_size=N, micro_batch_size=B, lockstep=False,
            stall_timeout=STALL,
        ).train(X, Y)
        ref = SGDM(m2.parameters(), lr=0.05, momentum=0.9, weight_decay=1e-4)
        for b in range(n // N):
            loss = cross_entropy(
                m2(Tensor(X[b * N : (b + 1) * N])), Y[b * N : (b + 1) * N]
            )
            ref.zero_grad()
            loss.backward()
            ref.step()
        diff = max(
            float(np.abs(a.data - b.data).max())
            for a, b in zip(m1.parameters(), m2.parameters())
        )
        assert diff < 1e-8

    def test_free_fill_drain_tail_batch(self):
        n, N = 10, 4
        X, Y = _stream(n)
        m1, m2 = small_cnn(seed=7), small_cnn(seed=7)
        ProcessPipelineRunner(
            m1, lr=0.05, momentum=0.9, mode="fill_drain", update_size=N,
            lockstep=False, stall_timeout=STALL,
        ).train(X, Y)
        ref = SGDM(m2.parameters(), lr=0.05, momentum=0.9)
        for start in range(0, n, N):
            xb, yb = X[start : start + N], Y[start : start + N]
            loss = cross_entropy(m2(Tensor(xb)), yb)
            ref.zero_grad()
            loss.backward()
            ref.step()
        diff = max(
            float(np.abs(a.data - b.data).max())
            for a, b in zip(m1.parameters(), m2.parameters())
        )
        assert diff < 1e-10

    def test_free_gpipe_losses_bit_match_simulator(self):
        n, N, B = 16, 8, 4
        X, Y = _stream(n)
        m1, m2 = small_cnn(seed=5), small_cnn(seed=5)
        sim = PipelineExecutor(
            m1, lr=0.05, momentum=0.9, mode="gpipe", update_size=N,
            micro_batch_size=B,
        ).train(X, Y)
        free = ProcessPipelineRunner(
            m2, lr=0.05, momentum=0.9, mode="gpipe", update_size=N,
            micro_batch_size=B, lockstep=False, stall_timeout=STALL,
        ).train(X, Y)
        assert np.array_equal(sim.losses, free.losses)

    def test_op_counts_and_runtime_stats(self):
        n = 12
        X, Y = _stream(n)
        m = small_cnn(seed=5)
        runner = ProcessPipelineRunner(
            m, lr=0.01, mode="pb", lockstep=False, stall_timeout=STALL
        )
        stats = runner.train(X, Y)
        rt = stats
        assert rt is runner.last_runtime_stats
        assert rt.backend == "process"
        assert rt.mode == "free_running"
        assert len(rt.stages) == m.num_stages
        assert rt.wall_seconds > 0.0
        # every stage transformed every sample exactly once per pass,
        # measured inside the workers and shipped back at drain
        for st in rt.stages:
            assert st.forward_ops == n
            assert st.backward_ops == n
            assert st.busy_seconds > 0.0
        # completion order needs no check here: every worker raises if a
        # backward arrives out of its forward order (stage 0 included)

    def test_losses_populated_from_worker(self):
        n = 8
        X, Y = _stream(n)
        m = small_cnn(seed=5)
        stats = ProcessPipelineRunner(
            m, lr=0.01, mode="pb", lockstep=False, stall_timeout=STALL
        ).train(X, Y)
        assert stats.losses.shape == (n,)
        assert np.all(stats.losses > 0.0)  # CE losses are positive


class TestSpawnAndFactory:
    def test_fork_factory_path_is_bit_exact(self):
        """model_factory switches fork workers onto the StageBuildSpec
        reconstruction path (what spawn uses) — still hex-identical."""
        factory = partial(small_cnn, num_classes=4, widths=(4,), seed=11)
        X, Y = _stream(10)
        m1, m2 = factory(), factory()
        sim = PipelineExecutor(m1, lr=0.05, momentum=0.9, mode="pb").train(X, Y)
        proc = ProcessPipelineRunner(
            m2, lr=0.05, momentum=0.9, mode="pb", lockstep=True,
            model_factory=factory, stall_timeout=STALL,
        ).train(X, Y)
        assert _hex_losses(sim) == _hex_losses(proc)
        assert _weight_fingerprint(m1) == _weight_fingerprint(m2)

    @pytest.mark.concurrency(timeout=300)
    def test_spawn_start_method_is_bit_exact(self):
        """Full spawn: workers are fresh interpreters that rebuild their
        stage from the picklable factory + shipped state."""
        factory = partial(small_cnn, num_classes=4, widths=(4,), seed=11)
        X, Y = _stream(8)
        m1, m2 = factory(), factory()
        sim = PipelineExecutor(m1, lr=0.05, momentum=0.9, mode="pb").train(X, Y)
        proc = ProcessPipelineRunner(
            m2, lr=0.05, momentum=0.9, mode="pb", lockstep=True,
            model_factory=factory, start_method="spawn",
            stall_timeout=240.0,
        ).train(X, Y)
        assert _hex_losses(sim) == _hex_losses(proc)
        assert _weight_fingerprint(m1) == _weight_fingerprint(m2)

    def test_spawn_without_factory_rejected(self):
        with pytest.raises(ValueError, match="model_factory"):
            ProcessPipelineRunner(
                small_cnn(seed=0), lr=0.01, start_method="spawn"
            )


class TestBufferedStages:
    """BatchNorm running statistics are stage state: they come back
    from the workers with the weights, on every host."""

    HOSTS = {
        "threaded": dict(runtime="threaded"),
        "fork": dict(runtime="process", stall_timeout=STALL),
        "spawn": dict(
            runtime="process", start_method="spawn",
            model_factory=BN_FACTORY, stall_timeout=240.0,
        ),
    }

    @pytest.mark.concurrency(timeout=300)
    @pytest.mark.parametrize("host", sorted(HOSTS))
    def test_running_stats_match_the_simulator(self, host):
        """Lockstep ``train()`` twice (under ``spawn`` the second call
        re-ships the first call's statistics to fresh workers): losses
        and buffers hex-equal to the simulator after each."""
        X, Y = bn_stream(32)
        m_sim, m_run = BN_FACTORY(), BN_FACTORY()
        common = dict(lr=0.05, momentum=0.9, **BN_SCHEDULE)
        kw = dict(self.HOSTS[host])
        sim = make_pipeline_engine("sim", m_sim, **common)
        run = make_pipeline_engine(
            kw.pop("runtime"), m_run, lockstep=True, **common, **kw
        )
        seen = [buffers_hex(BN_FACTORY())]
        for lo in (0, 16):
            a = sim.train(X[lo : lo + 16], Y[lo : lo + 16])
            b = run.train(X[lo : lo + 16], Y[lo : lo + 16])
            assert _hex_losses(a) == _hex_losses(b)
            assert buffers_hex(m_run) == buffers_hex(m_sim)
            assert buffers_hex(m_run) not in seen  # trained on, each call
            seen.append(buffers_hex(m_run))
        assert model_fingerprint(m_run) == model_fingerprint(m_sim)


class TestFailureAndEdgeCases:
    def test_empty_stream(self):
        m = small_cnn(seed=1)
        stats = ProcessPipelineRunner(
            m, lr=0.01, mode="pb", lockstep=False, stall_timeout=STALL
        ).train(np.zeros((0, 3, 8, 8)), np.zeros(0, dtype=np.int64))
        assert stats.samples == 0
        assert stats.time_steps == 0
        assert np.isnan(stats.mean_loss)

    def test_single_sample(self):
        X, Y = _stream(1)
        m1 = small_cnn(seed=1)
        m2 = small_cnn(seed=1)
        sim = PipelineExecutor(m1, lr=0.01, mode="pb").train(X, Y)
        proc = ProcessPipelineRunner(
            m2, lr=0.01, mode="pb", lockstep=True, stall_timeout=STALL
        ).train(X, Y)
        assert _hex_losses(sim) == _hex_losses(proc)

    @pytest.mark.parametrize("lockstep", [False, True])
    def test_worker_exception_propagates(self, lockstep):
        """An out-of-range label makes the loss worker raise; the parent
        gets a PipelineRuntimeError naming the stage, not a hang."""
        X, Y = _stream(8)
        Y = Y.copy()
        Y[3] = 10_000  # IndexError inside softmax_xent_grad_batch
        m = small_cnn(seed=2)
        runner = ProcessPipelineRunner(
            m, lr=0.01, mode="pb", lockstep=lockstep, stall_timeout=15.0
        )
        with pytest.raises(PipelineRuntimeError) as exc_info:
            runner.train(X, Y)
        assert exc_info.value.stage_index == m.num_stages - 1
        # workers and shared memory are gone: a fresh run still works
        assert runner._procs == [] and runner._rings == []
        assert not [
            t.name for t in threading.enumerate()
            if t.name.startswith(("pipeline-stage-", "infer-stage-"))
        ]
        m_ok = small_cnn(seed=2)
        ok = ProcessPipelineRunner(
            m_ok, lr=0.01, mode="pb", lockstep=lockstep, stall_timeout=STALL
        ).train(*_stream(6))
        assert ok.samples == 6

    def test_rings_are_torn_down(self):
        """After train() the run's shared-memory segments are unlinked."""
        X, Y = _stream(6)
        m = small_cnn(seed=1)
        runner = ProcessPipelineRunner(
            m, lr=0.01, mode="pb", lockstep=False, stall_timeout=STALL
        )
        runner.train(X, Y)
        assert runner._rings == []
        assert runner._procs == []


class TestEngineSurface:
    def test_trainer_process_lockstep_matches_sim(self, tiny_dataset):
        from repro.train.pb_trainer import PipelinedTrainer

        hist = {}
        for runtime in ("sim", "process"):
            model = small_cnn(
                num_classes=tiny_dataset.num_classes, widths=(4, 8), seed=9
            )
            tr = PipelinedTrainer(
                model, tiny_dataset, mode="pb", seed=4,
                runtime=runtime, lockstep=True,
            )
            tr.train_samples(24)
            hist[runtime] = [float(p.data.sum()) for p in model.parameters()]
        assert hist["sim"] == hist["process"]

    def test_make_pipeline_engine_builds_process_runner(self):
        engine = make_pipeline_engine(
            "process", small_cnn(seed=0), lr=0.1, lockstep=True
        )
        assert isinstance(engine, ProcessPipelineRunner)
        assert engine.lockstep

    def test_make_pipeline_engine_rejects_unknown(self):
        with pytest.raises(ValueError, match="process"):
            make_pipeline_engine("distributed", small_cnn(seed=0), lr=0.1)
