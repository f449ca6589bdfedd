"""Concurrency stress tests for the threaded pipeline runtime.

Three failure families a multi-worker pipeline can hide:

* **interleaving bugs** — races that only appear under unlucky thread
  timing.  Seeded jitter injected into every worker loop randomizes the
  OS interleaving; lockstep results must be bit-identical to the
  simulator under *any* interleaving, and free-running runs must keep
  their ordering invariants (stage-0 backward completions arrive in
  injection order — the pipeline is FIFO end to end).
* **liveness bugs** — deadlocks on the boundary cases: the empty
  stream, a single sample, fewer samples than the in-flight caps.  Each
  case must terminate (the ``concurrency`` marker adds a hard SIGALRM
  ceiling so a regression fails loudly instead of hanging tier-1).
* **shutdown bugs** — a worker that dies must propagate its error to
  the caller and take the whole runtime down with it; a stalled worker
  must trip the coordinator's stall timeout; no pipeline thread may
  outlive ``train()``.
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
    PipelineRuntimeError,
)

pytestmark = pytest.mark.concurrency

SCHEDULES = [
    ("pb", {}),
    ("1f1b", {}),
    ("fill_drain", dict(update_size=4)),
    ("gpipe", dict(update_size=4, micro_batch_size=4)),
]


def _lr_decay(done: int) -> float:
    return 0.05 / (1 + 0.1 * done)


#: an LR tick between time steps: a thread-hosted worker shares
#: ``stage.lr`` with the parent, so the change is a ``SET_LR`` op in
#: every worker's column, in lockstep and free-running alike — never
#: applied parent-side while workers are still on an earlier tick
LR_SCHEDULES = [
    ("pb", dict(lr_schedule=_lr_decay)),
    ("gpipe", dict(update_size=4, micro_batch_size=2, lr_schedule=_lr_decay)),
]


def _stream(n: int, seed: int = 7):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, 3, 8, 8)), rng.integers(0, 4, size=n)


def _pipeline_threads() -> list[str]:
    return [
        t.name for t in threading.enumerate()
        if t.name.startswith(("pipeline-stage-", "infer-stage-"))
    ]


class TestJitteredInterleavings:
    """Randomized scheduler-interleaving: jitter perturbs when each
    worker runs, never what it computes."""

    @pytest.mark.parametrize("jitter_seed", [1, 2, 3])
    @pytest.mark.parametrize("mode,kw", SCHEDULES + LR_SCHEDULES)
    def test_lockstep_bit_exact_under_jitter(
        self, mode, kw, jitter_seed, jittered
    ):
        X, Y = _stream(12)
        m_sim = small_cnn(num_classes=4, widths=(4,), seed=11)
        m_thr = small_cnn(num_classes=4, widths=(4,), seed=11)
        sim = PipelineExecutor(
            m_sim, lr=0.05, momentum=0.9, mode=mode, **kw
        ).train(X, Y)
        thr = jittered(
            ConcurrentPipelineRunner(
                m_thr, lr=0.05, momentum=0.9, mode=mode, lockstep=True,
                **kw,
            ),
            0.002, jitter_seed,
        ).train(X, Y)
        assert [float(a).hex() for a in sim.losses] == [
            float(b).hex() for b in thr.losses
        ]
        for a, b in zip(m_sim.parameters(), m_thr.parameters()):
            assert np.array_equal(a.data, b.data)

    @pytest.mark.parametrize("jitter_seed", [1, 2, 3])
    @pytest.mark.parametrize("mode,kw", SCHEDULES)
    def test_free_running_invariants_under_jitter(
        self, mode, kw, jitter_seed, jittered
    ):
        n = 12
        X, Y = _stream(n)
        m = small_cnn(num_classes=4, widths=(4,), seed=11)
        runner = jittered(
            ConcurrentPipelineRunner(
                m, lr=0.05, momentum=0.9, mode=mode, lockstep=False, **kw
            ),
            0.002, jitter_seed,
        )
        stats = runner.train(X, Y)
        # packet ordering: every worker raises if a backward arrives out
        # of its forward order (stage 0 included), so completions are in
        # plan order; every sample's loss was recorded once
        assert stats.samples == n
        assert np.all(np.isfinite(stats.losses))
        # conservation: every stage saw every packet exactly once
        packets = stats.stages[0].forward_ops
        for st in stats.stages:
            assert st.forward_ops == packets
            assert st.backward_ops == packets
        assert stats.forward_samples == n * m.num_stages
        # and nothing was left in flight
        assert all(s.in_flight == 0 for s in runner.stages)


class TestLiveness:
    @pytest.mark.parametrize("lockstep", [True, False])
    @pytest.mark.parametrize("mode,kw", SCHEDULES)
    def test_empty_stream_terminates(self, mode, kw, lockstep):
        m = small_cnn(num_classes=4, seed=7)
        runner = ConcurrentPipelineRunner(
            m, lr=0.05, mode=mode, lockstep=lockstep, stall_timeout=30,
            **kw,
        )
        stats = runner.train(np.zeros((0, 3, 8, 8)), np.zeros(0, dtype=int))
        assert stats.samples == 0
        assert stats.time_steps == 0
        assert stats.utilization == 0.0
        assert np.isnan(stats.mean_loss)
        assert not _pipeline_threads()

    @pytest.mark.parametrize("lockstep", [True, False])
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("mode,kw", SCHEDULES)
    def test_short_streams_terminate(self, mode, kw, n, lockstep):
        """Streams shorter than the pipeline depth / update size / micro
        batch width drain cleanly in both modes."""
        X, Y = _stream(n)
        m = small_cnn(num_classes=4, seed=7)
        runner = ConcurrentPipelineRunner(
            m, lr=0.05, mode=mode, lockstep=lockstep, stall_timeout=30,
            **kw,
        )
        stats = runner.train(X, Y)
        assert stats.samples == n
        assert np.all(np.isfinite(stats.losses))
        assert all(s.in_flight == 0 for s in runner.stages)
        assert not _pipeline_threads()

    @pytest.mark.parametrize("lockstep", [True, False])
    def test_consecutive_trains_reuse_runner(self, lockstep):
        """Workers are per-run: a second train() gets fresh threads and
        continues the optimizer state, as with the simulator."""
        X, Y = _stream(8)
        m = small_cnn(num_classes=4, seed=7)
        runner = ConcurrentPipelineRunner(
            m, lr=0.02, momentum=0.9, mode="pb", lockstep=lockstep
        )
        runner.train(X[:4], Y[:4])
        runner.train(X[4:], Y[4:])
        assert runner.samples_completed == 8
        assert all(s.updates_applied == 8 for s in runner.stages)
        assert not _pipeline_threads()


class TestShutdown:
    @pytest.mark.parametrize("lockstep", [True, False])
    def test_worker_exception_propagates(self, lockstep):
        """A raising stage kills the run with PipelineRuntimeError — the
        caller sees the original error, no thread hangs on a queue."""
        X, Y = _stream(8)
        m = small_cnn(num_classes=4, seed=7)
        runner = ConcurrentPipelineRunner(
            m, lr=0.05, mode="pb", lockstep=lockstep, stall_timeout=30
        )
        stage = runner.stages[1]
        original = stage.forward
        calls = {"n": 0}

        def flaky_forward(pid, payload, train=True):
            calls["n"] += 1
            if calls["n"] == 3:
                raise ValueError("injected stage failure")
            return original(pid, payload, train)

        stage.forward = flaky_forward
        with pytest.raises(PipelineRuntimeError) as err:
            runner.train(X, Y)
        assert err.value.stage_index == 1
        assert isinstance(err.value.cause, ValueError)
        assert not _pipeline_threads()
        assert runner._procs == [] and runner._rings == []

    @pytest.mark.parametrize("lockstep", [True, False])
    def test_exception_on_first_packet(self, lockstep):
        """Dying before any packet completes must not deadlock the
        coordinator's completion wait."""
        X, Y = _stream(4)
        m = small_cnn(num_classes=4, seed=7)
        runner = ConcurrentPipelineRunner(
            m, lr=0.05, mode="pb", lockstep=lockstep, stall_timeout=30
        )

        def dead_on_arrival(pid, payload, train=True):
            raise RuntimeError("stage is broken from the start")

        runner.stages[0].forward = dead_on_arrival
        with pytest.raises(PipelineRuntimeError) as err:
            runner.train(X, Y)
        assert err.value.stage_index == 0
        assert not _pipeline_threads()

    def test_stalled_worker_trips_timeout(self):
        """A worker that blocks far beyond ``stall_timeout`` turns into
        a loud RuntimeError instead of a silent hang."""
        X, Y = _stream(4)
        m = small_cnn(num_classes=4, seed=7)
        runner = ConcurrentPipelineRunner(
            m, lr=0.05, mode="pb", lockstep=False, stall_timeout=0.5
        )
        original = runner.stages[1].forward
        stragglers: list[threading.Thread] = []

        def sleepy_forward(pid, payload, train=True):
            stragglers.append(threading.current_thread())
            # outlasts the stall deadline plus teardown's join budget
            # (0.5s each), so the run fails with the worker still stuck
            time.sleep(2.0)
            return original(pid, payload, train)

        runner.stages[1].forward = sleepy_forward
        t0 = time.monotonic()
        with pytest.raises(RuntimeError, match="stalled"):
            runner.train(X, Y)
        # tripped by the stall timeout, not the test's SIGALRM ceiling
        assert time.monotonic() - t0 < 10.0
        # a thread cannot be killed: the stuck worker outlives train().
        # Wait it out here — the other tests' leak assertions read the
        # process-global thread list, in whatever order they run.  Its
        # host thread lives on (renamed idle), so wait for the name
        assert stragglers
        deadline = time.monotonic() + 10.0
        while _pipeline_threads() and time.monotonic() < deadline:
            time.sleep(0.02)
        assert not _pipeline_threads()
