"""Kill-and-resume parity: the process runtime survives dead workers.

The headline durability guarantee: SIGKILL a stage worker process
mid-run, and the run still lands on **hex-identical** final weights and
losses to the uninterrupted golden, for every schedule — via two
independent mechanisms:

* **in-flight recovery** (``max_restarts``): the runner snapshots the
  engine at ``train()`` entry (a drain barrier), detects the dead
  worker (pipe EOF or the liveness watchdog — under ``fork`` sibling
  workers keep each other's pipe ends open, so EOF alone is not
  enough), respawns *all* workers from the snapshot and replays the
  partial batch;
* **on-disk resume** (:class:`DurableRun`): a run whose whole process
  died resumes from the last checkpoint file into freshly built
  objects (covered per-schedule in ``test_checkpoint.py``; here the
  crash is a real SIGKILL).

Lockstep mode pins the bit-exact matrix (free-running ``pb``/``1f1b``
are timing-dependent by design); a free-running synchronous schedule is
additionally recovered to its deterministic drained-update trajectory.
"""

from __future__ import annotations

import os
import signal
import threading
import time
from functools import partial

import numpy as np
import pytest

from repro.data.loader import ResumableSampleStream
from repro.models.simple import small_cnn
from repro.pipeline import (
    DurableRun,
    PipelineExecutor,
    PipelineRuntimeError,
    ProcessPipelineRunner,
    model_fingerprint,
)
from repro.utils.rng import new_rng

pytestmark = pytest.mark.concurrency

STALL = 60.0
FACTORY = partial(small_cnn, num_classes=4, widths=(4,), seed=3)

SCHEDULES = {
    "pb": dict(mode="pb"),
    "fill_drain": dict(mode="fill_drain", update_size=4),
    "gpipe": dict(mode="gpipe", update_size=4, micro_batch_size=2),
    "1f1b": dict(mode="1f1b"),
}

LR, MOMENTUM, WEIGHT_DECAY = 0.05, 0.9, 1e-4


def _stream(n: int, seed: int = 9):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, 3, 8, 8)), rng.integers(0, 4, size=n)


def _sim_golden(kw: dict, X, Y):
    model = FACTORY()
    stats = PipelineExecutor(
        model, lr=LR, momentum=MOMENTUM, weight_decay=WEIGHT_DECAY, **kw
    ).train(X, Y)
    return model_fingerprint(model), [float(l).hex() for l in stats.losses]


def _progress(runner) -> int:
    """Samples done so far: the engine's count, which advances when a
    ``train()`` call returns, plus the completion count stage 0 of the
    live worker group keeps in shared memory."""
    group = runner._group
    done = runner.samples_completed
    return done if group is None else done + group.abort.completed.value


class _WorkerKiller:
    """SIGKILLs the worker hosting one stage once the run has made some
    progress.

    Waits until the runner has completed a couple of samples (so the
    kill lands mid-drive, with packets in flight) and then kills the
    requested worker process.  ``fired`` records whether a live process
    actually received the signal.
    """

    def __init__(self, runner, stage_index: int = 1, after_samples: int = 2):
        self.runner = runner
        self.stage_index = stage_index
        self.base = _progress(runner)
        self.after = after_samples
        self.fired = False
        self._thread = threading.Thread(target=self._run, daemon=True)

    def start(self):
        self._thread.start()
        return self

    def join(self):
        self._thread.join(30.0)

    def _run(self):
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            group = self.runner._group
            hosts = [] if group is None else [
                proc for proc, stages in zip(group.workers, group.groups)
                if self.stage_index in stages
            ]
            if (
                _progress(self.runner) >= self.base + self.after
                and hosts
                and hosts[0].pid is not None
            ):
                try:
                    os.kill(hosts[0].pid, signal.SIGKILL)
                    self.fired = True
                except ProcessLookupError:  # pragma: no cover - raced exit
                    pass
                return
            time.sleep(0.002)


class TestKillAndRecoverParity:
    """The acceptance matrix: SIGKILL mid-run, auto-recover, hex parity."""

    @pytest.mark.parametrize("label", sorted(SCHEDULES))
    def test_sigkill_worker_recovers_bit_exact(self, label):
        kw = SCHEDULES[label]
        X, Y = _stream(24)
        gold_weights, gold_losses = _sim_golden(kw, X, Y)

        model = FACTORY()
        runner = ProcessPipelineRunner(
            model, lr=LR, momentum=MOMENTUM, weight_decay=WEIGHT_DECAY,
            lockstep=True, max_restarts=2, stall_timeout=STALL, **kw,
        )
        killer = _WorkerKiller(runner, stage_index=1).start()
        stats = runner.train(X, Y)
        killer.join()
        assert killer.fired, "killer never found a live worker"
        assert runner.restarts_used >= 1, (
            "worker was SIGKILLed but no recovery was taken"
        )
        assert model_fingerprint(model) == gold_weights, (
            f"{label}: recovered weights drifted from the golden"
        )
        assert [float(l).hex() for l in stats.losses] == gold_losses, (
            f"{label}: recovered losses drifted from the golden"
        )

    def test_sigkill_during_free_running_synchronous_schedule(self):
        """Free-running fill_drain stays sequential-SGDM-deterministic
        through a crash: recovery replays to the same final weights."""
        kw = SCHEDULES["fill_drain"]
        X, Y = _stream(24, seed=13)
        gold_weights, _ = _sim_golden(kw, X, Y)
        model = FACTORY()
        runner = ProcessPipelineRunner(
            model, lr=LR, momentum=MOMENTUM, weight_decay=WEIGHT_DECAY,
            lockstep=False, max_restarts=2, stall_timeout=STALL, **kw,
        )
        killer = _WorkerKiller(runner, stage_index=2).start()
        runner.train(X, Y)
        killer.join()
        assert killer.fired
        assert runner.restarts_used >= 1
        assert model_fingerprint(model) == gold_weights

    def test_without_recovery_raises_runtime_error(self):
        """failing-before pin: max_restarts=0 keeps the fail-fast
        contract — a SIGKILLed worker raises PipelineRuntimeError."""
        X, Y = _stream(24)
        model = FACTORY()
        runner = ProcessPipelineRunner(
            model, lr=LR, momentum=MOMENTUM, mode="pb", lockstep=True,
            max_restarts=0, stall_timeout=15.0,
        )
        killer = _WorkerKiller(runner, stage_index=1).start()
        with pytest.raises(PipelineRuntimeError):
            runner.train(X, Y)
        killer.join()
        # the runner cleans up and stays usable for a fresh run
        assert runner._procs == []
        assert runner._rings == []
        ok = runner.train(*_stream(6, seed=1))
        assert ok.samples == 6

    def test_restart_budget_exhausted_raises(self):
        """Workers that die on every attempt exhaust max_restarts and
        surface the underlying PipelineRuntimeError."""
        X, Y = _stream(12)
        Y = Y.copy()
        Y[3] = 10_000  # deterministic worker crash (bad label index)
        model = FACTORY()
        runner = ProcessPipelineRunner(
            model, lr=LR, mode="pb", lockstep=True, max_restarts=2,
            stall_timeout=15.0,
        )
        with pytest.raises(PipelineRuntimeError):
            runner.train(X, Y)
        assert runner.restarts_used == 2

    def test_negative_max_restarts_rejected(self):
        with pytest.raises(ValueError, match="max_restarts"):
            ProcessPipelineRunner(FACTORY(), lr=LR, max_restarts=-1)


class TestKillThenResumeFromDisk:
    """Whole-job death: the last on-disk snapshot restores a fresh
    runner that finishes bit-exactly — with the crash being a real
    SIGKILL mid-segment, not a polite stop."""

    def test_sigkill_resume_from_checkpoint_parity(self, tmp_path, jittered):
        kw = SCHEDULES["pb"]
        every = 8
        n = 24

        def build():
            model = FACTORY()
            runner = ProcessPipelineRunner(
                model, lr=LR, momentum=MOMENTUM,
                weight_decay=WEIGHT_DECAY, lockstep=True,
                stall_timeout=STALL, **kw,
            )
            X, Y = _stream(n, seed=77)
            stream = ResumableSampleStream(X, Y, 1, new_rng(4))
            return model, runner, stream

        # golden: uninterrupted, cadence-matched
        m_gold, r_gold, s_gold = build()
        gold = DurableRun(r_gold, s_gold, checkpoint_every=every).run()

        # crashed run: snapshot to disk; a worker is SIGKILLed in the
        # second segment and max_restarts=0 turns it into a fatal error
        # — the "process died" scenario
        path = str(tmp_path / "crash.ckpt")
        m_dead, r_dead, s_dead = build()
        # lockstep workers complete the rest of a segment within the
        # killer's polling interval on a fast host: slow the doomed run
        # (forked workers inherit the shadows) so the kill lands
        # mid-segment, before the workers reply
        jittered(r_dead, 0.005, seed=1)
        killer = _WorkerKiller(r_dead, stage_index=1,
                               after_samples=every + 2).start()
        with pytest.raises(PipelineRuntimeError):
            DurableRun(
                r_dead, s_dead, checkpoint_path=path,
                checkpoint_every=every,
            ).run()
        killer.join()
        assert killer.fired

        # resume: fresh model/runner/stream, last snapshot, finish
        m_res, r_res, s_res = build()
        result = DurableRun.resume(path, r_res, s_res).run()
        assert model_fingerprint(m_res) == model_fingerprint(m_gold)
        assert [float(l).hex() for l in result.losses] == [
            float(l).hex() for l in gold.losses[every:]
        ]
