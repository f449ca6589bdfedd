"""Replica death and durable resume for the replicated runner.

A :class:`~repro.pipeline.runtime.ReplicatedPipelineRunner` must extend
both durability mechanisms of the process runtime across the replica
dimension:

* **in-flight recovery** (``max_restarts``): SIGKILL any one replica's
  stage worker mid-update and the whole replica group aborts, restores
  the master snapshot taken at the ``train()`` entry drain barrier,
  respawns every replica and replays — landing on **hex-identical**
  weights and losses to a crash-free run (which is itself bit-identical
  to one pipeline at ``R*U``);
* **on-disk resume** (:class:`DurableRun`): a replicated run whose
  whole process died resumes from the checkpoint file into freshly
  built engines/streams, bit-exact with the uninterrupted golden —
  checkpoint cadence aligns to *global* drain barriers because the
  replicated engine reports the global update size.
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
    ReplicatedPipelineRunner,
    model_fingerprint,
)
from repro.pipeline import runtime as runtime_module

pytestmark = pytest.mark.concurrency

STALL = 60.0
FACTORY = partial(small_cnn, num_classes=4, widths=(4,), seed=3)
LR, MOMENTUM, WEIGHT_DECAY = 0.05, 0.9, 1e-4


def _stream(n: int, seed: int = 13):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, 3, 8, 8)), rng.integers(0, 4, size=n)


def _make_engine(max_restarts: int = 0, update_size: int = 2,
                 replicas: int = 2):
    return ReplicatedPipelineRunner(
        FACTORY(), lr=LR, momentum=MOMENTUM, weight_decay=WEIGHT_DECAY,
        mode="fill_drain", update_size=update_size, replicas=replicas,
        model_factory=FACTORY, max_restarts=max_restarts,
        stall_timeout=STALL,
    )


def _sim_golden(X, Y, global_update: int = 4):
    model = FACTORY()
    stats = PipelineExecutor(
        model, lr=LR, momentum=MOMENTUM, weight_decay=WEIGHT_DECAY,
        mode="fill_drain", update_size=global_update,
    ).train(X, Y)
    return model_fingerprint(model), [float(l).hex() for l in stats.losses]


class _ReplicaWorkerKiller:
    """SIGKILLs one stage worker of one *replica* mid-drive.

    Waits until the replicated runner has globally completed a couple
    of samples (packets in flight in every replica), then kills the
    requested stage worker of the requested replica.  ``fired`` records
    whether a live process actually received the signal.
    """

    def __init__(self, runner, replica_index: int, stage_index: int = -1,
                 after_samples: int = 2):
        self.runner = runner
        self.replica_index = replica_index
        self.stage_index = stage_index
        self.after = after_samples
        self.fired = False
        self._thread = threading.Thread(target=self._run, daemon=True)

    def start(self):
        self._thread.start()
        return self

    def join(self):
        self._thread.join(30.0)

    def _progress(self) -> int:
        """Samples done so far: the master's count, which advances when
        a ``train()`` call returns, plus the completion counts stage 0
        of every live replica group keeps in shared memory."""
        done = self.runner.samples_completed
        for rep in self.runner.replica_runners:
            group = rep._group
            if group is not None:
                done += group.abort.completed.value
        return done

    def _run(self):
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            rep = self.runner.replica_runners[self.replica_index]
            procs = list(rep._procs)
            if (
                self._progress() >= self.after
                and procs
                and procs[self.stage_index].pid is not None
                and procs[self.stage_index].is_alive()
            ):
                try:
                    os.kill(procs[self.stage_index].pid, signal.SIGKILL)
                    self.fired = True
                except ProcessLookupError:  # pragma: no cover - raced exit
                    pass
                return
            time.sleep(0.002)


class TestReplicaDeathRecovery:
    @pytest.mark.parametrize("share", [1, 2])
    @pytest.mark.parametrize("replica_index", [0, 1])
    def test_sigkill_replica_worker_recovers_bit_exact(
        self, monkeypatch, replica_index, share
    ):
        """Killing either replica's last worker mid-update, with one or
        two stage groups per replica (``share`` CPUs each), must recover
        the whole group to the crash-free trajectory."""
        monkeypatch.setattr(runtime_module, "usable_cpus", lambda: 2 * share)
        X, Y = _stream(16)
        gold_weights, gold_losses = _sim_golden(X, Y)

        engine = _make_engine(max_restarts=2)
        killer = _ReplicaWorkerKiller(engine, replica_index).start()
        stats = engine.train(X, Y)
        killer.join()
        assert killer.fired, "killer never found a live replica worker"
        assert engine.restarts_used >= 1, (
            "a replica worker was SIGKILLed but no recovery was taken"
        )
        assert model_fingerprint(engine.model) == gold_weights, (
            f"replica {replica_index} death: recovered weights drifted"
        )
        assert [float(l).hex() for l in stats.losses] == gold_losses, (
            f"replica {replica_index} death: recovered losses drifted"
        )

    def test_without_recovery_raises_runtime_error(self):
        """max_restarts=0: a replica death is a loud PipelineRuntimeError
        (and tears down every replica), never a hang or silent skip."""
        X, Y = _stream(16)
        engine = _make_engine(max_restarts=0)
        killer = _ReplicaWorkerKiller(engine, replica_index=1).start()
        with pytest.raises(PipelineRuntimeError):
            engine.train(X, Y)
        killer.join()
        assert killer.fired
        # the group is fully torn down — no leaked worker processes
        for rep in engine.replica_runners:
            assert not rep._procs

    def test_recovery_restores_master_snapshot_before_replay(self):
        """After recovery, per-stage update counts match the crash-free
        run (no double-applied updates from the aborted attempt)."""
        X, Y = _stream(16)
        ref_engine = _make_engine()
        ref_stats = ref_engine.train(X, Y)

        engine = _make_engine(max_restarts=2)
        killer = _ReplicaWorkerKiller(engine, replica_index=1).start()
        stats = engine.train(X, Y)
        killer.join()
        assert killer.fired
        assert stats.updates_per_stage == ref_stats.updates_per_stage
        assert stats.samples == ref_stats.samples == 16


class TestReplicatedDurableRun:
    def _make_stream(self, n: int = 24):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(n, 3, 8, 8))
        Y = rng.integers(0, 4, size=n)
        return ResumableSampleStream(
            X, Y, epochs=1, rng=np.random.default_rng(5)
        )

    def test_checkpoint_resume_parity(self, tmp_path):
        """Interrupt a replicated DurableRun after a snapshot, resume a
        freshly built engine+stream from disk: hex-identical tail losses
        and final weights vs the uninterrupted golden."""
        path = str(tmp_path / "replicated.ckpt")

        golden_engine = _make_engine()
        golden = DurableRun(
            golden_engine, self._make_stream(), checkpoint_every=8
        ).run()
        golden_fp = model_fingerprint(golden_engine.model)

        # "the job dies" after 16 of 24 samples (two checkpoints in)
        int_engine = _make_engine()
        DurableRun(
            int_engine, self._make_stream(), checkpoint_path=path,
            checkpoint_every=8,
        ).run(max_samples=16)

        resumed_engine = _make_engine()
        run = DurableRun.resume(path, resumed_engine, self._make_stream())
        resumed = run.run()
        assert resumed_engine.samples_completed == 24
        gold_tail = [float(l).hex() for l in golden.losses[16:]]
        res_losses = [float(l).hex() for l in resumed.losses]
        assert res_losses == gold_tail
        assert model_fingerprint(resumed_engine.model) == golden_fp

    def test_checkpoint_cadence_uses_global_update_size(self):
        """R=2 x U=2: DurableRun rounds the cadence up to multiples of
        the *global* update size 4, so snapshots only land on global
        drain barriers where all replicas agree."""
        engine = _make_engine()
        run = DurableRun(engine, self._make_stream(), checkpoint_every=5)
        assert engine.update_size == 4
        assert run.checkpoint_every == 8
