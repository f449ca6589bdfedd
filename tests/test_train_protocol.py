"""The training protocol: no parent on the hot path, on both hosts.

Stage 0 reads its own packets from its spec, every worker sends one
reply when its column ends, and the parent sends nothing.  Its waits
detect a stall by progress alone: the deadline restarts whenever stage
0's completion count, shared state beside the abort flag, moves.  These
tests pin:

* **(a)** a stage whose backward blocks fails the run within the stall
  timeout (plus launch and teardown), with an error that names a stage;
* **(b)** a healthy run several stall timeouts long, slowed by seeded
  sleeps, does not stall: progress keeps restarting the deadline;
* **(c)** no channel flows into stage 0, the parent writes no packet and
  sends no message, and it receives exactly one reply per stage;
* **(d)** under ``spawn`` the packets travel in the pickled spec, and
  the run stays hex-equal to the simulator.
"""

from __future__ import annotations

import os
import re
import sys
import threading
import time
from functools import partial

import numpy as np
import pytest

from repro.models.simple import small_cnn
from repro.pipeline import (
    PipelineExecutor,
    ProcessPipelineRunner,
    make_pipeline_engine,
    model_fingerprint,
)
from repro.pipeline import worker
from repro.pipeline.transport import ShmRing
from repro.pipeline.worker import LocalChannel, WorkerGroup

pytestmark = pytest.mark.concurrency

FACTORY = partial(small_cnn, num_classes=4, widths=(4,), seed=3)
HOSTS = ["threaded", "process"]


def _stream(n: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, 3, 8, 8)), rng.integers(0, 4, size=n)


def _hex(values) -> list[str]:
    return [float(v).hex() for v in values]


def _wait_for_abort(abort, limit: float = 30.0) -> None:
    deadline = time.monotonic() + limit
    while not abort.is_set() and time.monotonic() < deadline:
        time.sleep(0.005)


class TestStallDetection:
    @pytest.mark.parametrize("runtime", HOSTS)
    def test_blocked_backward_fails_within_the_stall_timeout(
        self, runtime, monkeypatch
    ):
        """(a) Stage 1's backward of packet 2 blocks until the run is
        aborted: no completion moves, so the parent's wait gives up one
        stall timeout after the last one, and teardown is prompt."""
        stall = 1.0
        aborts: list = []
        real_main = worker._worker_main

        def main(spec):  # forked workers run this too
            aborts.append(spec.abort)
            real_main(spec)

        monkeypatch.setattr(worker, "_worker_main", main)
        engine = make_pipeline_engine(
            runtime, FACTORY(), lr=0.05, mode="pb", lockstep=False,
            stall_timeout=stall,
        )
        stage = engine.stages[1]
        real_backward = stage.backward

        def backward(pid, grads):
            if pid == 2:
                _wait_for_abort(aborts[-1])
            return real_backward(pid, grads)

        stage.backward = backward
        t0 = time.perf_counter()
        with pytest.raises(RuntimeError) as err:
            engine.train(*_stream(8))
        elapsed = time.perf_counter() - t0
        assert elapsed < stall + 1.0, f"failed after {elapsed:.2f}s"
        assert re.search(r"stage \d", str(err.value)), str(err.value)
        # the next pipeline in the same interpreter is unaffected
        other = make_pipeline_engine(runtime, FACTORY(), lr=0.05, mode="pb")
        assert other.train(*_stream(4, seed=1)).samples == 4

    @pytest.mark.parametrize("runtime", HOSTS)
    def test_slow_healthy_run_outlasts_the_stall_timeout(
        self, runtime, jittered, monkeypatch
    ):
        """(b) Seeded sleeps stretch the run past three stall timeouts;
        every completion restarts the deadline, so it finishes, and the
        shared count, read by the parent while stage 0 writes it, ends
        at the sample count."""
        stall = 0.3
        n = 48
        X, Y = _stream(n)
        counts: list[int] = []
        real_teardown = WorkerGroup.teardown

        def teardown(group, failed):
            counts.append(group.abort.completed.value)
            real_teardown(group, failed)

        monkeypatch.setattr(WorkerGroup, "teardown", teardown)
        engine = jittered(
            make_pipeline_engine(
                runtime, FACTORY(), lr=0.05, mode="pb", lockstep=True,
                stall_timeout=stall,
            ),
            0.03, seed=4,
        )
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            t0 = time.perf_counter()
            stats = engine.train(X, Y)
            elapsed = time.perf_counter() - t0
        finally:
            sys.setswitchinterval(interval)
        assert elapsed >= 3 * stall, f"run too short ({elapsed:.2f}s)"
        assert counts == [n]
        model = FACTORY()
        sim = PipelineExecutor(model, lr=0.05, mode="pb").train(X, Y)
        assert _hex(stats.losses) == _hex(sim.losses)


class TestNoParentOnTheHotPath:
    @pytest.mark.parametrize("runtime", HOSTS)
    def test_parent_sends_nothing_and_reads_one_reply_per_worker(
        self, runtime, monkeypatch
    ):
        """(c) The launch builds no channel into stage 0; the parent
        writes no packet, sends no control message and receives exactly
        ``num_stages`` replies."""
        me = (os.getpid(), threading.get_ident())
        labels: list[str] = []
        parent_writes: list[str] = []
        sent: list = []
        received: list = []

        real_create = ShmRing.create.__func__

        def create(cls, label, arrays, slots):
            labels.append(label)
            return real_create(cls, label, arrays, slots)

        monkeypatch.setattr(ShmRing, "create", classmethod(create))
        real_init = LocalChannel.__init__

        def init(channel, cond, slots, label):
            labels.append(label)
            real_init(channel, cond, slots, label)

        monkeypatch.setattr(LocalChannel, "__init__", init)
        for cls in (ShmRing, LocalChannel):
            for name in ("send", "try_send"):

                def spy(channel, *args, _real=getattr(cls, name), **kw):
                    if (os.getpid(), threading.get_ident()) == me:
                        parent_writes.append(channel.label)
                    return _real(channel, *args, **kw)

                monkeypatch.setattr(cls, name, spy)
        for name, log in (("send", sent), ("broadcast", sent),
                          ("recv", received)):

            def record(group, *args, _real=getattr(WorkerGroup, name),
                       _log=log, **kw):
                _log.append(args)
                return _real(group, *args, **kw)

            monkeypatch.setattr(WorkerGroup, name, record)

        engine = make_pipeline_engine(
            runtime, FACTORY(), lr=0.05, mode="gpipe", update_size=4,
            micro_batch_size=2, lockstep=False,
        )
        stats = engine.train(*_stream(12))
        S = engine.num_stages
        assert labels, "no channel was built"
        assert not [l for l in labels if re.match(r"fwd\[.*->0\]$", l)]
        assert parent_writes == []
        assert sent == []
        assert len(received) == S
        assert stats.control["msgs_received"] == S
        assert stats.control["msgs_per_step"] == S / stats.time_steps
        assert stats.wall_seconds > 0.0


class TestSpawnShipsTheInputs:
    @pytest.mark.concurrency(timeout=300)
    def test_spawn_gpipe_with_lr_schedule_is_hex_equal(self, monkeypatch):
        """(d) Spawned workers rebuild their stage; stage 0's packets —
        a width-2 gpipe stream with a tail packet — ride in its pickled
        spec, and the run matches the simulator bit for bit."""
        specs: list = []
        real_init = worker._WorkerSpec.__init__

        def init(spec, *args, **kwargs):
            real_init(spec, *args, **kwargs)
            specs.append(spec)

        monkeypatch.setattr(worker._WorkerSpec, "__init__", init)
        X, Y = _stream(11)
        kw = dict(
            lr=0.05, momentum=0.9, mode="gpipe", update_size=4,
            micro_batch_size=2, lr_schedule=lambda done: 0.05 / (1 + done),
        )
        m_sim, m_spawn = FACTORY(), FACTORY()
        sim = PipelineExecutor(m_sim, **kw).train(X, Y)
        run = ProcessPipelineRunner(
            m_spawn, lockstep=True, model_factory=FACTORY,
            start_method="spawn", stall_timeout=240.0, **kw,
        ).train(X, Y)
        assert specs[0].fwd_in is None and specs[0].stages is None
        assert [(p[1], p[2]) for p in specs[0].inputs] == [
            (0, 2), (2, 2), (4, 2), (6, 2), (8, 2), (10, 1)
        ]
        assert all(s.inputs is None for s in specs[1:])
        assert _hex(run.losses) == _hex(sim.losses)
        assert model_fingerprint(m_spawn) == model_fingerprint(m_sim)
