"""Inference sessions + forward-only pipeline: the serving parity contract.

The acceptance bar of ``repro.serve``: for any request set, serving
outputs are **bit-exact** with the offline batched forward on the same
weights, for all three runtimes.  Because BLAS kernels round
differently for different GEMM widths, the offline reference is the
batched forward over the *same micro-batch packets* the pipeline
executes (``InferenceSession.forward_reference``); these tests pin that
equality at hex level per backend, pin the backends against each
other, and cover the forward-only packet width, the inference-only
checkpoint restore, and a training engine served through
``InferenceSession.from_engine``.
"""

from __future__ import annotations

import multiprocessing
import os
import sys
import threading
import time
from functools import partial

import numpy as np
import pytest

from repro.models.simple import small_cnn
from repro.pipeline import (
    ConcurrentPipelineRunner,
    InferenceSchedule,
    InferenceStreamError,
    PipelineExecutor,
    ProcessPipelineRunner,
    Schedule,
    inference,
    make_schedule,
    run_inference,
)
from repro.pipeline.checkpoint import (
    CheckpointError,
    capture_checkpoint,
    checkpoint_fingerprint,
    model_fingerprint,
    save_checkpoint,
)
from repro.serve import InferenceSession
from repro.serve.fleet import ReplicaSpec
from repro.serve.fleet import router as fleet_router

from test_stage_state import BN_FACTORY, BN_SCHEDULE, bn_stream

FACTORY = partial(small_cnn, num_classes=10, widths=(8, 16), seed=11)
SHAPE = (3, 8, 8)


def _requests(n: int, seed: int = 0) -> np.ndarray:
    return np.random.default_rng(seed).normal(size=(n,) + SHAPE)


def _hex(a: np.ndarray) -> list[str]:
    return [v.hex() for v in np.asarray(a, dtype=np.float64).ravel()]


def _trained_model():
    model = FACTORY()
    X = _requests(24, seed=5)
    Y = np.random.default_rng(6).integers(0, 10, size=24)
    PipelineExecutor(model, lr=0.02, momentum=0.9, mode="pb").train(X, Y)
    return model


@pytest.mark.concurrency
class TestServingParity:
    """Bit-exactness across backends and against the offline reference."""

    @pytest.mark.parametrize("runtime", ["sim", "threaded", "process"])
    @pytest.mark.parametrize("micro", [1, 3, 8])
    def test_backend_matches_offline_reference(self, runtime, micro):
        model = _trained_model()
        session = InferenceSession(
            model, runtime=runtime, micro_batch=micro,
            sample_shape=SHAPE, model_factory=FACTORY,
        )
        X = _requests(19)  # deliberately not a multiple of micro
        ref = session.forward_reference(X, micro_batch=micro)
        stats = session.infer(X)
        assert stats.samples == 19
        assert stats.backend == runtime
        assert _hex(stats.outputs) == _hex(ref)
        # per-stage counters are real measurements on every backend
        # (the process stream only learns them at teardown — regression
        # pin against returning fabricated zeros)
        packets = -(-19 // micro)
        for c in stats.stages[:-1]:
            assert c.forward_ops == packets
            assert c.forward_samples == 19

    @pytest.mark.parametrize("runtime", ["threaded", "process"])
    def test_close_collects_every_counter_every_time(self, runtime):
        """``close()`` sends finalize and then sets the abort flag; a
        worker that sees the flag first must still answer the finalize
        sent before it (a lost reply showed up as ``forward_ops == 0``
        about every other run)."""
        session = InferenceSession(
            _trained_model(), runtime=runtime, micro_batch=3,
            sample_shape=SHAPE, model_factory=FACTORY,
        )
        X = _requests(19)
        for run in range(30):
            stats = session.infer(X)
            ops = [c.forward_ops for c in stats.stages[:-1]]
            assert ops == [7] * (session.num_stages - 1), f"run {run}: {ops}"

    @pytest.mark.parametrize("cpus", [1, 2, 8], ids=["k1", "k2", "kn"])
    def test_threaded_worker_death_surfaces_and_closes_cleanly(
        self, cpus, monkeypatch
    ):
        """A stage raising on its third packet turns into an
        InferenceStreamError naming that stage at the stream's ends, and
        the stream still closes: no worker thread left, eval mode handed
        back — however many lanes run the stage.  The fault is armed
        after ``open_stream``: the layout probe forwards every stage
        too."""
        monkeypatch.setattr(inference, "usable_cpus", lambda: cpus)
        model = _trained_model()
        model.train(True)
        session = InferenceSession(
            model, runtime="threaded", micro_batch=2, sample_shape=SHAPE
        )
        stream = session.open_stream()
        assert len(stream.cpus) == cpus
        stage = session.stages[1]
        original, calls = stage.forward, {"n": 0}

        def flaky_forward(pid, payload, train=True):
            calls["n"] += 1
            if calls["n"] == 3:
                raise ValueError("injected stage failure")
            return original(pid, payload, train)

        stage.forward = flaky_forward
        X = _requests(2)
        deadline = time.monotonic() + 30.0
        with pytest.raises(InferenceStreamError, match="stage 1"):
            pid = 0
            while time.monotonic() < deadline:
                pid += stream.submit(pid, pid, X)
                stream.poll()
        # the failure is sticky: both ends keep raising it
        with pytest.raises(InferenceStreamError):
            stream.submit(99, 99, X)
        with pytest.raises(InferenceStreamError):
            stream.poll()
        stream.close()
        assert not [
            t.name for t in threading.enumerate()
            if t.name.startswith("infer-stage-")
        ]
        assert model.training is True

    @pytest.mark.parametrize("cpus", [1, 2], ids=["k1", "k2"])
    def test_process_worker_death_surfaces_and_closes_cleanly(
        self, cpus, monkeypatch
    ):
        """The process-host twin of the threaded test above.  A forked
        lane inherits the stage, shadow included, so the fault is armed
        before ``open_stream``: the parent's layout probe is its first
        call, and every lane raises on its own second packet."""
        monkeypatch.setattr(inference, "usable_cpus", lambda: cpus)
        model = _trained_model()
        model.train(True)
        session = InferenceSession(
            model, runtime="process", micro_batch=2, sample_shape=SHAPE
        )
        stage = session.stages[1]
        original, calls = stage.forward, {"n": 0}

        def flaky_forward(pid, payload, train=True):
            calls["n"] += 1
            if calls["n"] == 3:
                raise ValueError("injected stage failure")
            return original(pid, payload, train)

        stage.forward = flaky_forward
        stream = session.open_stream()
        assert len(stream.cpus) == cpus
        assert calls["n"] == 1  # the layout probe, in this process
        X = _requests(2)
        deadline = time.monotonic() + 60.0
        with pytest.raises(InferenceStreamError, match="stage 1"):
            pid = 0
            while time.monotonic() < deadline:
                pid += stream.submit(pid, pid, X)
                stream.poll()
        with pytest.raises(InferenceStreamError):
            stream.submit(99, 99, X)
        with pytest.raises(InferenceStreamError):
            stream.poll()
        stream.close()
        assert not [
            p.name for p in multiprocessing.active_children()
            if p.name.startswith("infer-stage-")
        ]
        assert model.training is True

    @pytest.mark.parametrize("runtime", ["threaded", "process"])
    def test_close_with_queued_packets_returns_every_lane(
        self, runtime, monkeypatch
    ):
        """``close()`` while every lane's in channel still holds
        packets: each lane answers the finalize after the packet in
        hand, leaves the rest, and its counters come back."""
        monkeypatch.setattr(inference, "usable_cpus", lambda: 2)
        session = InferenceSession(
            _trained_model(), runtime=runtime, micro_batch=2, capacity=4,
            sample_shape=SHAPE, model_factory=FACTORY,
        )
        stage = session.stages[0]
        original = stage.forward

        def slow_forward(pid, payload, train=True):
            time.sleep(0.25)
            return original(pid, payload, train)

        stage.forward = slow_forward  # before open: forked lanes too
        X = _requests(2)
        stream = session.open_stream()
        pid = 0
        while stream.submit(pid, pid, X):
            pid += 1
        assert pid == 2 * 4  # every lane's in channel is full
        stream.close()
        lanes = stream.lane_counters
        assert len(lanes) == 2
        compute = session.num_stages - 1
        assert all(
            [c.index for c in lane] == list(range(compute)) for lane in lanes
        )
        done = [lane[0].forward_ops for lane in lanes]
        assert sum(done) < pid, done  # packets were left in the channels
        assert [c.forward_ops for c in stream.counters[:compute]] == (
            [sum(done)] * compute
        )

    @pytest.mark.parametrize("cpus", [1, 2, "n"], ids=["k1", "k2", "kn"])
    @pytest.mark.parametrize(
        "kw",
        [
            dict(runtime="sim"),
            dict(runtime="threaded"),
            dict(runtime="process"),
            dict(runtime="process", start_method="spawn",
                 stall_timeout=240.0),
        ],
        ids=["sim", "threaded", "fork", "spawn"],
    )
    def test_lane_stream_matches_offline_reference(
        self, kw, cpus, monkeypatch
    ):
        """However many lanes the stream runs — one, two, or one per
        compute stage — served logits are bit-exact with the reference,
        and every stage's forwards, summed over the lanes, are the
        packets and samples sent."""
        model = _trained_model()
        n = model.num_stages - 1
        k = n if cpus == "n" else cpus
        monkeypatch.setattr(inference, "usable_cpus", lambda: k)
        session = InferenceSession(
            model, micro_batch=3, sample_shape=SHAPE, model_factory=FACTORY,
            **kw,
        )
        X = _requests(19)
        stream = session.open_stream()
        try:
            stats = run_inference(
                stream, InferenceSchedule(3), X, session.num_stages
            )
        finally:
            stream.close()
        assert _hex(stats.outputs) == _hex(
            session.forward_reference(X, micro_batch=3)
        )
        assert [c.index for c in stream.counters] == list(range(n + 1))
        assert [c.forward_ops for c in stream.counters[:-1]] == [7] * n
        assert [c.forward_samples for c in stream.counters[:-1]] == [19] * n
        if kw["runtime"] != "sim":
            assert len(stream.cpus) == len(stream.lane_counters) == k
            placement = stream.placement()
            assert sum(lane["packets"] for lane in placement) == 7
            # a lane runs every compute stage on each of its packets
            for lane, counters in zip(placement, stream.lane_counters):
                assert [c.index for c in counters] == list(range(n))
                assert [c.forward_ops for c in counters] == (
                    [lane["packets"]] * n
                )

    def test_all_backends_agree_bitwise(self):
        model = _trained_model()
        X = _requests(13)
        outs = {}
        for runtime in ("sim", "threaded", "process"):
            session = InferenceSession(
                model, runtime=runtime, micro_batch=4,
                sample_shape=SHAPE, model_factory=FACTORY,
            )
            outs[runtime] = session.infer(X).outputs
        assert _hex(outs["sim"]) == _hex(outs["threaded"])
        assert _hex(outs["sim"]) == _hex(outs["process"])

    def test_serving_leaves_weights_untouched(self):
        model = _trained_model()
        before = model_fingerprint(model)
        session = InferenceSession(
            model, runtime="threaded", micro_batch=4, sample_shape=SHAPE
        )
        session.infer(_requests(16))
        assert model_fingerprint(model) == before

    def test_infer_is_repeatable(self):
        """No hidden state: the same batch twice is bit-identical."""
        model = _trained_model()
        session = InferenceSession(
            model, runtime="sim", micro_batch=4, sample_shape=SHAPE
        )
        X = _requests(10)
        assert _hex(session.infer(X).outputs) == _hex(
            session.infer(X).outputs
        )

    def test_infer_restores_training_mode(self):
        model = _trained_model()
        model.train(True)
        session = InferenceSession(
            model, runtime="sim", micro_batch=4, sample_shape=SHAPE
        )
        session.infer(_requests(4))
        assert model.training is True

    def test_failed_stream_open_restores_training_mode(self):
        """A stream constructor that dies mid-setup (here: a probe pass
        over a wrong sample shape) must not leak eval mode onto a model
        that is still being trained."""
        model = _trained_model()
        model.train(True)
        session = InferenceSession(
            model, runtime="process", micro_batch=4,
            sample_shape=(5, 5), model_factory=FACTORY,
        )
        with pytest.raises(Exception):
            session.open_stream()
        assert model.training is True


@pytest.mark.concurrency
class TestLanes:
    """Where the lanes run and what each was given: pinned one CPU per
    lane, every lane used under load, and both visible through the
    session."""

    @pytest.mark.skipif(
        inference.usable_cpus() < 2, reason="needs two CPUs to pin two lanes"
    )
    def test_process_lanes_run_on_distinct_pinned_cpus(self):
        session = InferenceSession(
            _trained_model(), runtime="process", micro_batch=3,
            sample_shape=SHAPE, model_factory=FACTORY,
        )
        with session.open_stream() as stream:
            run_inference(
                stream, InferenceSchedule(3), _requests(19), session.num_stages
            )
        # each lane's own counts sit on its first member's counters
        pins = [counters[0].cpus for counters in stream.lane_counters]
        assert len(pins) == inference.usable_cpus()
        assert pins == [(cpu,) for cpu in stream.cpus]
        assert len(set(pins)) == len(pins)

    @pytest.mark.parametrize("runtime", ["threaded", "process"])
    def test_saturated_stream_puts_packets_on_every_lane(
        self, runtime, monkeypatch
    ):
        """Packets submitted faster than they are polled spread over
        both lanes (the least loaded one with room takes each), and
        ``submit`` refuses only when every lane is full."""
        monkeypatch.setattr(inference, "usable_cpus", lambda: 2)
        session = InferenceSession(
            _trained_model(), runtime=runtime, micro_batch=2, capacity=2,
            sample_shape=SHAPE, model_factory=FACTORY,
        )
        X = _requests(2)
        with session.open_stream() as stream:
            pid = 0
            while stream.submit(pid, pid, X):
                pid += 1
            packets = [lane["packets"] for lane in stream.placement()]
            assert all(packets), packets
            assert sum(packets) == pid
            got = 0
            while got < pid:
                stream.wait(10.0)
                got += len(stream.poll())
            assert stream.wait(10.0, space=True)

    def test_worker_stream_reports_its_lanes(self, monkeypatch):
        monkeypatch.setattr(inference, "usable_cpus", lambda: 2)
        session = InferenceSession(
            FACTORY(), runtime="threaded", micro_batch=2, sample_shape=SHAPE
        )
        assert "lanes=" not in session.describe()
        assert session.placement() == {"lanes": None}
        with session.open_stream() as stream:
            assert session.placement() == {
                "lanes": [
                    {"cpu": cpu, "packets": 0}
                    for cpu in inference.lane_cpus(2)
                ]
            }
            run_inference(
                stream, InferenceSchedule(2), _requests(9), session.num_stages
            )
        lanes = session.placement()["lanes"]
        assert lanes == stream.placement()
        assert sum(lane["packets"] for lane in lanes) == 5
        assert f"lanes={lanes}" in session.describe()

    @pytest.mark.parametrize("runtime", ["threaded", "process"])
    def test_two_ends_on_two_threads_lose_no_packet(
        self, runtime, monkeypatch
    ):
        """The server's shape, stressed: one thread submits, another
        polls, over more lanes than cores, with thread switches forced
        often.  Each end keeps its own per-lane counts, so every packet
        is dispatched, counted and returned exactly once."""
        monkeypatch.setattr(inference, "usable_cpus", lambda: 4)
        session = InferenceSession(
            _trained_model(), runtime=runtime, micro_batch=1, capacity=2,
            sample_shape=SHAPE, model_factory=FACTORY,
        )
        n, X = 300, _requests(1)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with session.open_stream() as stream:

                def feed():
                    for pid in range(n):
                        while not stream.submit(pid, pid, X):
                            stream.wait(10.0, space=True)

                feeder = threading.Thread(target=feed)
                feeder.start()
                got = []
                deadline = time.monotonic() + 60.0
                while len(got) < n and time.monotonic() < deadline:
                    stream.wait(1.0)
                    got += [pid for pid, _, _ in stream.poll()]
                feeder.join(10.0)
                assert not feeder.is_alive()
        finally:
            sys.setswitchinterval(switch)
        assert sorted(got) == list(range(n))
        assert sum(lane["packets"] for lane in stream.placement()) == n
        assert [c.forward_ops for c in stream.counters[:-1]] == (
            [n] * (session.num_stages - 1)
        )

    def test_sim_stream_has_no_lanes(self):
        session = InferenceSession(
            FACTORY(), runtime="sim", micro_batch=2, sample_shape=SHAPE
        )
        with session.open_stream():
            pass
        assert session.placement() == {"lanes": None}

    @pytest.mark.parametrize("runtime", ["threaded", "process"])
    def test_every_lane_runs_on_its_pinned_cpu(self, runtime, monkeypatch):
        """Lane ``w`` runs on ``cpus[w]``, the mask's CPUs round robin —
        also with more lanes than CPUs, so any host checks it."""
        monkeypatch.setattr(inference, "usable_cpus", lambda: 3)
        session = InferenceSession(
            _trained_model(), runtime=runtime, micro_batch=2, capacity=1,
            sample_shape=SHAPE, model_factory=FACTORY,
        )
        seen: dict[str, set] = {}
        stream = session.open_stream()
        stage = session.stages[0]
        original = stage.forward

        def recorded(pid, payload, train=True):
            seen.setdefault(threading.current_thread().name, set()).add(
                frozenset(os.sched_getaffinity(0))
            )
            return original(pid, payload, train)

        # thread lanes run the parent's stage objects; process lanes
        # forked before this and report their pin in their counters
        stage.forward = recorded
        try:
            with stream:
                run_inference(
                    stream, InferenceSchedule(2), _requests(12),
                    session.num_stages,
                )
        finally:
            del stage.forward
        assert stream.cpus == inference.lane_cpus(3)
        assert all(lane["packets"] for lane in stream.placement())
        if runtime == "threaded":
            assert seen == {
                f"infer-stage-{w}": {frozenset({cpu})}
                for w, cpu in enumerate(stream.cpus)
            }
        else:
            assert not seen
            assert [counters[0].cpus for counters in stream.lane_counters] == [
                (cpu,) for cpu in stream.cpus
            ]

    @pytest.mark.parametrize("runtime", ["threaded", "process"])
    def test_lanes_leave_batchnorm_buffers_and_mode_alone(
        self, runtime, monkeypatch
    ):
        """A model still in training serves through two lanes in eval
        mode: its running statistics are read, never updated, and its
        mode is handed back at close."""
        monkeypatch.setattr(inference, "usable_cpus", lambda: 2)
        model = BN_FACTORY()
        model.train(True)
        before = model_fingerprint(model)
        session = InferenceSession(
            model, runtime=runtime, micro_batch=4, sample_shape=(3, 8, 8),
            model_factory=BN_FACTORY,
        )
        X = bn_stream(n=18, seed=3)[0]
        outputs = session.infer(X).outputs
        assert model.training is True
        assert model_fingerprint(model) == before
        assert _hex(outputs) == _hex(session.forward_reference(X))

    @pytest.mark.parametrize("runtime", ["sim", "threaded", "process"])
    def test_closed_stream_refuses_every_end(self, runtime, monkeypatch):
        """Once closed, every end of a lane stream raises, and closing
        again changes nothing: each lane's counters are summed once."""
        monkeypatch.setattr(inference, "usable_cpus", lambda: 2)
        session = InferenceSession(
            _trained_model(), runtime=runtime, micro_batch=2,
            sample_shape=SHAPE, model_factory=FACTORY,
        )
        stream = session.open_stream()
        run_inference(
            stream, InferenceSchedule(2), _requests(6), session.num_stages
        )
        stream.close()
        ops = [c.forward_ops for c in stream.counters]
        stream.close()
        assert [c.forward_ops for c in stream.counters] == ops
        assert ops[:-1] == [3] * (session.num_stages - 1)
        X = _requests(2)
        with pytest.raises(InferenceStreamError, match="closed"):
            stream.submit(0, 0, X)
        with pytest.raises(InferenceStreamError, match="closed"):
            stream.poll()
        with pytest.raises(InferenceStreamError, match="closed"):
            stream.wait(0.01)
        with pytest.raises(InferenceStreamError, match="closed"):
            stream.wait(0.01, space=True)


@pytest.mark.concurrency
class TestLaneDispatch:
    """``submit``'s choice of lane on a two-lane thread stream, made
    observable by holding chosen packets inside stage 0's forward: the
    least loaded lane with a free slot takes each packet, and only a
    stream whose every lane is full refuses one."""

    @pytest.fixture
    def gated(self, monkeypatch):
        """An open two-lane stream whose stage 0 holds every packet
        ``hold(pid)`` selects until ``gate`` is set; ``entered`` counts
        the packets being held."""
        monkeypatch.setattr(inference, "usable_cpus", lambda: 2)
        session = InferenceSession(
            _trained_model(), runtime="threaded", micro_batch=2, capacity=2,
            sample_shape=SHAPE,
        )
        stream = session.open_stream()
        stage = session.stages[0]
        original = stage.forward
        ctl = dict(
            gate=threading.Event(),
            entered=threading.Semaphore(0),
            hold=lambda pid: True,
        )

        def held(pid, payload, train=True):
            if ctl["hold"](pid):
                ctl["entered"].release()
                ctl["gate"].wait(30.0)
            return original(pid, payload, train)

        stage.forward = held
        try:
            yield session, stream, ctl
        finally:
            ctl["gate"].set()
            stream.close()
            del stage.forward

    @staticmethod
    def _collect(stream, n: int) -> dict:
        got = {}
        deadline = time.monotonic() + 30.0
        while len(got) < n and time.monotonic() < deadline:
            stream.wait(1.0)
            got.update((pid, out) for pid, _, out in stream.poll())
        assert len(got) == n
        return got

    def test_packets_alternate_while_nothing_returns(self, gated):
        session, stream, ctl = gated
        X = _requests(2)
        # every in channel starts with `capacity` free slots
        for pid in range(2 * stream.capacity):
            assert stream.submit(pid, pid, X)
            assert [lane["packets"] for lane in stream.placement()] == [
                pid // 2 + 1, (pid + 1) // 2
            ]
        ctl["gate"].set()
        got = self._collect(stream, 2 * stream.capacity)
        want = _hex(session.forward_reference(X))
        assert all(_hex(out) == want for out in got.values())

    def test_least_loaded_lane_takes_the_packet(self, gated):
        """Lane 0 still holds packet 0 when packet 1 has come back from
        lane 1, so packet 2 goes to lane 1 — by outstanding packets, not
        round robin — and packet 3 to lane 0 on the tie."""
        session, stream, ctl = gated
        ctl["hold"] = lambda pid: pid == 0
        X = _requests(2)
        assert stream.submit(0, 0, X)
        assert stream.submit(1, 1, X)
        assert ctl["entered"].acquire(timeout=10.0)
        assert list(self._collect(stream, 1)) == [1]
        assert stream.submit(2, 2, X)
        assert [lane["packets"] for lane in stream.placement()] == [1, 2]
        assert stream.submit(3, 3, X)
        assert [lane["packets"] for lane in stream.placement()] == [2, 2]
        ctl["gate"].set()
        got = self._collect(stream, 3)
        assert sorted(got) == [0, 2, 3]
        want = _hex(session.forward_reference(X))
        assert all(_hex(out) == want for out in got.values())

    def test_refused_only_when_every_lane_is_full(self, gated):
        session, stream, ctl = gated
        X = _requests(2)
        assert stream.submit(0, 0, X)
        assert stream.submit(1, 1, X)
        # both lanes hold a packet inside stage 0: nothing moves now
        for _ in range(2):
            assert ctl["entered"].acquire(timeout=10.0)
        pid = 2
        while stream.submit(pid, pid, X):
            pid += 1
        assert not any(ins.has_free_slot() for ins, _ in stream._group.lanes)
        packets = [lane["packets"] for lane in stream.placement()]
        assert packets[0] == packets[1] and sum(packets) == pid
        assert not stream.wait(0.05, space=True)
        ctl["gate"].set()
        assert stream.wait(10.0, space=True)
        assert sorted(self._collect(stream, pid)) == list(range(pid))


class TestLaneCpus:
    """How many lanes a stream opens and where each runs, from the
    affinity mask alone."""

    def test_usable_cpus_counts_the_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {2, 5, 7},
                            raising=False)
        assert inference.usable_cpus() == 3

    @pytest.mark.parametrize("count, want", [(6, 6), (None, 1)])
    def test_usable_cpus_without_a_mask_counts_the_machine(
        self, count, want, monkeypatch
    ):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: count)
        assert inference.usable_cpus() == want

    def test_lanes_take_the_mask_in_cpu_order(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {7, 2, 5},
                            raising=False)
        assert inference.lane_cpus(3) == [2, 5, 7]
        assert inference.lane_cpus(1) == [2]

    def test_more_lanes_than_cpus_wrap_round_robin(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {1, 3},
                            raising=False)
        assert inference.lane_cpus(5) == [1, 3, 1, 3, 1]

    def test_lanes_are_unpinned_without_a_mask(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert inference.lane_cpus(2) == [None, None]


@pytest.mark.concurrency
class TestEngineInfer:
    """A training engine serves through the one door,
    ``InferenceSession.from_engine(engine, runtime=<its host>)``: the
    engine's own shared weights, on the same host, bit for bit."""

    def test_engines_match_bitwise(self):
        X = _requests(17)
        m1 = _trained_model()
        state = [p.data.copy() for p in m1.parameters()]
        m2, m3 = FACTORY(), FACTORY()
        for model in (m2, m3):
            for p, w in zip(model.parameters(), state):
                p.data = w.copy()
        engines = {
            "sim": PipelineExecutor(m1, lr=0.01),
            "threaded": ConcurrentPipelineRunner(m2, lr=0.01),
            "process": ProcessPipelineRunner(
                m3, lr=0.01, model_factory=FACTORY
            ),
        }
        outs = {}
        for runtime, engine in engines.items():
            session = InferenceSession.from_engine(
                engine, runtime=runtime, micro_batch=4
            )
            stats = session.infer(X)
            assert stats.backend == runtime
            outs[runtime] = _hex(stats.outputs)
        assert outs["threaded"] == outs["sim"]
        assert outs["process"] == outs["sim"]
        assert outs["sim"] == _hex(session.forward_reference(X))

    def test_train_between_infers(self):
        """Serving sees the engine's latest drained weights: every
        ``infer`` opens its stream on them."""
        model = FACTORY()
        ex = PipelineExecutor(model, lr=0.02, momentum=0.9, mode="pb")
        session = InferenceSession.from_engine(
            ex, runtime="sim", micro_batch=4, sample_shape=SHAPE
        )
        X = _requests(12, seed=1)
        Y = np.random.default_rng(2).integers(0, 10, size=12)
        out_before = session.infer(X).outputs
        ex.train(X, Y)
        out_after = session.infer(X).outputs
        assert _hex(out_before) != _hex(out_after)
        fresh = InferenceSession.from_engine(ex, runtime="sim", micro_batch=4)
        assert _hex(fresh.infer(X).outputs) == _hex(out_after)

    def test_empty_batch(self):
        """An empty batch launches nothing on any host: an idle record."""
        for runtime, engine_cls, kwargs in (
            ("sim", PipelineExecutor, {}),
            ("threaded", ConcurrentPipelineRunner, {}),
            ("process", ProcessPipelineRunner, {"model_factory": FACTORY}),
        ):
            engine = engine_cls(FACTORY(), lr=0.01, **kwargs)
            session = InferenceSession.from_engine(
                engine, runtime=runtime, micro_batch=4
            )
            stats = session.infer(np.zeros((0,) + SHAPE))
            assert stats.samples == 0 and stats.time_steps == 0
            assert stats.backend == runtime
            assert all(c.busy_steps == 0 for c in stats.stages)


class TestScheduleGuards:
    def test_make_schedule_has_no_infer(self):
        """A forward-only run is a packet width, not a training
        schedule: ``make_schedule`` knows only the four the paper
        compares."""
        with pytest.raises(ValueError, match="mode must be one of"):
            make_schedule("infer", micro_batch_size=3)

    def test_sim_stream_takes_only_stages_and_capacity(self):
        """The synchronous stream has no worker to time out: a worker
        stream's option is refused, not silently dropped."""
        stages = InferenceSession(_trained_model()).stages
        with pytest.raises(TypeError, match="stall_timeout"):
            inference.SimInferenceStream(stages, stall_timeout=1.0)
        with inference.SimInferenceStream(stages, capacity=2) as stream:
            assert stream.capacity == 2

    def test_inference_schedule_is_a_width(self):
        sched = InferenceSchedule(3)
        assert not isinstance(sched, Schedule)
        assert (sched.name, sched.micro_batch) == ("infer", 3)
        assert InferenceSchedule is inference.InferenceSchedule

    def test_drain_span_forward_only(self):
        # P packets over S stages: P + S - 1 steps (half the training
        # fill cost — there is no backward return trip)
        sched = InferenceSchedule(4)
        assert sched.drain_span(8, 5) == 2 + 5 - 1
        assert sched.drain_span(9, 5) == 3 + 5 - 1
        assert sched.drain_span(0, 5) == 0

    def test_invalid_width_rejected(self):
        with pytest.raises(ValueError, match="micro_batch"):
            InferenceSchedule(0)


class TestCheckpointServing:
    """from_checkpoint: optimizer state stripped, schedule tag ignored."""

    def _checkpoint(self, tmp_path, mode="pb", **sched_kw) -> tuple:
        model = FACTORY()
        engine = PipelineExecutor(
            model, lr=0.02, momentum=0.9, mode=mode, **sched_kw
        )
        X = _requests(16, seed=5)
        Y = np.random.default_rng(6).integers(0, 10, size=16)
        engine.train(X, Y)
        path = str(tmp_path / "train.ckpt")
        save_checkpoint(path, capture_checkpoint(engine))
        return model, path

    def test_checkpoint_session_matches_live_session(self, tmp_path):
        model, path = self._checkpoint(tmp_path)
        live = InferenceSession(
            model, runtime="sim", micro_batch=4, sample_shape=SHAPE
        )
        restored = InferenceSession.from_checkpoint(
            path, FACTORY, runtime="sim", micro_batch=4, sample_shape=SHAPE
        )
        assert restored.fingerprint == live.fingerprint
        X = _requests(10)
        assert _hex(restored.infer(X).outputs) == _hex(live.infer(X).outputs)

    def test_schedule_tag_is_ignored_for_serving(self, tmp_path):
        """A gpipe-trained checkpoint serves fine — the schedule that
        produced the weights is irrelevant to forward-only serving."""
        model, path = self._checkpoint(
            tmp_path, mode="gpipe", update_size=8, micro_batch_size=4
        )
        restored = InferenceSession.from_checkpoint(
            path, FACTORY, runtime="sim", micro_batch=4, sample_shape=SHAPE
        )
        assert restored.fingerprint == model_fingerprint(model)

    def test_mismatched_model_refused_atomically(self, tmp_path):
        from repro.pipeline.checkpoint import (
            CheckpointError,
            restore_inference_weights,
        )

        _, path = self._checkpoint(tmp_path)
        other = small_cnn(num_classes=10, widths=(4, 4), seed=11)
        before = model_fingerprint(other)
        with pytest.raises(CheckpointError, match="shape"):
            restore_inference_weights(path, other)
        assert model_fingerprint(other) == before  # untouched

    def test_payload_without_engine_state_refused(self):
        from repro.pipeline.checkpoint import (
            CheckpointError,
            restore_inference_weights,
        )

        with pytest.raises(CheckpointError, match="engine"):
            restore_inference_weights({"metadata": {}}, FACTORY())


class TestBufferedCheckpointServing:
    """A BatchNorm model served from a checkpoint normalizes with the
    *trained* running statistics — the restore loads them and the
    hot-swap fingerprint covers them."""

    @pytest.fixture
    def trained(self, tmp_path):
        model = BN_FACTORY()
        engine = PipelineExecutor(model, lr=0.05, momentum=0.9, **BN_SCHEDULE)
        engine.train(*bn_stream())
        path = str(tmp_path / "bn.ckpt")
        save_checkpoint(path, capture_checkpoint(engine))
        return model, path

    @pytest.mark.concurrency(timeout=300)
    @pytest.mark.parametrize(
        "kw",
        [
            dict(runtime="sim"),
            dict(runtime="process"),
            # spawn: the statistics reach the workers inside the shipped
            # stage state, not by inheritance
            dict(runtime="process", start_method="spawn",
                 stall_timeout=240.0),
        ],
        ids=["sim", "fork", "spawn"],
    )
    def test_served_logits_equal_the_live_model(self, trained, kw):
        model, path = trained
        live = InferenceSession(
            model, runtime="sim", micro_batch=4, sample_shape=SHAPE
        )
        restored = InferenceSession.from_checkpoint(
            path, BN_FACTORY, micro_batch=4, sample_shape=SHAPE, **kw
        )
        assert restored.fingerprint == live.fingerprint
        assert restored.fingerprint == checkpoint_fingerprint(path)
        X = _requests(10)
        assert _hex(restored.infer(X).outputs) == _hex(live.infer(X).outputs)

    def test_tampered_running_var_fails_reload_verification(
        self, trained, monkeypatch
    ):
        """A restore that lands one wrong running-variance element is
        caught by ``reload(verify=True)``; the old generation keeps
        serving."""
        _, path = trained
        replica = fleet_router.Replica(
            "r0",
            ReplicaSpec(model_factory=BN_FACTORY, sample_shape=SHAPE,
                        micro_batch=4),
            checkpoint=path,
        )
        try:
            fp_before = replica.fingerprint
            assert fp_before == checkpoint_fingerprint(path)
            genuine = fleet_router.restore_inference_weights

            def tampering_restore(ckpt, model):
                meta = genuine(ckpt, model)
                bn = model.stage_defs[0].module.m1
                var = bn.running_var.copy()
                var[0] += 1.0
                bn.set_buffer("running_var", var)
                return meta

            monkeypatch.setattr(
                fleet_router, "restore_inference_weights", tampering_restore
            )
            with pytest.raises(CheckpointError, match="fingerprint"):
                replica.reload(path, verify=True)
            assert replica.ready
            assert replica.generation == 0
            assert replica.fingerprint == fp_before
            assert replica.submit(_requests(1)[0]).future.result(10.0) is not None
        finally:
            replica.stop()
