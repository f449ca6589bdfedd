"""Shared-memory ring transport: SPSC semantics and the zero-copy contract.

The process runtime's acceptance bar is that **no activation or gradient
is pickled on the steady-state hot path**: the producer side is one
``np.copyto`` into a preallocated slot, the consumer side hands out NumPy
views *into that same slot memory*.  These tests pin both halves by
buffer identity — the address a consumer reads from is the address the
ring preallocated, for every slot, across wrap-around — plus the SPSC
bookkeeping rules (FIFO release, capacity, stall errors) the runtime's
deadlock-freedom argument leans on.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.models.simple import small_cnn
from repro.pipeline.executor import PipelineExecutor
from repro.pipeline.transport import (
    ArraySpec,
    ShmRing,
    TransportError,
    TransportStall,
    build_inference_rings,
    build_pipeline_rings,
    build_reduce_rings,
    payload_specs,
    probe_boundary_layouts,
    ring_slots_for,
)


@pytest.fixture
def ring():
    r = ShmRing.create(
        "test", [ArraySpec((4, 3), "float64"), ArraySpec((4,), "float64")],
        slots=3,
    )
    yield r
    r.close()
    r.unlink()


def _payload(seed: int, size: int = 4):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=(size, 3)), rng.normal(size=(size,))]


class TestRingBasics:
    def test_roundtrip_values(self, ring):
        p = _payload(0)
        ring.send(7, 0, 4, p, timeout=1.0)
        pid, start, size, views = ring.recv(1.0)
        assert (pid, start, size) == (7, 0, 4)
        assert np.array_equal(views[0], p[0])
        assert np.array_equal(views[1], p[1])
        ring.release()

    def test_partial_batch_views(self, ring):
        p = _payload(1, size=2)
        ring.send(3, 8, 2, p, timeout=1.0)
        _, _, size, views = ring.recv(1.0)
        assert size == 2
        assert views[0].shape == (2, 3)
        assert np.array_equal(views[0], p[0])
        ring.release()

    def test_fifo_order(self, ring):
        for k in range(3):
            ring.send(k, k, 4, _payload(k), timeout=1.0)
        for k in range(3):
            pid, _, _, views = ring.recv(1.0)
            assert pid == k
            assert np.array_equal(views[0], _payload(k)[0])
            ring.release()

    def test_poll_and_try_recv(self, ring):
        assert not ring.poll()
        assert ring.try_recv() is None
        ring.send(0, 0, 4, _payload(0), timeout=1.0)
        assert ring.poll()
        assert ring.try_recv() is not None


class TestZeroCopy:
    def test_recv_views_share_slot_memory(self, ring):
        """The consumer reads the ring's own buffers — no copy, no pickle."""
        ring.send(0, 0, 4, _payload(0), timeout=1.0)
        _, _, _, views = ring.recv(1.0)
        for view, slot_arr in zip(views, ring._slot_views[0].arrays):
            assert np.shares_memory(view, slot_arr)

    def test_slot_buffers_are_reused_across_wraparound(self, ring):
        """Steady state allocates nothing: after the ring wraps, packets
        land at exactly the addresses preallocated at creation."""
        first_pass = []
        for k in range(3):
            ring.send(k, k, 4, _payload(k), timeout=1.0)
            _, _, _, views = ring.recv(1.0)
            first_pass.append([v.__array_interface__["data"][0] for v in views])
            ring.release()
        for k in range(3, 9):  # two more laps
            ring.send(k, k, 4, _payload(k), timeout=1.0)
            _, _, _, views = ring.recv(1.0)
            addrs = [v.__array_interface__["data"][0] for v in views]
            assert addrs == first_pass[k % 3]
            ring.release()

    def test_late_attach_consumer_sees_backlog(self, ring):
        """A consumer attaching after the producer ran ahead must start
        at ``tail``, not ``head`` (regression: spawn workers attach after
        the parent's first injection)."""
        ring.send(0, 0, 4, _payload(0), timeout=1.0)
        ring.send(1, 1, 4, _payload(1), timeout=1.0)
        late = ShmRing.attach(ring.descriptor)
        try:
            pid, _, _, views = late.recv(1.0)
            assert pid == 0
            assert np.array_equal(views[0], _payload(0)[0])
            late.release()
            assert late.recv(1.0)[0] == 1
            late.release()
        finally:
            late.close()


class TestCapacityAndErrors:
    def test_try_send_full_ring(self, ring):
        for k in range(3):
            assert ring.try_send(k, k, 4, _payload(k))
        assert not ring.try_send(3, 3, 4, _payload(3))
        ring.recv(1.0)
        ring.release()  # frees one slot
        assert ring.try_send(3, 3, 4, _payload(3))

    def test_send_stalls_loudly_when_full(self, ring):
        for k in range(3):
            ring.send(k, k, 4, _payload(k), timeout=1.0)
        with pytest.raises(TransportStall):
            ring.send(9, 9, 4, _payload(9), timeout=0.05)

    def test_recv_stalls_loudly_when_empty(self, ring):
        with pytest.raises(TransportStall):
            ring.recv(0.05)

    def test_release_without_recv_raises(self, ring):
        with pytest.raises(TransportError):
            ring.release()

    def test_deferred_release_keeps_slots_alive(self, ring):
        """Receiving without releasing holds capacity — the mechanism the
        compute stages use while a packet is between its F and B."""
        for k in range(3):
            ring.send(k, k, 4, _payload(k), timeout=1.0)
            ring.recv(1.0)
        assert ring.outstanding == 3
        assert not ring.try_send(3, 3, 4, _payload(3))
        ring.release()
        assert ring.try_send(3, 3, 4, _payload(3))

    def test_layout_mismatch_raises(self, ring):
        with pytest.raises(TransportError):
            ring.send(0, 0, 4, [np.zeros((4, 3))], timeout=1.0)  # 1 != 2
        with pytest.raises(TransportError):
            ring.send(0, 0, 4, [np.zeros((4, 5)), np.zeros(4)], timeout=1.0)
        with pytest.raises(TransportError):
            ring.send(
                0, 0, 4,
                [np.zeros((4, 3), dtype=np.float32), np.zeros(4)],
                timeout=1.0,
            )

    def test_oversize_batch_raises(self, ring):
        with pytest.raises(TransportError):
            ring.send(0, 0, 6, _payload(0, size=6), timeout=1.0)


class TestLayoutProbe:
    def test_probe_matches_executed_payload_shapes(self):
        model = small_cnn(num_classes=4, widths=(4, 8), seed=0)
        ex = PipelineExecutor(model, lr=0.01, mode="pb")
        x = np.zeros((1, 3, 8, 8))
        layouts = probe_boundary_layouts(ex.stages, x)
        assert len(layouts) == model.num_stages
        # replay the same packet for real and compare boundary layouts
        payload = [x]
        assert payload_specs(payload) == layouts[0]
        for s, stage in enumerate(ex.stages[:-1]):
            payload = stage.forward(0, payload, train=False)
            assert payload_specs(payload) == layouts[s + 1], f"boundary {s+1}"

    def test_probe_mutates_nothing(self):
        """Probing must not advance BatchNorm stats, dropout RNG streams
        or module training flags — it runs eval-mode under no_grad."""
        from repro.models.arch import StageDef, StageGraphModel
        from repro.nn import BatchNorm2d, Conv2d, Sequential
        from repro.nn.dropout import Dropout

        conv = Conv2d(3, 4, 3, padding=1, rng=np.random.default_rng(0))
        bn = BatchNorm2d(4)
        drop = Dropout(0.5, seed=3)
        model = StageGraphModel(
            [
                StageDef("block", module=Sequential(conv, bn, drop)),
                StageDef("loss", kind="loss"),
            ],
            name="probe_test",
        )
        model.train()
        ex = PipelineExecutor(model, lr=0.01, mode="pb")
        stats_before = {k: v.copy() for k, v in model.state_dict().items()}
        rng_before = drop._rng.bit_generator.state
        probe_boundary_layouts(ex.stages, np.zeros((2, 3, 8, 8)))
        stats_after = model.state_dict()
        assert set(stats_before) == set(stats_after)
        for k in stats_before:
            assert np.array_equal(stats_before[k], stats_after[k]), k
        assert drop._rng.bit_generator.state == rng_before
        assert all(
            m.training for m in model.modules()
        ), "probe must restore training mode"


class TestFencedMode:
    """``REPRO_SHM_FENCE=1`` forces the weak-memory-ordering fallback
    (every counter access through a per-ring lock).  Non-x86 machines
    take this path automatically; forcing it here keeps the lock
    plumbing — including its travel through pickled worker specs —
    exercised on x86 CI."""

    def test_fenced_ring_roundtrip(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHM_FENCE", "1")
        ring = ShmRing.create("fenced", [ArraySpec((2, 3), "float64")], 2)
        try:
            assert ring._fence is not None
            p = [np.arange(6.0).reshape(2, 3)]
            ring.send(1, 0, 2, p, timeout=1.0)
            pid, _, _, views = ring.recv(1.0)
            assert pid == 1
            assert np.array_equal(views[0], p[0])
            ring.release()
            assert ring.try_send(2, 2, 2, p)
        finally:
            ring.close()
            ring.unlink()

    @pytest.mark.concurrency
    def test_fenced_process_run_is_bit_exact(self, monkeypatch):
        from repro.pipeline import ProcessPipelineRunner

        monkeypatch.setenv("REPRO_SHM_FENCE", "1")
        rng = np.random.default_rng(4)
        X = rng.normal(size=(10, 3, 8, 8))
        Y = rng.integers(0, 4, size=10)
        m1 = small_cnn(num_classes=4, widths=(4,), seed=6)
        m2 = small_cnn(num_classes=4, widths=(4,), seed=6)
        sim = PipelineExecutor(m1, lr=0.05, momentum=0.9, mode="pb").train(X, Y)
        runner = ProcessPipelineRunner(
            m2, lr=0.05, momentum=0.9, mode="pb", lockstep=True,
            stall_timeout=60.0,
        )
        proc = runner.train(X, Y)
        assert np.array_equal(sim.losses, proc.losses)


class TestRingSizing:
    def test_ring_slots_cover_inflight_cap(self):
        # D_s + 1 in-flight packets plus slack: stage 0 of a 4-stage
        # pipeline has D = 6, cap 7, so 9 slots at the default slack
        assert ring_slots_for(6) == 9
        assert ring_slots_for(0) == 3
        assert ring_slots_for(2, slack=0) == 3

    def test_build_pipeline_rings_topology(self):
        model = small_cnn(num_classes=4, widths=(4,), seed=0)
        ex = PipelineExecutor(model, lr=0.01, mode="pb")
        S = model.num_stages
        fwd, bwd = build_pipeline_rings(ex.stages, np.zeros((1, 3, 8, 8)))
        try:
            # one ring pair per stage boundary; none flows into stage 0
            assert len(fwd) == len(bwd) == S - 1
            for s in range(S - 1):
                assert fwd[s].slots == ring_slots_for(ex.stages[s + 1].delay)
                assert bwd[s].slots == ring_slots_for(ex.stages[s].delay)
                assert fwd[s].label == f"fwd[{s}->{s + 1}]"
                assert bwd[s].label == f"bwd[{s + 1}->{s}]"
        finally:
            for r in fwd + bwd:
                r.close()
                r.unlink()


class TestRingSetsAllOrNothing:
    @pytest.mark.parametrize(
        "build",
        [
            lambda st: build_pipeline_rings(st, np.zeros((1, 3, 8, 8))),
            lambda st: build_inference_rings(
                st, np.zeros((1, 3, 8, 8)), lanes=2
            ),
            lambda st: build_reduce_rings(st, replicas=2),
        ],
        ids=["pipeline", "inference", "reduce"],
    )
    def test_failure_midway_unlinks_the_rings_built(self, build, monkeypatch):
        """The third ring of a set fails to create (as on a full
        ``/dev/shm``): the two already built are closed and unlinked,
        and the error reaches the caller."""
        ex = PipelineExecutor(
            small_cnn(num_classes=4, widths=(4,), seed=0), lr=0.01, mode="pb"
        )
        real_create, real_unlink = ShmRing.create, ShmRing.unlink
        made, unlinked = [], []

        def create(*args, **kwargs):
            if len(made) == 2:
                raise OSError("no space left on /dev/shm")
            made.append(real_create(*args, **kwargs))
            return made[-1]

        def unlink(ring):
            unlinked.append(ring)
            real_unlink(ring)

        monkeypatch.setattr(ShmRing, "create", staticmethod(create))
        monkeypatch.setattr(ShmRing, "unlink", unlink)
        with pytest.raises(OSError, match="no space"):
            build(ex.stages)
        assert len(made) == 2 and unlinked == made


class TestForwardOnlyStreaming:
    """Ring wraparound under sustained forward-only (serving) traffic:
    the tail chases the head across many full ring cycles, and FIFO
    slot-release ordering is preserved throughout."""

    def test_tail_chases_head_across_three_cycles(self, ring):
        """Stream 4x the ring's capacity packet-by-packet: every payload
        survives its trip through a reused slot, head/tail wrap in
        lockstep, and each slot's memory is visited once per cycle."""
        cycles = 4
        total = ring.slots * cycles  # 12 packets through 3 slots
        slot_addresses = []
        for i in range(total):
            p = [np.full((4, 3), float(i)), np.full((4,), float(i))]
            assert ring.try_send(i, i, 4, p)
            pid, start, size, views = ring.recv(1.0)
            assert (pid, start, size) == (i, i, 4)
            assert np.array_equal(views[0], p[0])
            assert np.array_equal(views[1], p[1])
            slot_addresses.append(views[0].__array_interface__["data"][0])
            ring.release()
            assert ring.outstanding == 0
        # the tail fully chased the head through `cycles` wraparounds
        assert int(ring._head[0]) == total
        assert int(ring._tail[0]) == total
        # slot memory is reused in strict rotation: the address pattern
        # repeats with period `slots` across all cycles
        period = slot_addresses[: ring.slots]
        assert len(set(period)) == ring.slots
        assert slot_addresses == period * cycles

    def test_pipelined_wraparound_with_lagging_release(self, ring):
        """Keep the ring nearly full (consumer holds one slot while the
        producer refills) for >= 3 full cycles: deferred FIFO release
        ordering holds and no payload is torn by the slot reuse."""
        depth = ring.slots - 1  # consumer always holds `depth` slots
        inflight = []
        sent = 0
        received = []
        total = ring.slots * 3 + depth
        while len(received) < total:
            while sent < total and ring.try_send(
                sent, sent, 4, [np.full((4, 3), float(sent)),
                                np.full((4,), float(sent))]
            ):
                sent += 1
            pkt = ring.try_recv()
            if pkt is not None:
                inflight.append(pkt)
            if inflight and (len(inflight) >= depth or pkt is None):
                pid, start, size, views = inflight.pop(0)
                # the oldest held views are still intact: the producer
                # could not have reused an unreleased slot
                assert np.array_equal(views[0], np.full((4, 3), float(pid)))
                received.append(pid)
                ring.release()  # strict FIFO: oldest slot freed first
        assert received == list(range(total))
        assert int(ring._head[0]) >= 3 * ring.slots

    def test_release_order_is_fifo_not_lifo(self, ring):
        """release() frees the *oldest* outstanding slot: consuming two
        packets and releasing once must keep the second packet's slot
        alive (its payload stays intact when the producer refills)."""
        for i in range(2):
            ring.send(i, i, 4, _payload(i), timeout=1.0)
        first = ring.try_recv()
        second = ring.try_recv()
        ring.release()  # frees packet 0's slot only
        assert ring.outstanding == 1
        # the freed slot (and the never-used third slot) can be
        # refilled; packet 1's slot must survive untouched
        ring.send(10, 10, 4, _payload(10), timeout=1.0)
        ring.send(11, 11, 4, _payload(11), timeout=1.0)
        assert not ring.try_send(12, 12, 4, _payload(12))  # 1 still held
        assert np.array_equal(second[3][0], _payload(1)[0])
        assert first is not None

    def test_build_inference_rings_topology(self):
        from repro.pipeline.transport import build_inference_rings

        model = small_cnn(num_classes=4, widths=(4,), seed=0)
        ex = PipelineExecutor(model, lr=0.01, mode="pb")
        x = np.zeros((2, 3, 8, 8))
        layouts = probe_boundary_layouts(ex.stages, x)
        lanes = build_inference_rings(ex.stages, x, slots=5, lanes=3)
        rings = [r for lane in lanes for r in lane]
        try:
            # an (in, out) pair per lane, no backward rings at all: a
            # lane takes the input layout and hands the parent the final
            # compute stage's output (the layout into the loss slot)
            assert len(lanes) == 3
            assert all(r.slots == 5 for r in rings)
            assert len({r.descriptor.shm_name for r in rings}) == 6
            for w, (ring_in, ring_out) in enumerate(lanes):
                assert ring_in.descriptor.arrays == layouts[0]
                assert ring_out.descriptor.arrays == layouts[-1]
                assert ring_in.label == f"infer[inject->lane{w}]"
                assert ring_out.label == f"infer[lane{w}->out]"
        finally:
            for r in rings:
                r.close()
                r.unlink()

    def test_build_inference_rings_rejects_zero_slots(self):
        from repro.pipeline.transport import build_inference_rings

        model = small_cnn(num_classes=4, widths=(4,), seed=0)
        ex = PipelineExecutor(model, lr=0.01, mode="pb")
        with pytest.raises(TransportError, match="slot"):
            build_inference_rings(ex.stages, np.zeros((1, 3, 8, 8)), slots=0)
