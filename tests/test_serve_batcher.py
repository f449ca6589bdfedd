"""Dynamic micro-batcher + serving stats: coalescing, deadlines,
bounded admission, explicit backpressure, monotone ids."""

from __future__ import annotations

import queue
import sys
import threading
import time

import numpy as np
import pytest

from repro.serve import DynamicBatcher, Overloaded
from repro.serve.stats import RequestTiming, ServingStats


def _x(i: int) -> np.ndarray:
    return np.full((2,), float(i))


class TestCoalescing:
    def test_full_batch_dispatches_immediately(self):
        b = DynamicBatcher(max_batch=4, max_wait=60.0, max_queue=64)
        for i in range(4):
            b.submit(_x(i))
        t0 = time.monotonic()
        batch = b.next_batch(timeout=5.0)
        assert time.monotonic() - t0 < 1.0  # did not wait for max_wait
        assert [r.request_id for r in batch] == [0, 1, 2, 3]

    def test_deadline_flushes_partial_batch(self):
        b = DynamicBatcher(max_batch=8, max_wait=0.01, max_queue=64)
        b.submit(_x(0))
        b.submit(_x(1))
        batch = b.next_batch(timeout=5.0)
        assert len(batch) == 2  # partial, released by the deadline

    def test_zero_wait_means_no_coalescing_delay(self):
        b = DynamicBatcher(max_batch=8, max_wait=0.0, max_queue=64)
        b.submit(_x(0))
        batch = b.next_batch(timeout=1.0)
        assert len(batch) == 1

    def test_oversize_queue_split_into_batches(self):
        b = DynamicBatcher(max_batch=3, max_wait=0.0, max_queue=64)
        for i in range(7):
            b.submit(_x(i))
        sizes = []
        ids = []
        while True:
            batch = b.next_batch(timeout=0.05)
            if not batch:
                break
            sizes.append(len(batch))
            ids.extend(r.request_id for r in batch)
        assert sizes == [3, 3, 1]
        assert ids == sorted(ids)  # FIFO slices => monotone ids

    def test_timeout_returns_empty(self):
        b = DynamicBatcher(max_batch=4, max_wait=0.0, max_queue=4)
        t0 = time.monotonic()
        assert b.next_batch(timeout=0.05) == []
        assert time.monotonic() - t0 < 1.0


class TestSaturation:
    """A full packet is ready the moment it is full: a saturated batcher
    releases packets back to back, as fast as the consumer asks."""

    def _fill(self, b: DynamicBatcher, packets: int) -> None:
        for i in range(packets * b.max_batch):
            b.submit(_x(i))

    def test_full_packets_leave_back_to_back(self):
        b = DynamicBatcher(max_batch=4, max_wait=60.0, max_queue=64)
        self._fill(b, 6)
        ids = []
        for _ in range(6):  # five of them with packets still in flight
            batch = b.next_batch(timeout=0.0)
            assert len(batch) == 4
            ids.extend(r.request_id for r in batch)
        assert ids == list(range(24))  # admission order
        assert b.pending == 0

    def test_zero_wait_drains_full_packets(self):
        b = DynamicBatcher(max_batch=4, max_wait=0.0, max_queue=64)
        self._fill(b, 3)
        for _ in range(3):
            assert len(b.next_batch(timeout=0.0)) == 4

    def test_due_partial_packet_follows_a_full_one(self):
        b = DynamicBatcher(max_batch=4, max_wait=60.0, max_queue=64)
        self._fill(b, 1)
        assert len(b.next_batch(timeout=0.0)) == 4  # in flight
        b.submit(_x(4), max_wait=0.0)  # partial, due now
        assert [r.request_id for r in b.next_batch(timeout=0.0)] == [4]

    def test_close_drains_full_packets(self):
        b = DynamicBatcher(max_batch=4, max_wait=60.0, max_queue=64)
        self._fill(b, 3)
        b.close()
        for _ in range(3):
            assert len(b.next_batch(timeout=0.0)) == 4


class TestBackpressure:
    def test_overloaded_at_max_queue(self):
        b = DynamicBatcher(max_batch=4, max_wait=60.0, max_queue=3)
        for i in range(3):
            b.submit(_x(i))
        with pytest.raises(Overloaded, match="full"):
            b.submit(_x(99))
        assert b.rejected == 1
        assert b.admitted == 3

    def test_queue_reopens_after_drain(self):
        b = DynamicBatcher(max_batch=2, max_wait=0.0, max_queue=2)
        b.submit(_x(0))
        b.submit(_x(1))
        with pytest.raises(Overloaded):
            b.submit(_x(2))
        assert len(b.next_batch(timeout=0.1)) == 2
        b.submit(_x(3))  # admitted again — backpressure, not a latch
        assert b.pending == 1

    def test_closed_rejects_submits_but_drains_queue(self):
        b = DynamicBatcher(max_batch=4, max_wait=60.0, max_queue=8)
        b.submit(_x(0))
        b.close()
        with pytest.raises(Overloaded, match="shutting down"):
            b.submit(_x(1))
        # close() never drops: the queued request still dispatches
        batch = b.next_batch(timeout=0.5)
        assert [r.request_id for r in batch] == [0]
        assert b.next_batch(timeout=0.0) == []

    def test_ids_monotone_across_threads(self):
        b = DynamicBatcher(max_batch=4, max_wait=0.0, max_queue=1000)
        seen = []
        lock = threading.Lock()

        def submit_some():
            for _ in range(50):
                req = b.submit(_x(0))
                with lock:
                    seen.append(req.request_id)

        threads = [threading.Thread(target=submit_some) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sorted(seen) == list(range(200))  # unique, gap-free

    def test_submit_snapshots_the_request(self):
        """A caller may reuse its buffer once ``submit`` returns: every
        queued request keeps the values it was submitted with."""
        b = DynamicBatcher(max_batch=4, max_wait=60.0, max_queue=64)
        buf = np.zeros(2)
        for i in range(4):
            buf[:] = i
            b.submit(buf)
        buf[:] = -1.0
        batch = b.next_batch(timeout=0.0)
        assert [float(r.x[0]) for r in batch] == [0.0, 1.0, 2.0, 3.0]

    def test_validation(self):
        with pytest.raises(ValueError):
            DynamicBatcher(max_batch=0)
        with pytest.raises(ValueError):
            DynamicBatcher(max_wait=-1)
        with pytest.raises(ValueError):
            DynamicBatcher(max_queue=0)
        b = DynamicBatcher()
        with pytest.raises(ValueError):
            b.submit(_x(0), max_wait=-0.5)


class TestPerRequestDeadlines:
    """Per-request ``max_wait`` overrides: the fleet's SLO-class slack
    pricing rides on the flush point being the *minimum* deadline over
    the queue, not the oldest request's age."""

    def test_zero_wait_request_flushes_queued_batch_traffic(self):
        """An interactive request (max_wait=0) arriving behind
        long-deadline batch requests forces the whole packet out
        immediately — batch yields its coalescing slack."""
        b = DynamicBatcher(max_batch=8, max_wait=60.0, max_queue=64)
        b.submit(_x(0), slo_class="batch")
        b.submit(_x(1), slo_class="batch")
        b.submit(_x(2), max_wait=0.0, slo_class="interactive")
        t0 = time.monotonic()
        batch = b.next_batch(timeout=5.0)
        assert time.monotonic() - t0 < 1.0  # did not wait for max_wait
        # ... and it pulled the earlier batch requests along, FIFO
        assert [r.request_id for r in batch] == [0, 1, 2]
        assert [r.slo_class for r in batch] == [
            "batch", "batch", "interactive",
        ]

    def test_long_override_defers_flush(self):
        """A request may also *grant* more slack than the batcher
        default; alone in the queue behind a packet in flight it is not
        flushed early."""
        b = DynamicBatcher(max_batch=8, max_wait=0.0, max_queue=64)
        b.submit(_x(0))
        assert len(b.next_batch(timeout=0.0)) == 1  # now in flight
        b.submit(_x(1), max_wait=60.0)
        assert b.next_batch(timeout=0.05) == []  # still coalescing
        b.submit(_x(2))  # default max_wait=0 => flush now
        batch = b.next_batch(timeout=5.0)
        assert [r.request_id for r in batch] == [1, 2]


class TestWorkConserving:
    """A partial packet waits to coalesce only while another packet is
    in flight (Nagle's rule): ``next_batch`` hands a packet out,
    ``done`` takes it back."""

    def test_idle_batcher_releases_lone_request_at_once(self):
        b = DynamicBatcher(max_batch=8, max_wait=60.0, max_queue=64)
        b.submit(_x(0))
        t0 = time.monotonic()
        batch = b.next_batch(timeout=5.0)
        assert time.monotonic() - t0 < 1.0  # did not wait for max_wait
        assert [r.request_id for r in batch] == [0]

    def test_done_releases_partial_packet_waiting_behind_one(self):
        b = DynamicBatcher(max_batch=8, max_wait=60.0, max_queue=64)
        b.submit(_x(0))
        assert len(b.next_batch(timeout=0.0)) == 1  # in flight
        b.submit(_x(1))
        assert b.next_batch(timeout=0.05) == []  # coalescing behind it
        t_done = []

        def finish():
            time.sleep(0.05)
            t_done.append(time.monotonic())
            b.done()

        finisher = threading.Thread(target=finish)
        finisher.start()
        batch = b.next_batch(timeout=30.0)
        t_out = time.monotonic()
        finisher.join()
        assert [r.request_id for r in batch] == [1]
        assert t_out - t_done[0] < 0.5  # woken by done(), not the deadline

    def test_partial_packet_leaves_at_deadline_without_done(self):
        b = DynamicBatcher(max_batch=8, max_wait=0.05, max_queue=64)
        b.submit(_x(0))
        assert len(b.next_batch(timeout=0.0)) == 1  # in flight, never done
        req = b.submit(_x(1))
        batch = b.next_batch(timeout=5.0)
        assert [r.request_id for r in batch] == [1]
        assert req.t_dispatch >= req.t_deadline

    def test_done_with_nothing_in_flight_raises(self):
        b = DynamicBatcher(max_batch=8, max_wait=60.0, max_queue=64)
        with pytest.raises(RuntimeError, match="no packet in flight"):
            b.done()
        b.submit(_x(0))
        b.next_batch(timeout=0.0)
        b.done()
        with pytest.raises(RuntimeError, match="no packet in flight"):
            b.done()  # one done() per packet, never more

    def test_closed_loop_stress_no_lost_wakeup_or_update(self):
        """Four closed-loop clients, a dispatcher and a finisher (more
        threads than cores) race on the in-flight count under a short
        switch interval.  The finisher resolves a packet's futures a
        millisecond *before* its ``done()``, so the clients' next
        requests queue behind a packet still in flight and nothing but
        ``done()``'s wake-up releases them: a lost one stalls the loop
        for the 60 s deadline, past the join timeout.  Every request
        leaves exactly once and the count ends at zero."""
        b = DynamicBatcher(max_batch=8, max_wait=60.0, max_queue=64)
        clients, per_client = 4, 100
        total = clients * per_client
        handed_out: queue.Queue = queue.Queue()
        dispatched: list[int] = []

        def client():
            for _ in range(per_client):
                b.submit(_x(0)).future.result(20.0)

        def dispatch():
            while len(dispatched) < total:
                batch = b.next_batch(timeout=60.0)
                if batch:
                    dispatched.extend(r.request_id for r in batch)
                    handed_out.put(batch)
            handed_out.put(None)

        def finish():
            while (batch := handed_out.get()) is not None:
                for req in batch:
                    req.future.set_result(None)
                time.sleep(1e-3)  # let the clients queue up behind it
                b.done()

        threads = [
            threading.Thread(target=client, daemon=True)
            for _ in range(clients)
        ] + [
            threading.Thread(target=dispatch, daemon=True),
            threading.Thread(target=finish, daemon=True),
        ]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(20.0)
        finally:
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in threads)
        assert sorted(dispatched) == list(range(total))
        with pytest.raises(RuntimeError, match="no packet in flight"):
            b.done()  # every packet handed back exactly once


class TestDraining:
    def test_draining_rejects_submits_but_keeps_dispatching(self):
        b = DynamicBatcher(max_batch=4, max_wait=60.0, max_queue=8)
        b.submit(_x(0))
        b.set_draining(True)
        assert b.draining
        with pytest.raises(Overloaded, match="draining"):
            b.submit(_x(1))
        # already-admitted work still dispatches — draining gates
        # admission only, never the consumer side
        b.close()
        assert [r.request_id for r in b.next_batch(timeout=0.5)] == [0]

    def test_draining_is_reversible(self):
        b = DynamicBatcher(max_batch=4, max_wait=0.0, max_queue=8)
        b.set_draining(True)
        with pytest.raises(Overloaded):
            b.submit(_x(0))
        b.set_draining(False)
        req = b.submit(_x(0))  # admission re-opened
        assert req.request_id == 0  # the rejected submit burned no id
        assert not b.draining


class TestShutdownRaces:
    """submit racing close: every id is either admitted exactly once
    (and dispatched exactly once) or rejected loudly — never lost,
    never duplicated."""

    def test_submit_racing_close_never_loses_or_duplicates(self):
        b = DynamicBatcher(max_batch=4, max_wait=0.0, max_queue=10_000)
        admitted: list[int] = []
        rejected = [0]
        lock = threading.Lock()
        start = threading.Event()

        def submitter():
            start.wait()
            for _ in range(200):
                try:
                    req = b.submit(_x(0))
                except Overloaded:
                    with lock:
                        rejected[0] += 1
                else:
                    with lock:
                        admitted.append(req.request_id)

        threads = [threading.Thread(target=submitter) for _ in range(4)]
        for t in threads:
            t.start()
        start.set()
        time.sleep(0.002)  # let some submits land before the close
        b.close()
        for t in threads:
            t.join()
        # drain everything the batcher admitted
        dispatched: list[int] = []
        while True:
            batch = b.next_batch(timeout=0.0)
            if not batch:
                break
            dispatched.extend(r.request_id for r in batch)
        assert sorted(admitted) == list(range(len(admitted)))  # gap-free
        assert len(admitted) + rejected[0] == 800  # every submit accounted
        assert b.admitted == len(admitted)
        assert b.rejected == rejected[0]
        # ids admitted before the close that were not drained would be
        # lost requests; ids appearing twice would be duplicates
        assert dispatched == sorted(admitted)

    def test_zero_timeout_drain_after_close_is_fifo(self):
        """``next_batch(timeout=0.0)`` after close never blocks and
        returns the backlog as consecutive FIFO slices."""
        b = DynamicBatcher(max_batch=3, max_wait=60.0, max_queue=64)
        for i in range(8):
            b.submit(_x(i))
        b.close()
        slices = []
        t0 = time.monotonic()
        while True:
            batch = b.next_batch(timeout=0.0)
            if not batch:
                break
            slices.append([r.request_id for r in batch])
        assert time.monotonic() - t0 < 1.0  # non-blocking drain
        assert slices == [[0, 1, 2], [3, 4, 5], [6, 7]]
        assert b.next_batch(timeout=0.0) == []  # stays empty, stays fast


class TestServingStats:
    def _timing(self, rid: int, latency: float) -> RequestTiming:
        return RequestTiming(
            request_id=rid,
            queue_wait=latency / 4,
            pipeline_time=3 * latency / 4,
            latency=latency,
            batch_size=2,
        )

    def test_percentiles(self):
        stats = ServingStats()
        now = time.monotonic()
        for i, lat in enumerate([0.01] * 98 + [0.5, 1.0]):
            stats.record(self._timing(i, lat), now + i * 1e-3)
        snap = stats.snapshot()
        assert snap["completed"] == 100
        assert snap["latency_s"]["p50"] == pytest.approx(0.01)
        assert snap["latency_s"]["p99"] >= 0.5
        assert snap["queue_wait_s"]["p50"] == pytest.approx(0.0025)
        assert snap["mean_batch_size"] == 2.0
        assert snap["throughput_rps"] is not None

    def test_empty_snapshot(self):
        snap = ServingStats().snapshot()
        assert snap["completed"] == 0
        assert snap["latency_s"]["p99"] is None
        assert snap["throughput_rps"] is None

    def test_counters(self):
        stats = ServingStats()
        stats.record_rejected()
        stats.record_rejected()
        stats.record_failed()
        snap = stats.snapshot()
        assert snap["rejected"] == 2
        assert snap["failed"] == 1

    def test_gauges_need_a_source(self):
        """Snapshot gauges are ``None`` until an owning server wires a
        gauge source, then report its live readings."""
        stats = ServingStats()
        snap = stats.snapshot()
        assert snap["pending"] is None and snap["in_flight"] is None
        readings = {"pending": 3, "in_flight": 2}
        stats.set_gauge_source(lambda: dict(readings))
        snap = stats.snapshot()
        assert snap["pending"] == 3 and snap["in_flight"] == 2
        readings["pending"] = 7  # gauges are instantaneous, not cached
        assert stats.snapshot()["pending"] == 7

    def test_per_class_accounting(self):
        stats = ServingStats()
        now = time.monotonic()
        for i in range(6):
            t = self._timing(i, 0.01 if i % 2 else 0.2)
            t.slo_class = "interactive" if i % 2 else "batch"
            stats.record(t, now + i * 1e-3)
        stats.record_rejected("interactive")
        stats.record_rejected("interactive")
        stats.record_rejected("batch")
        stats.record_rejected()  # untagged: counted, not classed
        snap = stats.snapshot()
        assert snap["completed_by_class"] == {"batch": 3, "interactive": 3}
        assert snap["rejected_by_class"] == {"batch": 1, "interactive": 2}
        assert snap["rejected"] == 4
        per = snap["per_class"]
        assert per["interactive"]["latency_s"]["p50"] == pytest.approx(0.01)
        assert per["batch"]["latency_s"]["p50"] == pytest.approx(0.2)
        assert per["batch"]["window_filled"] == 3

    def test_recent_queue_wait_p95(self):
        stats = ServingStats()
        assert stats.recent_queue_wait_p95() is None
        now = time.monotonic()
        for i in range(20):
            stats.record(self._timing(i, 0.04), now)
        # queue_wait is latency/4 = 0.01 in _timing
        assert stats.recent_queue_wait_p95() == pytest.approx(0.01)
        # the window argument bounds how far back the signal looks
        stats.record(self._timing(99, 4.0), now)  # queue_wait = 1.0
        assert stats.recent_queue_wait_p95(last=1) == pytest.approx(1.0)

    def test_recent_queue_wait_p95_expires_stale_readings(self):
        """The pressure signal decays by wall clock: a turbulence spike
        must not latch admission rejection forever once traffic stops
        completing (rejected requests produce no fresh completions, so
        a count-only window would never refresh)."""
        stats = ServingStats()
        stale = time.monotonic() - 60.0
        for i in range(10):
            stats.record(self._timing(i, 4.0), stale)  # queue_wait = 1.0
        assert stats.recent_queue_wait_p95() is None  # expired
        assert stats.recent_queue_wait_p95(
            horizon_s=None
        ) == pytest.approx(1.0)  # raw count window still sees it
        stats.record(self._timing(99, 0.04), time.monotonic())
        assert stats.recent_queue_wait_p95() == pytest.approx(0.01)

    def test_recent_queue_wait_p95_reads_only_the_newest(self):
        """On a full window whose oldest part the horizon expires, the
        newest-``last`` read equals the whole-window copy it replaced."""
        stats = ServingStats(window=1024)
        rng = np.random.default_rng(3)
        now = time.monotonic()
        for i in range(3000):  # wraps the window almost three times
            t = self._timing(i, float(rng.uniform(0.0, 0.1)))
            # the window ends 524 stale readings, then 500 fresh ones
            stats.record(t, now - 60.0 if i < 2500 else now)
        assert len(stats.timings()) == 1024

        def full_copy(last, horizon_s):
            cutoff = time.monotonic() - horizon_s
            waits = [
                t.queue_wait
                for t in stats.timings()[-last:]
                if t.t_done >= cutoff
            ]
            return float(np.percentile(np.asarray(waits), 95.0))

        for last in (1, 256, 1000, 5000):
            for horizon_s in (2.0, 120.0):
                got = stats.recent_queue_wait_p95(last, horizon_s)
                assert got == full_copy(last, horizon_s)

    def test_timings_window_is_bounded(self):
        """A long-lived server keeps cumulative counters but only a
        sliding window of per-request timings — memory stays bounded
        and the truncation is visible in the snapshot."""
        stats = ServingStats(window=10)
        now = time.monotonic()
        for i in range(25):
            stats.record(self._timing(i, 0.01 * (i + 1)), now + i)
        snap = stats.snapshot()
        assert snap["completed"] == 25  # cumulative, not truncated
        assert snap["window"] == 10 and snap["window_filled"] == 10
        retained = [t.request_id for t in stats.timings()]
        assert retained == list(range(15, 25))  # most recent only
        # percentiles cover the window, not the evicted history
        assert snap["latency_s"]["p50"] == pytest.approx(0.205)
