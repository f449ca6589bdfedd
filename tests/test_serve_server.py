"""The serving front-end end to end: futures, batching determinism,
explicit overload behavior, the HTTP endpoint, and the ``serve``-marked
smoke (tiny model, process runtime, 200 requests, zero dropped or
duplicated responses, monotone request ids)."""

from __future__ import annotations

import json
import socket
import threading
import time
import urllib.error
import urllib.request
from functools import partial

import numpy as np
import pytest

from repro.models.simple import small_cnn
from repro.pipeline.inference import usable_cpus
from repro.serve import (
    InferenceSession,
    Overloaded,
    PipelineServer,
    closed_loop,
)

FACTORY = partial(small_cnn, num_classes=10, widths=(8, 16), seed=11)
SHAPE = (3, 8, 8)


def _requests(n: int, seed: int = 0) -> np.ndarray:
    return np.random.default_rng(seed).normal(size=(n,) + SHAPE)


def _session(runtime: str = "threaded", micro_batch: int = 4, **kw):
    return InferenceSession(
        FACTORY(),
        runtime=runtime,
        micro_batch=micro_batch,
        sample_shape=SHAPE,
        model_factory=FACTORY,
        **kw,
    )


def assert_stalled_bodies_are_cut(
    host: str, port: int, result_timeout: float, clients: int = 5
) -> None:
    """``clients`` connections each promise a 100-byte body and send 9
    bytes of it: every one is disconnected — EOF or a 4xx — within about
    ``result_timeout + 1`` s, and the handler threads they held end."""
    before = threading.active_count()
    socks = []
    try:
        for _ in range(clients):
            sock = socket.create_connection((host, port), timeout=10)
            sock.sendall(
                b"POST /infer HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: 100\r\n\r\n" + b'{"x": [1,'
            )
            socks.append(sock)
        deadline = time.monotonic() + result_timeout + 1.0
        for sock in socks:
            sock.settimeout(max(0.1, deadline - time.monotonic()))
            reply = sock.recv(64)  # a handler that never gives up: timeout
            assert reply == b"" or reply.split()[1].startswith(b"4"), reply
    finally:
        for sock in socks:
            sock.close()
    deadline = time.monotonic() + 2.0
    while threading.active_count() > before and time.monotonic() < deadline:
        time.sleep(0.01)
    assert threading.active_count() <= before


def _hex(a: np.ndarray) -> list[str]:
    return [v.hex() for v in np.asarray(a, dtype=np.float64).ravel()]


@pytest.mark.concurrency
class TestServerBasics:
    def test_submit_resolves_future_with_logits(self):
        with PipelineServer(_session()) as server:
            X = _requests(1)
            logits = server.submit(X[0]).result(10.0)
            assert logits.shape == (10,)

    def test_prestaged_requests_batch_deterministically(self):
        """Requests admitted before start() coalesce into consecutive
        admission-order packets of max_batch — and the per-request
        logits are then bit-exact with the offline forward over those
        same packets (the serving parity contract, end to end)."""
        session = _session(runtime="threaded", micro_batch=4)
        server = PipelineServer(session, max_batch=4, max_wait=0.5)
        X = _requests(12)
        futures = [server.submit(x) for x in X]  # before start: FIFO
        with server:
            got = np.stack([f.result(20.0) for f in futures])
        ref = session.forward_reference(X, micro_batch=4)
        assert _hex(got) == _hex(ref)
        sizes = [t.batch_size for t in server.stats.timings()]
        assert sizes == [4] * 12  # three full packets

    def test_reused_buffer_does_not_alias_queued_requests(self):
        """A caller that fills one buffer per request gets each frame's
        own answer: admission snapshots the request."""
        session = _session(runtime="threaded", micro_batch=4)
        server = PipelineServer(session, max_batch=4, max_wait=0.5)
        X = _requests(6)
        buf = np.empty(SHAPE)
        futures = []
        for x in X:  # queued before start, so all six wait on buf
            buf[...] = x
            futures.append(server.submit(buf))
        buf[...] = 0.0
        with server:
            got = np.stack([f.result(20.0) for f in futures])
        ref = session.forward_reference(X, micro_batch=4)
        assert _hex(got) == _hex(ref)

    def test_request_shape_validated(self):
        with PipelineServer(_session()) as server:
            with pytest.raises(ValueError, match="shape"):
                server.submit(np.zeros((2, 2)))

    def test_stats_account_for_every_request(self):
        with PipelineServer(_session(), max_wait=0.001) as server:
            futures = [server.submit(x) for x in _requests(20)]
            for f in futures:
                f.result(20.0)
            snap = server.stats.snapshot()
        assert snap["completed"] == 20
        assert snap["rejected"] == 0 and snap["failed"] == 0
        # queue wait + pipeline time ~ latency for every request
        for t in server.stats.timings():
            assert t.latency >= t.queue_wait >= 0.0
            assert t.latency >= t.pipeline_time >= 0.0

    def test_failed_start_fails_prestaged_futures(self):
        """Requests staged before a start() that dies must not hang:
        their futures fail with the start error."""
        session = _session()
        server = PipelineServer(session)
        fut = server.submit(_requests(1)[0])
        boom = RuntimeError("no stream for you")

        def broken_open_stream():
            raise boom

        session.open_stream = broken_open_stream
        with pytest.raises(RuntimeError, match="no stream"):
            server.start()
        with pytest.raises(RuntimeError, match="no stream"):
            fut.result(1.0)
        server.stop()  # idempotent on the never-started path

    def test_stop_without_start_fails_staged_futures(self):
        server = PipelineServer(_session())
        fut = server.submit(_requests(1)[0])
        server.stop()
        with pytest.raises(Overloaded):
            fut.result(1.0)

    def test_server_is_single_use(self):
        """stop() closes the batcher for good; a restart would be a
        server that can never admit — refuse it loudly instead."""
        server = PipelineServer(_session())
        with server:
            server.submit(_requests(1)[0]).result(10.0)
        with pytest.raises(RuntimeError, match="single-use"):
            server.start()

    @pytest.mark.parametrize("runtime", ["sim", "threaded", "process"])
    def test_lone_request_does_not_wait_for_max_wait(self, runtime):
        """Work-conserving batcher, end to end: with nothing in flight a
        lone request enters the pipeline at once, however far away its
        coalescing deadline is."""
        with PipelineServer(_session(runtime), max_wait=60.0) as server:
            for _ in range(3):  # the collector's done() re-arms the rule
                request = server.submit_request(_requests(1)[0])
                assert request.future.result(5.0).shape == (10,)
        waits = [t.queue_wait for t in server.stats.timings()]
        assert len(waits) == 3 and max(waits) < 0.05

    def test_max_batch_cannot_exceed_session_width(self):
        with pytest.raises(ValueError, match="micro_batch"):
            PipelineServer(_session(micro_batch=4), max_batch=8)

    def test_stop_fails_leftover_futures_loudly(self):
        session = _session()
        server = PipelineServer(session, max_wait=60.0, max_batch=4)
        # never started: admitted requests cannot complete.  The
        # request is younger than max_wait (60 s), so _fail_pending
        # must close the batcher itself to be able to drain it —
        # otherwise this future would hang until max_wait.
        fut = server.submit(_requests(1)[0])
        server._fail_pending(Overloaded("server stopped"))
        with pytest.raises(Overloaded):
            fut.result(1.0)
        assert server.stats.snapshot()["failed"] == 1


@pytest.mark.concurrency
class TestOverload:
    def test_saturation_is_explicit_backpressure_not_deadlock(self):
        """Flood a tiny admission queue: every submit either resolves
        or raises Overloaded — nothing hangs, nothing disappears."""
        session = _session(runtime="threaded", micro_batch=2, capacity=2)
        server = PipelineServer(
            session, max_batch=2, max_wait=0.0, max_queue=4
        )
        accepted, rejected = [], [0]
        with server:
            for x in _requests(200, seed=3):
                try:
                    accepted.append(server.submit(x))
                except Overloaded:
                    rejected[0] += 1
            results = [f.result(30.0) for f in accepted]
        assert len(results) == len(accepted)
        assert len(accepted) + rejected[0] == 200
        snap = server.stats.snapshot()
        assert snap["completed"] == len(accepted)
        assert snap["rejected"] == rejected[0]

    def test_closed_loop_clients_retry_through_backpressure(self):
        """A window wider than the admission queue must be refused, and
        every refusal is retried: the loop's retries are exactly the
        server's rejections, and all 60 answers arrive once each."""
        session = _session(runtime="threaded", micro_batch=4, capacity=2)
        server = PipelineServer(
            session, max_batch=4, max_wait=0.001, max_queue=8
        )
        with server:
            run = closed_loop(server.submit, _requests(8), n=60, window=32)
            snap = server.stats.snapshot()
        assert run.retries.sum() > 0
        assert run.retries.sum() == snap["rejected"]
        assert run.row("retry")["rejected_retries"] == snap["rejected"]
        assert sorted(run.outputs) == list(range(60))
        assert snap["completed"] == 60  # zero dropped, none twice

    def test_load_side_is_one_thread(self):
        """Eight requests in flight come from one generator thread (the
        caller's): every submit runs on it and the load side starts no
        thread of its own."""
        with PipelineServer(_session(), max_wait=0.001) as server:
            before = {t.ident for t in threading.enumerate()}
            submitters, extra = set(), set()

            def submit(x):
                submitters.add(threading.get_ident())
                extra.update(
                    t.name
                    for t in threading.enumerate()
                    if t.ident not in before
                )
                return server.submit(x)

            run = closed_loop(submit, _requests(8), n=64, window=8)
        assert submitters == {threading.get_ident()}
        assert extra == set()
        assert run.window == 8 and sorted(run.outputs) == list(range(64))


@pytest.mark.concurrency
class TestHttpEndpoint:
    def test_infer_stats_healthz(self):
        session = _session()
        with PipelineServer(session) as server:
            host, port = server.serve_http()
            x = _requests(1)[0]
            body = json.dumps({"x": x.tolist()}).encode()
            req = urllib.request.Request(
                f"http://{host}:{port}/infer",
                data=body,
                headers={"Content-Type": "application/json"},
            )
            with urllib.request.urlopen(req, timeout=10) as resp:
                payload = json.loads(resp.read())
            assert len(payload["logits"]) == 10
            assert payload["latency_ms"] > 0
            assert isinstance(payload["request_id"], int)
            # the response is the same math the session computes
            ref = session.infer(x[None]).outputs[0]
            assert np.allclose(payload["logits"], ref)
            with urllib.request.urlopen(
                f"http://{host}:{port}/stats", timeout=10
            ) as resp:
                stats = json.loads(resp.read())
            assert stats["completed"] >= 1
            # the lanes: one per usable CPU, each request's packet on one
            lanes = stats["lanes"]
            assert len(lanes) == usable_cpus()
            assert sum(lane["packets"] for lane in lanes) == 1
            assert all(isinstance(lane["cpu"], int) for lane in lanes)
            with urllib.request.urlopen(
                f"http://{host}:{port}/healthz", timeout=10
            ) as resp:
                health = json.loads(resp.read())
            assert health["ok"] is True
            assert health["fingerprint"] == session.fingerprint

    def test_bad_body_is_400_unknown_path_404(self):
        with PipelineServer(_session()) as server:
            host, port = server.serve_http()
            req = urllib.request.Request(
                f"http://{host}:{port}/infer", data=b"not json"
            )
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(req, timeout=10)
            assert err.value.code == 400
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(
                    f"http://{host}:{port}/nope", timeout=10
                )
            assert err.value.code == 404

    def test_negative_content_length_is_400(self):
        """``rfile.read(-1)`` would block until the client hangs up; the
        handler answers 400 instead (FleetRouter shares the handler)."""
        with PipelineServer(_session()) as server:
            host, port = server.serve_http()
            with socket.create_connection((host, port), timeout=10) as sock:
                sock.sendall(
                    b"POST /infer HTTP/1.1\r\nHost: x\r\n"
                    b"Content-Length: -1\r\n\r\n"
                )
                status = sock.recv(64).split(b"\r\n", 1)[0]
        assert status.split()[1] == b"400"

    def test_stalled_request_body_frees_its_handler(self):
        """A client that sends less body than its ``Content-Length``
        cannot hold a handler thread past ``result_timeout``: the
        connection's reads time out and the handler closes it."""
        with PipelineServer(_session("sim"), result_timeout=1.0) as server:
            host, port = server.serve_http()
            assert_stalled_bodies_are_cut(host, port, 1.0)


@pytest.mark.serve
@pytest.mark.concurrency(timeout=300)
class TestServingSmoke:
    """The CI serving smoke: tiny model, process runtime, 200 requests."""

    def test_200_requests_process_runtime_none_lost(self):
        session = _session(runtime="process", micro_batch=8)
        server = PipelineServer(
            session, max_batch=8, max_wait=0.002, max_queue=64
        )
        X = _requests(32, seed=9)
        with server:
            run = closed_loop(server.submit, X, n=200, window=8)
            snap = server.stats.snapshot()
        # zero dropped: exactly one response per request
        assert len(run.outputs) == 200
        assert sorted(run.outputs) == list(range(200))
        # zero duplicated + monotone ids: the batcher assigned each
        # admitted request exactly one gap-free, increasing id
        ids = sorted(t.request_id for t in server.stats.timings())
        assert ids == list(range(snap["completed"]))
        assert snap["completed"] == server.batcher.admitted
        assert snap["failed"] == 0
        # every response is the right math for its input
        ref = session.forward_reference(X, micro_batch=8)
        full = np.stack([ref[rid % 32] for rid in range(200)])
        got = np.stack([run.outputs[rid] for rid in range(200)])
        assert np.allclose(got, full, rtol=1e-9, atol=1e-12)
