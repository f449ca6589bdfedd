"""The serving front-end: futures in, micro-batched pipeline, logits out.

:class:`PipelineServer` wires the serving subsystem together::

    submit(x) ──> DynamicBatcher ──> dispatcher thread ──> InferenceStream
       │            (bounded,          (coalesce into        (sim/threaded/
       │             Overloaded)        (B,...) packets)      process rings)
       │                                                          │
       └────────────── Future.set_result(logits) <── collector thread

Two daemon threads own the pipeline stream's two ends — the
**dispatcher** pulls coalesced packets from the batcher and pushes them
into the stream (blocking on its free-slot wait under backpressure), the
**collector** pulls finished logits out, hands each packet back to the
batcher (:meth:`~repro.serve.batcher.DynamicBatcher.done`), slices the
logits back into per-request rows, resolves the futures and records
:class:`~repro.serve.stats.RequestTiming` entries.  That hand-back is
what keeps the batcher work-conserving: a partial packet waits to
coalesce only while another packet is in flight, so under light traffic
a lone request enters the pipeline at once and its latency is pipeline
time, not ``max_wait``.  The stream is SPSC
by construction (one submitting thread, one polling thread), which is
exactly the discipline the shared-memory rings require.

Saturation behavior is explicit end to end: the batcher's bounded queue
turns overload into :class:`~repro.serve.batcher.Overloaded` at
``submit`` (HTTP 429 on the wire), a full packet enters the pipeline the
moment it is full, the stream's bounded in-flight window turns pipeline
congestion into dispatcher backpressure (so a saturated server runs at
the pipeline's speed), and nothing
anywhere grows without bound or drops silently — ``stop()`` drains
every admitted request before tearing the stream down, failing leftover
futures loudly if the pipeline died.

A stdlib HTTP endpoint (:meth:`PipelineServer.serve_http`) exposes
``POST /infer``, ``GET /stats`` and ``GET /healthz`` for curl-level
serving without any third-party dependency.
"""

from __future__ import annotations

import json
import threading
import time
from concurrent.futures import Future
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable

import numpy as np

from repro.pipeline.inference import InferenceStreamError
from repro.serve.batcher import DynamicBatcher, Overloaded, PendingRequest
from repro.serve.session import InferenceSession
from repro.serve.stats import RequestTiming, ServingStats


class HttpFrontDoor:
    """``serve_http()`` / ``http_stop()`` for :class:`PipelineServer` and
    :class:`~repro.serve.fleet.router.FleetRouter`: the one HTTP handler
    both answer through, serving on a daemon thread of its own."""

    _http_server: ThreadingHTTPServer | None = None

    def _start_http(
        self,
        host: str,
        port: int,
        version: str,
        thread_name: str,
        submit: Callable[[np.ndarray, "str | None"], tuple[Future, dict]],
        get_routes: dict[str, Callable[[], tuple[int, dict]]],
        dtype,
        result_timeout: float,
    ) -> tuple[str, int]:
        """Bind ``host:port`` and serve; returns the bound address.

        ``POST /infer`` parses ``{"x": ..., "class": ...}`` (``x`` as
        ``dtype``), calls ``submit(x, slo_class)`` for a future plus the
        reply fields that identify the request, waits ``result_timeout``
        seconds for the logits, and maps :class:`Overloaded` to 429, a
        ``ValueError`` to 400 and anything else to 500.  Each ``GET``
        path in ``get_routes`` replies with the ``(status, payload)`` its
        builder returns; every other path is a 404.  A connection's
        socket reads and writes time out after ``result_timeout`` too: a
        client that stalls mid-request is disconnected instead of
        holding its handler thread forever.
        """

        class Handler(BaseHTTPRequestHandler):
            server_version = version
            timeout = result_timeout

            def log_message(self, *args) -> None:  # quiet by default
                pass

            def _reply(self, code: int, payload: dict) -> None:
                body = json.dumps(payload).encode()
                self.send_response(code)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def _unknown_path(self) -> tuple[int, dict]:
                return 404, {"error": f"unknown path {self.path}"}

            def do_GET(self) -> None:
                self._reply(*get_routes.get(self.path, self._unknown_path)())

            def do_POST(self) -> None:
                if self.path != "/infer":
                    self._reply(*self._unknown_path())
                    return
                try:
                    length = int(self.headers.get("Content-Length", 0))
                    if length < 0:  # read(-1) would wait for EOF
                        raise ValueError(f"Content-Length {length}")
                    payload = json.loads(self.rfile.read(length) or b"{}")
                    x = np.asarray(payload["x"], dtype=dtype)
                    slo_class = payload.get("class")
                    if slo_class is not None and not isinstance(slo_class, str):
                        raise TypeError("'class' must be a string")
                except (ValueError, KeyError, TypeError) as exc:
                    self._reply(400, {"error": f"bad request body: {exc!r}"})
                    return
                t0 = time.monotonic()
                try:
                    future, fields = submit(x, slo_class)
                    logits = future.result(result_timeout)
                except Overloaded as exc:
                    self._reply(429, {"error": str(exc)})
                except ValueError as exc:
                    self._reply(400, {"error": str(exc)})
                except BaseException as exc:
                    self._reply(500, {"error": repr(exc)})
                else:
                    self._reply(
                        200,
                        {
                            **fields,
                            "logits": np.asarray(logits).tolist(),
                            "latency_ms": (time.monotonic() - t0) * 1e3,
                        },
                    )

        server = ThreadingHTTPServer((host, port), Handler)
        self._http_server = server
        threading.Thread(
            target=server.serve_forever, name=thread_name, daemon=True
        ).start()
        return server.server_address[:2]

    def http_stop(self) -> None:
        if self._http_server is not None:
            self._http_server.shutdown()
            self._http_server.server_close()
            self._http_server = None


class PipelineServer(HttpFrontDoor):
    """Serve an :class:`~repro.serve.session.InferenceSession` (module
    docstring).  Not started at construction — call :meth:`start` (or
    use as a context manager) so tests can stage deterministic request
    mixes before the dispatcher begins draining.

    SLO knobs: ``max_batch`` (packet width cap, default the session's
    micro-batch), ``max_wait`` (the longest a request waits to
    coalesce behind a packet in flight), ``max_queue`` (admission
    bound — beyond it, ``submit`` raises :class:`Overloaded`).
    """

    def __init__(
        self,
        session: InferenceSession,
        max_batch: int | None = None,
        max_wait: float = 0.002,
        max_queue: int = 64,
        result_timeout: float = 30.0,
    ):
        max_batch = session.micro_batch if max_batch is None else max_batch
        if max_batch > session.micro_batch:
            raise ValueError(
                f"max_batch ({max_batch}) cannot exceed the session "
                f"micro_batch ({session.micro_batch}) — ring slots are "
                "sized for the session width"
            )
        self.session = session
        self.batcher = DynamicBatcher(
            max_batch=max_batch, max_wait=max_wait, max_queue=max_queue
        )
        self.stats = ServingStats()
        self.stats.set_gauge_source(
            lambda: {
                "pending": self.batcher.pending,
                "in_flight": self.in_flight,
            }
        )
        self.result_timeout = float(result_timeout)
        self._ready_reason = "serving"
        self._stream = None
        self._pending: dict[int, list[PendingRequest]] = {}
        #: guards ``_pending``; notified when it gains its first packet
        #: (the collector's cue), when it empties (``stop``'s) and at stop
        self._pending_lock = threading.Condition()
        self._packet_ids = iter(range(1 << 62))
        self._stop = threading.Event()
        self._dispatcher_done = threading.Event()
        self._error: BaseException | None = None
        self._threads: list[threading.Thread] = []
        self._started = False
        self._stopped = False

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "PipelineServer":
        if self._started:
            return self
        if self._stopped:
            # stop() closed the batcher for good (its drain guarantees
            # depend on it); a restarted server would open a fresh
            # stream whose requests could never be admitted
            raise RuntimeError(
                "PipelineServer is single-use: this one was stopped; "
                "build a new server to serve again"
            )
        try:
            self._stream = self.session.open_stream()
        except BaseException as exc:
            # a failed start can never serve the requests staged before
            # it — fail their futures now instead of hanging them
            self._error = exc
            self._stopped = True
            self._fail_pending(exc)
            raise
        self._threads = [
            threading.Thread(
                target=self._dispatch_loop, name="serve-dispatch",
                daemon=True,
            ),
            threading.Thread(
                target=self._collect_loop, name="serve-collect", daemon=True
            ),
        ]
        self._started = True
        for t in self._threads:
            t.start()
        return self

    def stop(self) -> None:
        """Drain admitted requests, then tear the pipeline down (the
        server is single-use: a stopped server cannot be restarted)."""
        if not self._started:
            # never (successfully) started — but requests may have been
            # staged before a failed start(); they can never complete,
            # so fail them loudly rather than leaving futures hanging
            self._stopped = True
            self._fail_pending(
                self._error or Overloaded("server stopped")
            )
            return
        self._stopped = True
        self.batcher.close()
        # the dispatcher exits once the batcher is drained; the
        # collector once every in-flight packet has come back
        self._dispatcher_done.wait(self.result_timeout)
        with self._pending_lock:
            self._pending_lock.wait_for(
                lambda: not self._pending or self._error is not None,
                self.result_timeout,
            )
            self._stop.set()
            self._pending_lock.notify_all()
        for t in self._threads:
            t.join(self.result_timeout)
        self._threads = []
        self._fail_pending(
            self._error or Overloaded("server stopped")
        )
        if self._stream is not None:
            self._stream.close()
            self._stream = None
        self._started = False
        self.http_stop()

    def __enter__(self) -> "PipelineServer":
        return self.start()

    def __exit__(self, *exc) -> bool:
        self.stop()
        return False

    # -- readiness (drain state for rolling weight swaps) --------------------

    @property
    def ready(self) -> bool:
        """Readiness, as distinct from liveness: a ready server admits
        new traffic; a draining one only finishes what it admitted.
        The fleet router excludes not-ready replicas from dispatch."""
        return (
            self._started
            and not self._stopped
            and self._error is None
            and not self.batcher.draining
        )

    @property
    def ready_reason(self) -> str:
        if self._error is not None:
            return f"failed: {self._error!r}"
        if self._stopped:
            return "stopped"
        if not self._started:
            return "not started"
        if self.batcher.draining:
            return self._ready_reason
        return "serving"

    def mark_draining(self, reason: str = "draining") -> None:
        """Stop admitting new requests (``submit`` raises
        :class:`Overloaded`; ``/readyz`` reports 503) while every
        already-admitted request still completes.  Reversible with
        :meth:`mark_ready` — though a weight hot-swap instead retires
        this server once drained and starts a fresh one."""
        self._ready_reason = reason
        self.batcher.set_draining(True)

    def mark_ready(self) -> None:
        self._ready_reason = "serving"
        self.batcher.set_draining(False)

    @property
    def in_flight(self) -> int:
        """Requests dispatched into the pipeline whose logits have not
        come back yet (complements the batcher's ``pending`` gauge)."""
        with self._pending_lock:
            return sum(len(batch) for batch in self._pending.values())

    # -- request entry ------------------------------------------------------

    def submit_request(
        self,
        x: np.ndarray,
        slo_class: str | None = None,
        max_wait: float | None = None,
    ) -> PendingRequest:
        """Admit one request; returns its :class:`PendingRequest`
        (monotone ``request_id`` + the Future resolving to its logits
        row).  Raises :class:`Overloaded` when the admission queue is
        full or the server is draining (the backpressure contract) and
        re-raises a pipeline failure if the stream has died.

        ``slo_class`` tags the request through the batcher into the
        stats; ``max_wait`` overrides the coalescing deadline for this
        request only (the fleet's per-class slack pricing)."""
        if self._error is not None:
            raise InferenceStreamError(
                f"serving pipeline failed: {self._error!r}"
            ) from self._error
        x = np.asarray(x, dtype=self.session.dtype)
        expected = self.session.sample_shape
        if expected is not None and tuple(x.shape) != expected:
            raise ValueError(
                f"request shape {tuple(x.shape)} does not match the "
                f"session's sample shape {expected}"
            )
        try:
            return self.batcher.submit(
                x, max_wait=max_wait, slo_class=slo_class
            )
        except Overloaded:
            self.stats.record_rejected(slo_class)
            raise

    def submit(self, x: np.ndarray) -> Future:
        """:meth:`submit_request`, returning just the Future."""
        return self.submit_request(x).future

    def infer_one(self, x: np.ndarray, timeout: float | None = None):
        """Convenience: submit + wait; returns the logits row."""
        return self.submit(x).result(
            self.result_timeout if timeout is None else timeout
        )

    # -- worker loops -------------------------------------------------------

    def _dispatch_loop(self) -> None:
        try:
            while not self._stop.is_set():
                batch = self.batcher.next_batch(timeout=0.05)
                if not batch:
                    if self.batcher.closed:
                        return
                    continue
                X = np.stack([req.x for req in batch])
                pid = next(self._packet_ids)
                with self._pending_lock:
                    self._pending[pid] = batch
                    self._pending_lock.notify_all()
                while not self._stream.submit(pid, pid, X):
                    # pipeline full: block until stage 0 frees a slot
                    if self._stop.is_set():
                        return
                    self._stream.wait(0.05, space=True)
        except BaseException as exc:
            self._error = exc
            self._fail_pending(exc)
        finally:
            self._dispatcher_done.set()

    def _collect_loop(self) -> None:
        batch: list[PendingRequest] | None = None
        try:
            while not self._stop.is_set():
                results = self._stream.poll()
                if not results:
                    # block on the stream while packets are in flight,
                    # on the dispatcher (or stop) while none are; the
                    # timeouts only pace poll()'s worker health check
                    with self._pending_lock:
                        self._pending_lock.wait_for(
                            lambda: self._pending or self._stop.is_set(),
                            0.05,
                        )
                        busy = bool(self._pending)
                    if busy:
                        self._stream.wait(0.05)
                    continue
                t_now = time.monotonic()
                for pid, _start, logits in results:
                    with self._pending_lock:
                        batch = self._pending.pop(pid, None)
                        if not self._pending:
                            self._pending_lock.notify_all()
                    if batch is None:  # pragma: no cover - protocol bug
                        raise InferenceStreamError(
                            f"result for unknown packet {pid}"
                        )
                    self.batcher.done()
                    if logits.shape[0] != len(batch):
                        raise InferenceStreamError(
                            f"packet {pid}: {logits.shape[0]} result rows "
                            f"for {len(batch)} requests"
                        )
                    for i, req in enumerate(batch):
                        req.future.set_result(np.array(logits[i], copy=True))
                        self.stats.record(
                            RequestTiming(
                                request_id=req.request_id,
                                queue_wait=req.t_dispatch - req.t_submit,
                                pipeline_time=t_now - req.t_dispatch,
                                latency=t_now - req.t_submit,
                                batch_size=len(batch),
                                slo_class=req.slo_class,
                            ),
                            t_now,
                        )
                    batch = None  # fully resolved
        except BaseException as exc:
            self._error = exc
            # a batch popped from _pending but not fully resolved would
            # be invisible to _fail_pending — fail its futures here
            self._fail(batch or [], exc)
            self._fail_pending(exc)

    def _fail(self, requests: list[PendingRequest], exc: BaseException) -> None:
        for req in requests:
            if not req.future.done():
                req.future.set_exception(exc)
                self.stats.record_failed()

    def _fail_pending(self, exc: BaseException) -> None:
        """Fail every future still in flight — loudly, never silently."""
        # stop admitting and release the batcher's coalescing deadline:
        # without the close, a request younger than max_wait would not
        # be returned by the drain loop below and its future would hang
        self.batcher.close()
        with self._pending_lock:
            leftovers = list(self._pending.values())
            self._pending.clear()
            self._pending_lock.notify_all()
        for batch in leftovers:
            self._fail(batch, exc)
        while True:
            drained = self.batcher.next_batch(timeout=0.0)
            if not drained:
                break
            self._fail(drained, exc)

    # -- HTTP front door ----------------------------------------------------

    def serve_http(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> tuple[str, int]:
        """Start the stdlib-socket HTTP endpoint on ``host:port`` (port
        0 = ephemeral).  Returns the bound ``(host, port)``.

        * ``POST /infer`` with body ``{"x": <nested list>}`` (optional
          ``"class"`` SLO tag) -> ``{"request_id", "logits",
          "latency_ms"}`` (429 when overloaded, 400 on malformed
          input);
        * ``GET /stats`` -> :meth:`ServingStats.snapshot`, the precision
          mode and :meth:`InferenceSession.placement` (each lane's CPU
          and the packets dispatched to it);
        * ``GET /healthz`` -> liveness + the weight fingerprint (shape
          unchanged since PR 5 — probes keyed on it keep working);
        * ``GET /readyz`` -> readiness: 200 while admitting, 503 with
          the reason + fingerprint while draining/reloading/stopped,
          so a router health-checks replicas out during a hot-swap.
        """
        if not self._started:
            raise RuntimeError("start() the server before serve_http()")
        session = self.session

        def submit(x: np.ndarray, slo_class: str | None):
            request = self.submit_request(x, slo_class=slo_class)
            return request.future, {"request_id": request.request_id}

        def healthz():
            # liveness only — response shape is stable (PR 5)
            return 200, {
                "ok": self._error is None,
                "model": session.model.name,
                "fingerprint": session.fingerprint,
                "runtime": session.runtime,
            }

        def readyz():
            ready = self.ready
            return 200 if ready else 503, {
                "ready": ready,
                "reason": self.ready_reason,
                "fingerprint": session.fingerprint,
                "pending": self.batcher.pending,
                "in_flight": self.in_flight,
            }

        def stats():
            return 200, {
                **self.stats.snapshot(),
                "precision": session.precision.mode,
                **session.placement(),
            }

        return self._start_http(
            host, port, "repro-serve/1.0", "serve-http", submit,
            {"/healthz": healthz, "/readyz": readyz, "/stats": stats},
            dtype=session.dtype, result_timeout=self.result_timeout,
        )
