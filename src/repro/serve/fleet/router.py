"""Multi-replica serving: least-loaded dispatch over N pipeline servers.

A *replica* is one complete serving stack — an
:class:`~repro.serve.session.InferenceSession` (frozen weights on one
of the three runtime backends) fronted by a
:class:`~repro.serve.server.PipelineServer` — plus the swap machinery a
zero-downtime weight reload needs.  ``PipelineServer`` is deliberately
single-use (its drain guarantees depend on a terminally-closed
batcher), so a reload never restarts a server: it builds a *new*
session + server from the checkpoint next to the live one, verifies the
restored weights hash to exactly what the checkpoint payload promises
(:func:`~repro.pipeline.checkpoint.checkpoint_fingerprint`), swaps the
replica's pointer, and only then drains and retires the old generation.
Requests admitted to the old generation complete on the old weights;
requests admitted after the swap run on the new — nothing is dropped or
duplicated at the seam, which the router's fleet-id accounting proves.

:class:`FleetRouter` owns the fleet:

* **dispatch** — per request, pick the ready replica with the smallest
  queue depth (batcher ``pending`` + in-flight, the gauges PR 9 put on
  :meth:`~repro.serve.stats.ServingStats.snapshot`), falling through to
  the next-least-loaded replica if a replica rejects in the race window
  between the gauge read and the admit;
* **admission** — fleet-level SLO-class pricing
  (:class:`~repro.serve.fleet.admission.AdmissionController`) in front
  of the per-replica bounded queues;
* **autoscaling** — :meth:`FleetRouter.tick` feeds queue-wait readings
  to a :class:`~repro.serve.fleet.autoscaler.FleetAutoscaler` and acts
  on its verdicts (add a replica / drain-and-retire one);
* **accounting** — its own cumulative
  :class:`~repro.serve.stats.ServingStats` (replica stats die with each
  server generation; the fleet's must span reloads), monotone fleet
  request ids, and resolved-exactly-once bookkeeping
  (``submitted == resolved + outstanding``, ``duplicates == 0``).
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.pipeline.checkpoint import (
    CheckpointError,
    checkpoint_fingerprint,
    model_fingerprint,
    restore_inference_weights,
)
from repro.pipeline.inference import InferenceStreamError
from repro.serve.batcher import Overloaded, PendingRequest
from repro.serve.fleet.admission import AdmissionController, SLOClass
from repro.serve.fleet.autoscaler import AutoscalePolicy, FleetAutoscaler
from repro.serve.server import HttpFrontDoor, PipelineServer
from repro.serve.session import InferenceSession
from repro.serve.stats import RequestTiming, ServingStats


@dataclass(frozen=True)
class ReplicaSpec:
    """Recipe for building one replica (and rebuilding it on reload).

    ``model_factory`` must be deterministic (seeded) — every replica
    starts from the same weights, and a reload reconstructs the
    architecture through it before restoring checkpoint weights onto
    it.  ``sample_shape`` is required because serving streams need it
    up front (process rings preallocate with it).

    ``max_queue`` is **per replica**; the fleet's aggregate admission
    capacity is ``max_queue`` summed over ready replicas, which is what
    makes offered-load capacity scale with replica count.
    """

    model_factory: Callable
    sample_shape: tuple
    runtime: str = "sim"
    micro_batch: int = 8
    max_batch: int | None = None
    max_wait: float = 0.002
    max_queue: int = 8
    result_timeout: float = 30.0
    #: extra InferenceSession kwargs (capacity, precision, start_method…)
    session_kwargs: dict = field(default_factory=dict)


class Replica:
    """One serving stack + generation-swap machinery (module docstring).

    The live ``server`` attribute is replaced atomically on reload;
    callers that lose the race (submit into the old, draining server)
    get :class:`Overloaded` and the router retries them — a request is
    only ever admitted once.
    """

    def __init__(
        self, name: str, spec: ReplicaSpec, checkpoint: str | None = None
    ):
        self.name = name
        self.spec = spec
        self.checkpoint = checkpoint
        self.generation = 0
        self._swap_lock = threading.Lock()
        self.session, self.server = self._build(checkpoint, verify=False)
        self.server.start()

    def _build(
        self, checkpoint: str | None, verify: bool
    ) -> tuple[InferenceSession, PipelineServer]:
        spec = self.spec
        model = spec.model_factory()
        metadata: dict = {}
        if checkpoint is not None:
            metadata = restore_inference_weights(checkpoint, model)
            if verify:
                # hash the restored weights *before* the session's
                # precision cast and compare against what the payload
                # promises — a corrupt restore never reaches traffic
                restored = model_fingerprint(model)
                expected = checkpoint_fingerprint(checkpoint)
                if restored != expected:
                    raise CheckpointError(
                        f"replica {self.name}: restored weights "
                        f"fingerprint {restored[:12]}… does not match "
                        f"checkpoint fingerprint {expected[:12]}…"
                    )
        session = InferenceSession(
            model,
            runtime=spec.runtime,
            micro_batch=spec.micro_batch,
            sample_shape=spec.sample_shape,
            model_factory=spec.model_factory,
            **spec.session_kwargs,
        )
        session.metadata = metadata
        server = PipelineServer(
            session,
            max_batch=spec.max_batch,
            max_wait=spec.max_wait,
            max_queue=spec.max_queue,
            result_timeout=spec.result_timeout,
        )
        return session, server

    # -- dispatch surface ----------------------------------------------------

    @property
    def ready(self) -> bool:
        return self.server.ready

    @property
    def load(self) -> int:
        """Queue depth: requests admitted but not yet answered."""
        server = self.server
        return server.batcher.pending + server.in_flight

    @property
    def max_queue(self) -> int:
        return self.server.batcher.max_queue

    @property
    def fingerprint(self) -> str:
        return self.session.fingerprint

    def submit(
        self,
        x: np.ndarray,
        slo_class: str | None = None,
        max_wait: float | None = None,
    ) -> PendingRequest:
        return self.server.submit_request(
            x, slo_class=slo_class, max_wait=max_wait
        )

    # -- lifecycle -----------------------------------------------------------

    def reload(
        self,
        checkpoint: str,
        verify: bool = True,
        on_draining: Callable[["Replica"], None] | None = None,
    ) -> dict:
        """Zero-downtime weight swap from a PR-4 checkpoint.

        Order of operations (each step keeps the no-drop invariant):

        1. mark the live server draining — it stops admitting (router
           routes around it) but finishes everything already admitted;
        2. build + verify the new generation next to it (on failure the
           old server is marked ready again and keeps serving — a bad
           checkpoint never takes a replica down);
        3. atomically swap the replica's session/server pointers — the
           replica is ready again, now on the new weights;
        4. drain and retire the old generation (``stop`` blocks until
           every admitted request resolved).

        Returns an event dict for the reload report."""
        t0 = time.monotonic()
        old_session, old_server = self.session, self.server
        old_fingerprint = old_session.fingerprint
        old_server.mark_draining("reloading")
        if on_draining is not None:
            on_draining(self)
        try:
            new_session, new_server = self._build(checkpoint, verify=verify)
        except BaseException:
            old_server.mark_ready()
            raise
        new_server.start()
        with self._swap_lock:
            self.session = new_session
            self.server = new_server
            self.checkpoint = checkpoint
            self.generation += 1
        old_server.stop()
        return {
            "replica": self.name,
            "generation": self.generation,
            "old_fingerprint": old_fingerprint,
            "new_fingerprint": new_session.fingerprint,
            "verified": bool(verify),
            "duration_s": time.monotonic() - t0,
        }

    def stop(self) -> None:
        self.server.stop()

    def describe(self) -> dict:
        server = self.server
        return {
            "ready": server.ready,
            "reason": server.ready_reason,
            "generation": self.generation,
            "fingerprint": self.fingerprint,
            "pending": server.batcher.pending,
            "in_flight": server.in_flight,
            "max_queue": server.batcher.max_queue,
            "completed": server.stats.completed,
        }


@dataclass
class FleetRequest:
    """One request admitted by the fleet: a monotone fleet id + the
    Future resolving to its logits row (plus which replica took it)."""

    fleet_id: int
    future: object
    slo_class: str
    replica: str
    #: the replica-side request (its ``request_id`` is replica-scoped
    #: and resets across generations; ``fleet_id`` is the durable one)
    request: PendingRequest
    #: set by the router's done-callback; a second resolution of the
    #: same request counts as a duplicate
    resolved: bool = False


class FleetRouter(HttpFrontDoor):
    """Route requests across N replicas (module docstring).

    Parameters
    ----------
    spec:
        Replica recipe; every replica (including autoscaled ones) is
        built from it.
    num_replicas:
        Initial fleet size.
    checkpoint:
        Optional PR-4 checkpoint the initial replicas restore weights
        from (autoscaled replicas restore from the most recently
        reloaded checkpoint so a scale-out never resurrects old
        weights).
    classes / deadline_headroom:
        SLO-class table for the
        :class:`~repro.serve.fleet.admission.AdmissionController`.
    autoscale:
        ``None`` (fixed fleet), an
        :class:`~repro.serve.fleet.autoscaler.AutoscalePolicy`, or a
        prebuilt :class:`~repro.serve.fleet.autoscaler.FleetAutoscaler`.
    """

    def __init__(
        self,
        spec: ReplicaSpec,
        num_replicas: int = 2,
        checkpoint: str | None = None,
        classes: dict[str, SLOClass] | None = None,
        deadline_headroom: float = 0.5,
        autoscale: AutoscalePolicy | FleetAutoscaler | None = None,
    ):
        if num_replicas < 1:
            raise ValueError(
                f"num_replicas must be >= 1, got {num_replicas}"
            )
        self.spec = spec
        self.admission = AdmissionController(
            classes, deadline_headroom=deadline_headroom
        )
        if isinstance(autoscale, FleetAutoscaler):
            self.autoscaler = autoscale
        elif autoscale is not None:
            self.autoscaler = FleetAutoscaler(autoscale)
        else:
            self.autoscaler = None
        self.stats = ServingStats()
        self.stats.set_gauge_source(self._gauges)
        self._lock = threading.Lock()
        self._replica_ids = itertools.count()
        self.replicas: dict[str, Replica] = {}
        self._checkpoint = checkpoint
        self._outstanding: dict[str, int] = {}
        self.submitted = 0
        self.resolved = 0
        self.duplicates = 0
        for _ in range(num_replicas):
            self.add_replica()

    # -- fleet shape ---------------------------------------------------------

    def _gauges(self) -> dict:
        replicas = list(self.replicas.values())
        return {
            "pending": sum(r.server.batcher.pending for r in replicas),
            "in_flight": sum(r.server.in_flight for r in replicas),
        }

    @property
    def num_ready(self) -> int:
        return sum(1 for r in self.replicas.values() if r.ready)

    @property
    def outstanding(self) -> int:
        with self._lock:
            return sum(self._outstanding.values())

    def add_replica(self) -> Replica:
        """Grow the fleet by one replica on the current weights."""
        name = f"r{next(self._replica_ids)}"
        replica = Replica(name, self.spec, checkpoint=self._checkpoint)
        self.replicas[name] = replica
        return replica

    def retire_replica(self, name: str) -> None:
        """Drain one replica and remove it (``stop`` resolves every
        admitted request before teardown — retiring never drops)."""
        replica = self.replicas.pop(name)
        replica.server.mark_draining("retiring")
        replica.stop()

    def reload_replica(
        self,
        name: str,
        checkpoint: str,
        verify: bool = True,
        on_draining: Callable[[Replica], None] | None = None,
    ) -> dict:
        """Hot-swap one replica's weights (see :meth:`Replica.reload`);
        prefer :func:`~repro.serve.fleet.reload.rolling_reload` to swap
        the whole fleet."""
        event = self.replicas[name].reload(
            checkpoint, verify=verify, on_draining=on_draining
        )
        self._checkpoint = checkpoint
        return event

    # -- request path --------------------------------------------------------

    def submit(
        self, x: np.ndarray, slo_class: str | None = None
    ) -> FleetRequest:
        """Admit one request into the fleet; raises
        :class:`Overloaded` on pushback (class over its share, fleet
        queue exhausted, or deadline pressure — see
        :mod:`~repro.serve.fleet.admission`)."""
        slo = self.admission.resolve(slo_class)
        ready = [r for r in self.replicas.values() if r.ready]
        capacity = sum(r.max_queue for r in ready)
        if not ready or capacity <= 0:
            self.stats.record_rejected(slo.name)
            raise Overloaded("no ready replicas")
        queue_wait_p95 = self.stats.recent_queue_wait_p95()
        with self._lock:
            try:
                self.admission.admit(
                    slo, self._outstanding, capacity, queue_wait_p95
                )
            except Overloaded:
                self.stats.record_rejected(slo.name)
                raise
            # reserve the slot before dispatching so concurrent
            # submits can't all squeeze through the same headroom
            self._outstanding[slo.name] = (
                self._outstanding.get(slo.name, 0) + 1
            )
        try:
            replica, request = self._dispatch(x, slo, ready)
        except BaseException:
            with self._lock:
                self._outstanding[slo.name] -= 1
            raise
        with self._lock:
            fid = self.submitted  # fleet ids are monotone from 0
            self.submitted += 1
        fleet_request = FleetRequest(
            fleet_id=fid,
            future=request.future,
            slo_class=slo.name,
            replica=replica.name,
            request=request,
        )
        request.future.add_done_callback(
            lambda fut: self._resolve(fleet_request, fut)
        )
        return fleet_request

    def _dispatch(
        self, x: np.ndarray, slo: SLOClass, ready: list[Replica]
    ) -> tuple[Replica, PendingRequest]:
        """Least-loaded first, falling through on the race where a
        replica filled up (or started draining) between the gauge read
        and the admit."""
        last_exc: BaseException | None = None
        for replica in sorted(ready, key=lambda r: r.load):
            try:
                request = replica.submit(
                    x, slo_class=slo.name, max_wait=slo.max_wait_s
                )
                return replica, request
            except (Overloaded, InferenceStreamError) as exc:
                last_exc = exc
                continue
        self.stats.record_rejected(slo.name)
        raise Overloaded(
            f"all {len(ready)} ready replicas rejected class "
            f"{slo.name!r}: {last_exc}"
        )

    def _resolve(self, fleet_request: FleetRequest, fut) -> None:
        """Done-callback of every fleet future: per-class accounting +
        resolved-exactly-once proof (the request carries its own
        "already resolved" flag, so the router keeps no per-request
        state).  Runs on the owning replica's collector thread."""
        t_now = time.monotonic()
        slo_name, req = fleet_request.slo_class, fleet_request.request
        with self._lock:
            self._outstanding[slo_name] -= 1
            if fleet_request.resolved:
                self.duplicates += 1
            else:
                fleet_request.resolved = True
                self.resolved += 1
        if fut.exception() is not None:
            self.stats.record_failed()
            return
        self.stats.record(
            RequestTiming(
                request_id=fleet_request.fleet_id,
                queue_wait=req.t_dispatch - req.t_submit,
                pipeline_time=t_now - req.t_dispatch,
                latency=t_now - req.t_submit,
                # fleet-level accounting is per request; packet widths
                # live in the replica-level stats
                batch_size=1,
                slo_class=slo_name,
            ),
            t_now,
        )

    def infer_one(self, x: np.ndarray, timeout: float | None = None):
        return self.submit(x).future.result(
            self.spec.result_timeout if timeout is None else timeout
        )

    # -- autoscaling ---------------------------------------------------------

    def tick(self, now: float | None = None) -> str | None:
        """Run one autoscaler evaluation and act on its verdict.  Call
        periodically (the load loop, a timer thread); a router without
        an autoscaler ticks as a no-op."""
        if self.autoscaler is None:
            return None
        now = time.monotonic() if now is None else now
        verdict = self.autoscaler.decide(
            now,
            ready_replicas=self.num_ready,
            queue_wait_p95=self.stats.recent_queue_wait_p95(),
            outstanding=self.outstanding,
        )
        if verdict == "out":
            self.add_replica()
        elif verdict == "in":
            # retire the emptiest ready replica (idle fleet: any will do)
            ready = [r for r in self.replicas.values() if r.ready]
            if len(ready) > 1:
                victim = min(ready, key=lambda r: r.load)
                self.retire_replica(victim.name)
        return verdict

    # -- introspection + teardown --------------------------------------------

    def _describe_replicas(self) -> dict:
        return {
            name: replica.describe()
            for name, replica in sorted(self.replicas.items())
        }

    def snapshot(self) -> dict:
        """Fleet-level stats + per-replica state + the id-accounting
        proof (``submitted == resolved + outstanding`` and zero
        duplicates whenever the fleet is healthy)."""
        with self._lock:
            accounting = {
                "submitted": self.submitted,
                "resolved": self.resolved,
                "duplicates": self.duplicates,
                "outstanding": dict(self._outstanding),
            }
        snap = self.stats.snapshot()
        snap.update(
            {
                "replicas": self._describe_replicas(),
                "num_ready": self.num_ready,
                **accounting,
                "autoscale_events": (
                    list(self.autoscaler.events)
                    if self.autoscaler is not None
                    else []
                ),
            }
        )
        return snap

    def stop(self) -> None:
        self.http_stop()
        for replica in list(self.replicas.values()):
            replica.stop()
        self.replicas.clear()

    def __enter__(self) -> "FleetRouter":
        return self

    def __exit__(self, *exc) -> bool:
        self.stop()
        return False

    # -- HTTP front door -----------------------------------------------------

    def serve_http(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> tuple[str, int]:
        """Fleet front door, same wire shapes as the single-server
        endpoint: ``POST /infer`` (optional ``"class"`` tag; 429 on
        pushback), ``GET /stats`` (fleet :meth:`snapshot`), ``GET
        /healthz`` (fleet liveness: any live replica), ``GET /readyz``
        (200 while at least one replica admits traffic)."""

        def submit(x: np.ndarray, slo_class: str | None):
            request = self.submit(x, slo_class=slo_class)
            return request.future, {
                "request_id": request.fleet_id,
                "replica": request.replica,
                "class": request.slo_class,
            }

        def healthz():
            live = sorted(
                n for n, r in self.replicas.items() if r.server._error is None
            )
            return 200 if live else 503, {
                "ok": bool(live),
                "replicas": len(self.replicas),
                "live": live,
            }

        def readyz():
            ready = self.num_ready
            return 200 if ready > 0 else 503, {
                "ready": ready > 0,
                "num_ready": ready,
                "replicas": self._describe_replicas(),
            }

        def stats():
            return 200, self.snapshot()

        return self._start_http(
            host, port, "repro-serve-fleet/1.0", "fleet-http", submit,
            {"/healthz": healthz, "/readyz": readyz, "/stats": stats},
            dtype=None, result_timeout=self.spec.result_timeout,
        )
