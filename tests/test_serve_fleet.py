"""Fleet serving: SLO admission, autoscaling, least-loaded dispatch,
and zero-downtime rolling weight hot-swap.

The contract under test, layer by layer:

* **admission** (pure) — per-class queue shares and deadline pricing:
  interactive gets :class:`Overloaded` pushback *before* batch under
  the same measured queue pressure;
* **autoscaler** (pure, fake clock) — scale out on queue-wait p95,
  drain-and-retire after idle grace, both bounded and cooldown-gated;
* **router** (real replicas, sim runtime) — responses bit-exact with
  the offline reference, fleet ids resolved exactly once, draining
  replicas routed around, a reload under live traffic serving every
  request on either the old or the new weights (never garbage, never
  dropped);
* **fleet smoke** (``-m fleet``, process runtime) — the CI job: mixed
  SLO traffic across 2 process-backend replicas through a mid-run
  rolling reload with monotone per-class counters.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request
from functools import partial

import numpy as np
import pytest

from repro.models.simple import small_cnn
from repro.pipeline import PipelineExecutor
from repro.pipeline.checkpoint import (
    CheckpointError,
    capture_checkpoint,
    checkpoint_fingerprint,
    save_checkpoint,
)
from repro.serve import InferenceSession, Overloaded
from repro.serve.fleet import (
    AdmissionController,
    AutoscalePolicy,
    FleetAutoscaler,
    FleetRouter,
    ReplicaSpec,
    SLOClass,
    default_slo_classes,
    rolling_reload,
)
from repro.serve.loadgen import assign_classes, closed_loop

from test_serve_server import assert_stalled_bodies_are_cut

FACTORY = partial(small_cnn, num_classes=10, widths=(8, 16), seed=11)
SHAPE = (3, 8, 8)


def _hex(a: np.ndarray) -> list[str]:
    return [v.hex() for v in np.asarray(a, dtype=np.float64).ravel()]


def _requests(n: int, seed: int = 0) -> np.ndarray:
    return np.random.default_rng(seed).normal(size=(n,) + SHAPE)


def _make_checkpoint(path: str, label_seed: int) -> str:
    """Train the stock model briefly and checkpoint it; different
    ``label_seed`` values yield different weights (and fingerprints)."""
    model = FACTORY()
    engine = PipelineExecutor(model, lr=0.02, momentum=0.9, mode="pb")
    X = _requests(16, seed=5)
    Y = np.random.default_rng(label_seed).integers(0, 10, size=16)
    engine.train(X, Y)
    save_checkpoint(path, capture_checkpoint(engine))
    return path


@pytest.fixture(scope="module")
def checkpoints(tmp_path_factory) -> tuple[str, str]:
    """Two checkpoints of the same architecture with different weights
    (the before/after of every hot-swap test)."""
    root = tmp_path_factory.mktemp("fleet-ckpts")
    ck_a = _make_checkpoint(str(root / "a.ckpt"), label_seed=1)
    ck_b = _make_checkpoint(str(root / "b.ckpt"), label_seed=2)
    assert checkpoint_fingerprint(ck_a) != checkpoint_fingerprint(ck_b)
    return ck_a, ck_b


def _spec(**overrides) -> ReplicaSpec:
    kwargs = dict(
        model_factory=FACTORY,
        sample_shape=SHAPE,
        runtime="sim",
        micro_batch=4,
        max_queue=8,
    )
    kwargs.update(overrides)
    return ReplicaSpec(**kwargs)


def _reference_row(checkpoint: str, x: np.ndarray) -> np.ndarray:
    """Offline single-row forward on a checkpoint's weights — what a
    width-1 packet through any replica must match bit-for-bit."""
    session = InferenceSession.from_checkpoint(
        checkpoint, FACTORY, runtime="sim", micro_batch=1,
        sample_shape=SHAPE,
    )
    return session.forward_reference(x[None], micro_batch=1)[0]


# ---------------------------------------------------------------------------
# admission (pure)
# ---------------------------------------------------------------------------


class TestSLOClasses:
    def test_defaults(self):
        classes = default_slo_classes()
        assert set(classes) == {"interactive", "batch"}
        inter, batch = classes["interactive"], classes["batch"]
        assert inter.max_wait_s == 0.0  # no coalescing delay
        assert inter.deadline_s < batch.deadline_s
        assert inter.queue_share < batch.queue_share

    def test_validation(self):
        with pytest.raises(ValueError, match="deadline"):
            SLOClass("x", deadline_s=0.0, max_wait_s=0.0)
        with pytest.raises(ValueError, match="max_wait"):
            SLOClass("x", deadline_s=1.0, max_wait_s=-1.0)
        with pytest.raises(ValueError, match="queue_share"):
            SLOClass("x", deadline_s=1.0, max_wait_s=0.0, queue_share=0.0)
        with pytest.raises(ValueError, match="headroom"):
            AdmissionController(deadline_headroom=0.0)
        with pytest.raises(ValueError, match="does not match"):
            AdmissionController(
                {"a": SLOClass("b", deadline_s=1.0, max_wait_s=0.0)}
            )


class TestAdmission:
    def test_resolve(self):
        ctrl = AdmissionController()
        assert ctrl.resolve(None).name == "interactive"
        assert ctrl.resolve("batch").name == "batch"
        with pytest.raises(ValueError, match="unknown SLO class"):
            ctrl.resolve("bulk")

    def test_aggregate_capacity_is_a_hard_cap(self):
        ctrl = AdmissionController()
        batch = ctrl.resolve("batch")
        ctrl.admit(batch, {"batch": 15}, capacity=16, queue_wait_p95=None)
        with pytest.raises(Overloaded, match="exhausted"):
            ctrl.admit(
                batch, {"batch": 16}, capacity=16, queue_wait_p95=None
            )

    def test_queue_share_limits_one_class_not_the_fleet(self):
        """Interactive at its share is pushed back while batch (share
        1.0) is still admitted into the same queue."""
        ctrl = AdmissionController()
        inter = ctrl.resolve("interactive")
        outstanding = {"interactive": 8}  # == 0.5 * 16
        with pytest.raises(Overloaded, match="queue share"):
            ctrl.admit(inter, outstanding, 16, None)
        ctrl.admit(ctrl.resolve("batch"), outstanding, 16, None)

    def test_interactive_pushed_back_before_batch(self):
        """The ordering claim: under identical measured queue pressure
        the tight-deadline class is rejected first."""
        ctrl = AdmissionController(deadline_headroom=0.5)
        inter, batch = ctrl.resolve("interactive"), ctrl.resolve("batch")
        busy = {"interactive": 4, "batch": 6}  # fleet genuinely queued
        # past interactive's budget (0.25 * 0.5) but inside batch's
        pressure = 0.2
        with pytest.raises(Overloaded, match="deadline pressure"):
            ctrl.admit(inter, busy, 16, pressure)
        ctrl.admit(batch, busy, 16, pressure)  # batch still admitted
        # crank pressure past batch's budget too (5.0 * 0.5)
        with pytest.raises(Overloaded, match="deadline pressure"):
            ctrl.admit(batch, busy, 16, 2.6)

    def test_stale_pressure_over_drained_queues_admits(self):
        """Deadline pressure is trailing; with the fleet's queues
        actually drained (below half occupancy) a leftover wait spike
        — reload turbulence — must not keep rejecting the tight class."""
        ctrl = AdmissionController(deadline_headroom=0.5)
        inter = ctrl.resolve("interactive")
        with pytest.raises(Overloaded, match="deadline pressure"):
            ctrl.admit(inter, {"batch": 8}, 16, 0.2)
        ctrl.admit(inter, {"batch": 7}, 16, 0.2)  # drained -> admitted
        ctrl.admit(inter, {}, 16, 0.2)

    def test_no_signal_admits_on_structure_alone(self):
        ctrl = AdmissionController()
        ctrl.admit(ctrl.resolve("interactive"), {}, 16, None)


# ---------------------------------------------------------------------------
# autoscaler (pure, fake clock)
# ---------------------------------------------------------------------------


class TestAutoscaler:
    def _scaler(self, **overrides) -> FleetAutoscaler:
        kwargs = dict(
            min_replicas=1,
            max_replicas=3,
            scale_out_wait_s=0.05,
            idle_grace_s=1.0,
            cooldown_s=0.5,
        )
        kwargs.update(overrides)
        return FleetAutoscaler(AutoscalePolicy(**kwargs))

    def test_scale_out_on_queue_wait(self):
        sc = self._scaler()
        assert sc.decide(0.0, 1, 0.01, outstanding=4) is None
        assert sc.decide(1.0, 1, 0.10, outstanding=4) == "out"
        # bounded by max_replicas
        assert sc.decide(10.0, 3, 0.10, outstanding=4) is None

    def test_cooldown_spaces_actions(self):
        sc = self._scaler()
        assert sc.decide(0.0, 1, 0.10, outstanding=4) == "out"
        assert sc.decide(0.1, 2, 0.10, outstanding=4) is None  # too soon
        assert sc.decide(0.9, 2, 0.10, outstanding=4) == "out"

    def test_scale_in_after_idle_grace(self):
        sc = self._scaler(cooldown_s=0.0)
        assert sc.decide(0.0, 2, None, outstanding=0) is None  # grace runs
        assert sc.decide(0.5, 2, None, outstanding=0) is None
        assert sc.decide(1.5, 2, None, outstanding=0) == "in"
        # bounded by min_replicas
        assert sc.decide(5.0, 1, None, outstanding=0) is None

    def test_outstanding_work_resets_idle_clock(self):
        sc = self._scaler(cooldown_s=0.0)
        assert sc.decide(0.0, 2, None, outstanding=0) is None
        assert sc.decide(0.9, 2, None, outstanding=3) is None  # busy again
        assert sc.decide(1.5, 2, None, outstanding=0) is None  # clock reset
        assert sc.decide(2.6, 2, None, outstanding=0) == "in"

    def test_decisions_are_logged(self):
        sc = self._scaler()
        sc.decide(1.0, 1, 0.10, outstanding=4)
        assert [(t, a) for t, a, _ in sc.events] == [(1.0, "out")]

    def test_policy_validation(self):
        with pytest.raises(ValueError, match="min_replicas"):
            AutoscalePolicy(min_replicas=0)
        with pytest.raises(ValueError, match="max_replicas"):
            AutoscalePolicy(min_replicas=3, max_replicas=2)
        with pytest.raises(ValueError, match="scale_out_wait_s"):
            AutoscalePolicy(scale_out_wait_s=0.0)


# ---------------------------------------------------------------------------
# router (real replicas, sim runtime)
# ---------------------------------------------------------------------------


@pytest.mark.concurrency
class TestFleetRouter:
    def test_dispatch_answers_match_reference(self, checkpoints):
        ck_a, _ = checkpoints
        with FleetRouter(_spec(micro_batch=1), 2, checkpoint=ck_a) as router:
            x = _requests(1, seed=3)[0]
            ref = _reference_row(ck_a, x)
            for _ in range(6):
                assert _hex(router.infer_one(x)) == _hex(ref)
            snap = router.snapshot()
        assert snap["submitted"] == 6
        assert snap["resolved"] == 6
        assert snap["duplicates"] == 0
        assert snap["completed_by_class"] == {"interactive": 6}

    def test_fleet_ids_are_monotone_and_resolved_once(self, checkpoints):
        ck_a, _ = checkpoints
        with FleetRouter(_spec(), 2, checkpoint=ck_a) as router:
            x = _requests(1)[0]
            reqs = [router.submit(x, "batch") for _ in range(8)]
            for fr in reqs:
                fr.future.result(10.0)
            assert [fr.fleet_id for fr in reqs] == list(range(8))
            deadline = time.monotonic() + 5.0
            while router.outstanding and time.monotonic() < deadline:
                time.sleep(1e-3)
            snap = router.snapshot()
        assert snap["resolved"] == 8 and snap["duplicates"] == 0
        assert snap["outstanding"] == {"batch": 0}

    def test_router_keeps_no_per_request_state(self, checkpoints):
        """10 000 resolved requests leave the router's memory where 100
        did: resolution is a counter plus a flag each request carries,
        so router state is O(outstanding), not O(lifetime traffic)."""
        ck_a, _ = checkpoints

        def held(router) -> int:
            return sum(
                len(v) for v in vars(router).values()
                if isinstance(v, (set, dict, list, tuple))
            )

        spec = _spec(micro_batch=64, max_queue=64)
        with FleetRouter(spec, 2, checkpoint=ck_a) as router:
            x = _requests(1)[0]

            def pump(n: int) -> None:
                for _ in range(n // 50):
                    window = [router.submit(x, "batch") for _ in range(50)]
                    for fr in window:
                        fr.future.result(10.0)

            pump(100)
            after_100 = held(router)
            pump(9_900)
            deadline = time.monotonic() + 5.0
            while router.outstanding and time.monotonic() < deadline:
                time.sleep(1e-3)
            snap = router.snapshot()
            assert held(router) == after_100
        assert snap["submitted"] == snap["resolved"] == 10_000
        assert snap["duplicates"] == 0
        assert snap["outstanding"] == {"batch": 0}

    def test_second_resolution_counts_as_duplicate(self, checkpoints):
        ck_a, _ = checkpoints
        with FleetRouter(_spec(), 1, checkpoint=ck_a) as router:
            fr = router.submit(_requests(1)[0], "batch")
            fr.future.result(10.0)
            deadline = time.monotonic() + 5.0
            while router.outstanding and time.monotonic() < deadline:
                time.sleep(1e-3)
            assert fr.resolved and router.snapshot()["duplicates"] == 0
            with router._lock:
                router._outstanding["batch"] += 1  # what a re-resolve undoes
            router._resolve(fr, fr.future)
            snap = router.snapshot()
        assert snap["duplicates"] == 1
        assert snap["submitted"] == snap["resolved"] == 1

    def test_unknown_class_is_refused_loudly(self, checkpoints):
        ck_a, _ = checkpoints
        with FleetRouter(_spec(), 1, checkpoint=ck_a) as router:
            with pytest.raises(ValueError, match="unknown SLO class"):
                router.submit(_requests(1)[0], "bulk")

    def test_draining_replica_is_routed_around(self, checkpoints):
        ck_a, _ = checkpoints
        with FleetRouter(_spec(), 2, checkpoint=ck_a) as router:
            names = sorted(router.replicas)
            router.replicas[names[0]].server.mark_draining("test drain")
            assert router.num_ready == 1
            x = _requests(1)[0]
            for _ in range(4):
                assert router.submit(x, "batch").replica == names[1]
            # nobody ready -> immediate, loud pushback
            router.replicas[names[1]].server.mark_draining("test drain")
            with pytest.raises(Overloaded, match="no ready replicas"):
                router.submit(x, "batch")
            assert router.snapshot()["rejected_by_class"] == {"batch": 1}

    def test_least_loaded_wins(self, checkpoints):
        """With one replica's queue preloaded, new traffic lands on the
        empty one."""
        ck_a, _ = checkpoints
        # flush width (micro_batch) wider than the parked load so the
        # parked requests stay queued behind a packet in flight (max_wait
        # far away); the routed request still flushes fast via its class
        # max_wait override
        spec = _spec(max_wait=60.0, micro_batch=8)
        with FleetRouter(spec, 2, checkpoint=ck_a) as router:
            names = sorted(router.replicas)
            loaded = router.replicas[names[0]]
            batcher = loaded.server.batcher
            # hold r0's first packet in flight: its collector blocks in
            # done() until released, so the batcher keeps one packet out
            handed_back, release = threading.Event(), threading.Event()
            real_done = batcher.done

            def held_done():
                handed_back.set()
                release.wait(10.0)
                real_done()

            batcher.done = held_done
            first = loaded.server.submit_request(_requests(1)[0])
            assert handed_back.wait(10.0)
            parked = [
                loaded.server.submit_request(_requests(1)[0], max_wait=60.0)
                for _ in range(3)
            ]
            assert batcher.pending == 3 and loaded.load == 3
            fr = router.submit(_requests(1)[0], "batch")
            assert fr.replica == names[1]
            fr.future.result(10.0)
            # the in-flight packet comes back: the parked ones leave at
            # once, not at their 60 s deadline
            release.set()
            for req in [first] + parked:
                req.future.result(10.0)

    def test_rolling_reload_under_live_traffic(self, checkpoints):
        """The tentpole invariant: during a rolling hot-swap every
        response is bit-exact with the *old or new* weights' reference
        (never a torn mix), nothing is dropped or duplicated, at least
        one replica stays ready throughout, and the fleet ends with
        every replica on the new fingerprint."""
        ck_a, ck_b = checkpoints
        x = _requests(1, seed=7)[0]
        ref_old = _hex(_reference_row(ck_a, x))
        ref_new = _hex(_reference_row(ck_b, x))
        assert ref_old != ref_new
        spec = _spec(micro_batch=1)  # width-1 packets => stable reference
        with FleetRouter(spec, 3, checkpoint=ck_a) as router:
            stop = threading.Event()
            outputs: list[list[str]] = []
            failures: list[BaseException] = []

            def client():
                while not stop.is_set():
                    try:
                        fr = router.submit(x, "interactive")
                        outputs.append(_hex(fr.future.result(30.0)))
                    except Overloaded:
                        time.sleep(1e-4)
                    except BaseException as exc:  # noqa: BLE001
                        failures.append(exc)
                        return

            threads = [threading.Thread(target=client) for _ in range(3)]
            for t in threads:
                t.start()
            time.sleep(0.1)
            report = rolling_reload(router, ck_b)
            time.sleep(0.1)
            stop.set()
            for t in threads:
                t.join()
            snap = router.snapshot()
            assert not failures
            assert report.replicas_swapped == 3
            assert report.min_ready_observed >= 1  # zero-downtime
            assert report.fingerprint == checkpoint_fingerprint(ck_b)
            for state in snap["replicas"].values():
                assert state["fingerprint"] == report.fingerprint
                assert state["generation"] == 1
            # no torn responses: everything served is old or new weights
            torn = [o for o in outputs if o != ref_old and o != ref_new]
            assert torn == []
            assert ref_old in outputs  # traffic really spanned the swap
            assert ref_new in outputs
            # id accounting across the swap
            assert snap["duplicates"] == 0
            assert snap["submitted"] == snap["resolved"] + sum(
                snap["outstanding"].values()
            )
            assert snap["failed"] == 0

    def test_failed_reload_keeps_replica_serving_old_weights(
        self, checkpoints, tmp_path
    ):
        """A bad checkpoint (here: wrong architecture, which fails in
        restore) never takes a replica down — the swap aborts and the
        replica re-opens admission on its old weights."""
        ck_a, _ = checkpoints
        other_model = small_cnn(num_classes=10, widths=(4, 4), seed=1)
        eng = PipelineExecutor(other_model, lr=0.01, mode="pb")
        eng.train(_requests(8), np.zeros(8, dtype=int))
        wrong = str(tmp_path / "wrong.ckpt")
        save_checkpoint(wrong, capture_checkpoint(eng))
        with FleetRouter(_spec(), 1, checkpoint=ck_a) as router:
            (name,) = router.replicas
            replica = router.replicas[name]
            fp_before = replica.fingerprint
            with pytest.raises(CheckpointError):
                router.reload_replica(name, wrong)
            # the failed swap left the replica ready, on its old weights
            assert replica.ready
            assert replica.fingerprint == fp_before
            assert replica.generation == 0
            assert router.infer_one(_requests(1)[0]) is not None

    def test_autoscaler_grows_and_shrinks_through_router(self, checkpoints):
        from repro.serve.stats import RequestTiming

        ck_a, _ = checkpoints
        policy = AutoscalePolicy(
            min_replicas=1,
            max_replicas=2,
            scale_out_wait_s=0.001,
            idle_grace_s=0.0,
            cooldown_s=0.0,
        )
        with FleetRouter(
            _spec(), 1, checkpoint=ck_a, autoscale=policy
        ) as router:
            # no signal yet: hold
            assert router.tick() is None
            # feed the fleet stats a slow-queue reading -> scale out
            now = time.monotonic()
            for i in range(4):
                router.stats.record(
                    RequestTiming(
                        request_id=i, queue_wait=0.05,
                        pipeline_time=0.01, latency=0.06,
                    ),
                    now,
                )
            assert router.tick() == "out"
            assert len(router.replicas) == 2
            assert router.num_ready == 2
            # at max_replicas + idle -> drain-and-retire back to min
            # (the pressure reading persists in the stats window, so
            # the min_replicas floor itself is pinned in the pure
            # autoscaler tests above, on a controllable signal)
            assert router.tick() == "in"
            assert len(router.replicas) == 1
            assert router.num_ready == 1

    def test_scale_out_joins_on_current_weights(self, checkpoints):
        """A replica added after a reload restores the *reloaded*
        checkpoint, not the one the fleet booted with."""
        ck_a, ck_b = checkpoints
        with FleetRouter(_spec(), 1, checkpoint=ck_a) as router:
            rolling_reload(router, ck_b)
            grown = router.add_replica()
            assert grown.fingerprint == checkpoint_fingerprint(ck_b)


# ---------------------------------------------------------------------------
# HTTP front door
# ---------------------------------------------------------------------------


def _get(url: str) -> tuple[int, dict]:
    try:
        with urllib.request.urlopen(url, timeout=10.0) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def _post(url: str, payload: dict) -> tuple[int, dict]:
    data = json.dumps(payload).encode()
    req = urllib.request.Request(
        url, data=data, headers={"Content-Type": "application/json"}
    )
    try:
        with urllib.request.urlopen(req, timeout=30.0) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


@pytest.mark.concurrency
class TestFleetHTTP:
    def test_front_door(self, checkpoints):
        ck_a, _ = checkpoints
        with FleetRouter(_spec(micro_batch=1), 2, checkpoint=ck_a) as router:
            host, port = router.serve_http()
            base = f"http://{host}:{port}"
            x = _requests(1, seed=9)[0]
            ref = _hex(_reference_row(ck_a, x))

            code, body = _post(
                f"{base}/infer", {"x": x.tolist(), "class": "batch"}
            )
            assert code == 200
            assert body["class"] == "batch"
            assert body["replica"] in router.replicas
            assert _hex(np.asarray(body["logits"])) == ref

            code, body = _get(f"{base}/healthz")
            assert code == 200 and body["ok"] and body["replicas"] == 2
            code, body = _get(f"{base}/readyz")
            assert code == 200 and body["ready"]
            assert body["num_ready"] == 2
            code, body = _get(f"{base}/stats")
            assert code == 200
            assert body["completed_by_class"] == {"batch": 1}
            assert body["duplicates"] == 0

            code, body = _post(f"{base}/infer", {"x": x.tolist(), "class": 3})
            assert code == 400
            code, body = _post(
                f"{base}/infer", {"x": x.tolist(), "class": "bulk"}
            )
            assert code == 400 and "unknown SLO class" in body["error"]

    def test_stalled_request_body_frees_its_handler(self, checkpoints):
        """The router answers through the server's handler, so a
        client that under-sends its body is cut off the same way."""
        ck_a, _ = checkpoints
        spec = _spec(result_timeout=1.0)
        with FleetRouter(spec, 1, checkpoint=ck_a) as router:
            host, port = router.serve_http()
            assert_stalled_bodies_are_cut(host, port, 1.0)

    def test_readyz_degrades_with_the_fleet(self, checkpoints):
        ck_a, _ = checkpoints
        with FleetRouter(_spec(), 2, checkpoint=ck_a) as router:
            host, port = router.serve_http()
            base = f"http://{host}:{port}"
            names = sorted(router.replicas)
            router.replicas[names[0]].server.mark_draining("reloading")
            code, body = _get(f"{base}/readyz")
            assert code == 200  # one replica down, fleet still ready
            assert body["num_ready"] == 1
            assert body["replicas"][names[0]]["reason"] == "reloading"
            router.replicas[names[1]].server.mark_draining("reloading")
            code, body = _get(f"{base}/readyz")
            assert code == 503 and not body["ready"]

    def test_replica_readyz_vs_healthz(self, checkpoints):
        """Satellite: per-replica liveness and readiness are separate
        probes — a draining replica is alive (healthz 200, unchanged
        shape) but not ready (readyz 503 with reason+fingerprint)."""
        ck_a, _ = checkpoints
        with FleetRouter(_spec(), 1, checkpoint=ck_a) as router:
            (name,) = router.replicas
            replica = router.replicas[name]
            host, port = replica.server.serve_http()
            base = f"http://{host}:{port}"
            code, body = _get(f"{base}/healthz")
            assert code == 200
            assert set(body) == {"ok", "model", "fingerprint", "runtime"}
            code, body = _get(f"{base}/readyz")
            assert code == 200 and body["ready"]
            assert body["reason"] == "serving"
            replica.server.mark_draining("reloading")
            code, body = _get(f"{base}/healthz")
            assert code == 200 and body["ok"]  # alive while draining
            code, body = _get(f"{base}/readyz")
            assert code == 503 and not body["ready"]
            assert body["reason"] == "reloading"
            assert body["fingerprint"] == replica.fingerprint
            replica.server.mark_ready()
            code, body = _get(f"{base}/readyz")
            assert code == 200 and body["reason"] == "serving"


# ---------------------------------------------------------------------------
# fleet smoke (CI job: pytest -m fleet)
# ---------------------------------------------------------------------------


@pytest.mark.fleet
@pytest.mark.concurrency(timeout=300)
class TestFleetSmoke:
    def test_process_fleet_mixed_slo_with_rolling_reload(
        self, checkpoints, tmp_path
    ):
        """2 process-backend replicas, mixed interactive/batch closed
        loop, a rolling reload mid-run: zero dropped/duplicated ids,
        every client answered, per-class counters monotone."""
        ck_a, ck_b = checkpoints
        spec = _spec(runtime="process", micro_batch=4, max_queue=8)
        x_pool = _requests(8, seed=21)
        with FleetRouter(spec, 2, checkpoint=ck_a) as router:
            observed: list[dict] = []

            def sample() -> None:
                snap = router.snapshot()
                observed.append(
                    {
                        "completed_by_class": dict(
                            snap["completed_by_class"]
                        ),
                        "completed": snap["completed"],
                    }
                )

            reload_done = threading.Event()

            def mid_run_reload() -> None:
                time.sleep(0.3)
                sample()
                rolling_reload(router, ck_b)
                sample()
                reload_done.set()

            swapper = threading.Thread(target=mid_run_reload)
            swapper.start()
            run = closed_loop(
                lambda x, slo: router.submit(x, slo).future,
                x_pool,
                n=120,
                window=4,
                classes=assign_classes(
                    120, {"interactive": 0.7, "batch": 0.3}
                ),
            )
            swapper.join()
            sample()
            snap = router.snapshot()

            assert reload_done.is_set()
            # every client answered (closed loop: lost => raised)
            assert sorted(run.outputs) == list(range(120))
            assert snap["duplicates"] == 0
            assert snap["submitted"] == snap["resolved"]  # nothing dropped
            assert snap["failed"] == 0
            # per-class counters are cumulative and monotone across the
            # reload (fleet stats must not reset with server generations)
            for cls in ("interactive", "batch"):
                series = [
                    o["completed_by_class"].get(cls, 0) for o in observed
                ]
                assert series == sorted(series)
            totals = snap["completed_by_class"]
            assert totals["interactive"] + totals["batch"] == snap["completed"]
            # the swap really happened, on-line
            for state in snap["replicas"].values():
                assert state["generation"] == 1
                assert state["fingerprint"] == checkpoint_fingerprint(ck_b)
