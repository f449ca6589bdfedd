"""Serving fleet: SLO classes, least-loaded routing, live weight swap.

Demonstrates the :mod:`repro.serve.fleet` subsystem end to end:

1. train the same architecture to two different checkpoints (the
   "old" and "new" weights of a deployment);
2. stand up a 3-replica :class:`~repro.serve.fleet.FleetRouter` on the
   old checkpoint — per-replica :class:`~repro.serve.PipelineServer`
   instances behind queue-depth-aware least-loaded dispatch with
   two-class SLO admission (tight-deadline ``interactive`` vs
   throughput-oriented ``batch``);
3. drive a mixed closed loop through the router while a **rolling
   zero-downtime reload** swaps every replica onto the new checkpoint
   (drain -> restore -> fingerprint-verify -> rejoin, one replica at a
   time);
4. hit the fleet's HTTP front door (``/infer`` with a class tag,
   ``/stats``, ``/readyz``) the way an external client would;
5. print the proof: every request resolved exactly once, all replicas
   on the new fingerprint, at least one replica ready throughout.

Run with::

    PYTHONPATH=src python examples/serving_fleet.py
"""

import json
import os
import tempfile
import threading
import time
import urllib.request
from functools import partial

from repro.data.synthetic import SyntheticCifar
from repro.models.simple import small_cnn
from repro.pipeline import capture_checkpoint, save_checkpoint
from repro.pipeline.checkpoint import checkpoint_fingerprint, load_checkpoint
from repro.pipeline.runtime import make_pipeline_engine
from repro.serve import assign_classes, closed_loop
from repro.serve.fleet import FleetRouter, ReplicaSpec, rolling_reload

model_factory = partial(small_cnn, num_classes=10, widths=(8, 16), seed=11)

# -- 1. two checkpoints of the same architecture ----------------------------
ds = SyntheticCifar(seed=0, image_size=8, train_size=128, val_size=64)
tmp = tempfile.mkdtemp(prefix="serving-fleet-")
ckpts = {}
for name, n_train in (("old", 48), ("new", 96)):
    engine = make_pipeline_engine(
        "sim", model_factory(), lr=0.02, momentum=0.9, mode="pb"
    )
    engine.train(ds.x_train[:n_train], ds.y_train[:n_train])
    path = os.path.join(tmp, f"{name}.ckpt")
    save_checkpoint(path, capture_checkpoint(engine))
    ckpts[name] = path
    fp = checkpoint_fingerprint(load_checkpoint(path))
    print(f"checkpoint {name!r}: {n_train} PB samples, "
          f"fingerprint {fp[:12]}...")

# -- 2. the fleet ------------------------------------------------------------
spec = ReplicaSpec(
    model_factory=model_factory,
    sample_shape=ds.x_val.shape[1:],
    runtime="sim",             # or "threaded" / "process" per replica
    micro_batch=8,
    max_queue=8,
)

with FleetRouter(spec, num_replicas=3, checkpoint=ckpts["old"]) as router:
    print(f"fleet up: {sorted(router.replicas)} "
          f"({router.num_ready} ready)")

    # -- 3. mixed SLO load across a rolling hot-swap ------------------------
    report = {}

    def swap() -> None:
        time.sleep(0.1)                 # let traffic build first
        report["reload"] = rolling_reload(router, ckpts["new"])

    swapper = threading.Thread(target=swap)
    swapper.start()
    run = closed_loop(
        lambda x, slo: router.submit(x, slo).future,
        ds.x_val, 300, window=8,
        classes=assign_classes(300, {"interactive": 0.7, "batch": 0.3}),
    )
    swapper.join()

    for name in sorted(set(run.classes)):
        row = run.row("fleet", only_class=name)
        print(f"  {name:>12s}: {row['requests']:4d} requests, "
              f"p50 {row['p50_ms']:6.2f} ms, p99 {row['p99_ms']:6.2f} ms")

    rep = report["reload"]
    print(f"rolling reload: {rep.replicas_swapped} replicas swapped to "
          f"{rep.fingerprint[:12]}..., min ready observed "
          f"{rep.min_ready_observed} (never 0 = zero downtime)")

    # -- 4. the HTTP front door ---------------------------------------------
    host, port = router.serve_http()
    body = json.dumps(
        {"x": ds.x_val[0].tolist(), "class": "interactive"}
    ).encode()
    req = urllib.request.Request(
        f"http://{host}:{port}/infer", data=body,
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(req, timeout=10) as resp:
        payload = json.loads(resp.read())
    print(f"HTTP /infer (interactive) -> {len(payload['logits'])} logits "
          f"via {payload['replica']}")
    with urllib.request.urlopen(
        f"http://{host}:{port}/readyz", timeout=10
    ) as resp:
        ready = json.loads(resp.read())
    print(f"HTTP /readyz -> ready={ready['ready']} "
          f"({ready['num_ready']}/{len(router.replicas)} replicas)")

    # -- 5. the accounting proof --------------------------------------------
    deadline = time.monotonic() + 10.0
    while router.outstanding and time.monotonic() < deadline:
        time.sleep(1e-3)
    snap = router.snapshot()
    assert snap["duplicates"] == 0 and snap["failed"] == 0
    assert snap["submitted"] == snap["resolved"]
    fps = {r["fingerprint"] for r in snap["replicas"].values()}
    print(f"accounting: submitted={snap['submitted']} "
          f"resolved={snap['resolved']} duplicates=0 failed=0; "
          f"{len(fps)} distinct fingerprint across the fleet")
print("fleet drained and stopped cleanly")
