"""Pipelined inference serving: train, checkpoint, serve, measure.

Demonstrates the :mod:`repro.serve` subsystem end to end:

1. train a small multi-stage CNN a little and checkpoint it (the PR-4
   durable format);
2. build an :class:`~repro.serve.InferenceSession` **from the
   checkpoint file** — optimizer state stripped, weights frozen onto
   eval-mode pipeline stages — and verify its serving outputs are
   bit-exact with the offline batched forward over the same packets;
3. stand up a :class:`~repro.serve.PipelineServer` (dynamic
   micro-batching: max-batch cap x coalescing deadline, bounded
   admission queue with explicit ``Overloaded`` backpressure) and
   drive it with the one-thread closed-loop load generator (8 requests
   in flight), against the sequential single-request baseline;
4. hit the stdlib HTTP endpoint the way an external client would.

Run with::

    PYTHONPATH=src python examples/serving_demo.py
"""

import json
import os
import tempfile
import urllib.request
from functools import partial

import numpy as np

from repro.data.synthetic import SyntheticCifar
from repro.models.simple import small_cnn
from repro.pipeline import capture_checkpoint, save_checkpoint
from repro.pipeline.runtime import make_pipeline_engine
from repro.serve import (
    InferenceSession,
    PipelineServer,
    SequentialServer,
    closed_loop,
)

model_factory = partial(small_cnn, num_classes=10, widths=(8, 16), seed=11)

# -- 1. train + checkpoint ---------------------------------------------------
ds = SyntheticCifar(seed=0, image_size=8, train_size=128, val_size=64)
model = model_factory()
engine = make_pipeline_engine("sim", model, lr=0.02, momentum=0.9, mode="pb")
engine.train(ds.x_train[:96], ds.y_train[:96])

tmp = tempfile.mkdtemp(prefix="serving-demo-")
ckpt_path = os.path.join(tmp, "model.ckpt")
save_checkpoint(ckpt_path, capture_checkpoint(engine))
print(f"trained 96 PB samples, checkpointed to {ckpt_path}")

# -- 2. session from the checkpoint + the parity contract --------------------
session = InferenceSession.from_checkpoint(
    ckpt_path, model_factory,
    runtime="threaded",        # or "sim" / "process"
    micro_batch=8,
    sample_shape=ds.x_val.shape[1:],
)
print(session.describe())

ref = session.forward_reference(ds.x_val, micro_batch=8)
out = session.infer(ds.x_val).outputs
assert (out == ref).all(), "serving must be bit-exact with offline forward"
print(f"parity: {out.shape[0]} serving outputs bit-exact with the "
      "offline batched forward (same packets)")

# -- 3. closed-loop load: sequential baseline vs pipelined server ------------
NUM_REQUESTS, WINDOW = 300, 8

seq = SequentialServer(model)
seq_run = closed_loop(seq.submit, ds.x_val, NUM_REQUESTS, WINDOW)
seq.close()

server = PipelineServer(session, max_batch=8, max_wait=0.002, max_queue=64)
with server:
    pipe_run = closed_loop(server.submit, ds.x_val, NUM_REQUESTS, WINDOW)
    snap = server.stats.snapshot()

    rows = [seq_run.row("sequential"), pipe_run.row("pipelined")]
    for row in rows:
        print(f"  {row['label']:>10s}: {row['throughput_rps']:8.1f} rps, "
              f"p50 {row['p50_ms']:6.2f} ms, p99 {row['p99_ms']:6.2f} ms")
    seq_rps, pipe_rps = (row["throughput_rps"] for row in rows)
    print(f"  speedup {pipe_rps / seq_rps:.2f}x"
          f" | mean batch {snap['mean_batch_size']:.1f}"
          f" | queue-wait p95 {snap['queue_wait_s']['p95'] * 1e3:.2f} ms")

    # -- 4. the HTTP front door ---------------------------------------------
    host, port = server.serve_http()
    body = json.dumps({"x": ds.x_val[0].tolist()}).encode()
    req = urllib.request.Request(
        f"http://{host}:{port}/infer", data=body,
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(req, timeout=10) as resp:
        payload = json.loads(resp.read())
    print(f"HTTP /infer -> {len(payload['logits'])} logits in "
          f"{payload['latency_ms']:.2f} ms")
    with urllib.request.urlopen(
        f"http://{host}:{port}/stats", timeout=10
    ) as resp:
        stats = json.loads(resp.read())
    print(f"HTTP /stats -> completed={stats['completed']} "
          f"rejected={stats['rejected']} "
          f"p99={stats['latency_s']['p99'] * 1e3:.2f} ms "
          f"lanes={stats['lanes']}")
print("server drained and stopped cleanly")
# one whole-model lane per usable CPU: each lane's CPU and the packets
# dispatched to it
print(session.describe())
