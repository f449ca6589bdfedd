"""Mixed precision end to end: train float32/bf16, serve int8.

Walks the :mod:`repro.precision` subsystem through one small workload:

1. a **float64 reference** run (the hex-exact mode — byte-for-byte the
   engine's behavior before precision existed);
2. the same run in **float32** on the process runtime — float32 BLAS
   kernels, every shared-memory ring slot half the bytes, loss curve
   inside the policy tolerance, the control plane (one reply per
   worker) printed from the run record's ``control``;
3. the same run in **bf16** (bf16-storage/fp32-compute emulation) with
   a :class:`~repro.precision.LossScaler` on a standalone ``SGDM`` to
   show the bit-neutral overflow skip;
4. the trained weights checkpointed and served back **int8-quantized**
   via ``InferenceSession.from_checkpoint(precision="int8")``, logits
   compared against the float64 serving session.

Run with::

    PYTHONPATH=src python examples/mixed_precision.py
"""

import os
import tempfile
from functools import partial

import numpy as np

from repro.models.simple import small_cnn
from repro.nn import Parameter
from repro.optim import SGDM
from repro.pipeline import PipelineExecutor, make_pipeline_engine
from repro.pipeline.checkpoint import capture_checkpoint, save_checkpoint
from repro.precision import LossScaler, resolve_precision
from repro.serve import InferenceSession

factory = partial(small_cnn, num_classes=4, widths=(4, 8), seed=2024)
rng = np.random.default_rng(99)
X = rng.normal(size=(32, 3, 8, 8))
Y = rng.integers(0, 4, size=32)
common = dict(lr=0.05, momentum=0.9, mode="gpipe", update_size=8,
              micro_batch_size=8)

# -- 1. float64 reference ----------------------------------------------------

ref_engine = PipelineExecutor(factory(), precision="float64", **common)
ref = ref_engine.train(X, Y)
print(f"float64 sim:      mean loss {ref.mean_loss:.6f} (reference)")

# -- 2. float32 on the process runtime ---------------------------------------

engine32 = make_pipeline_engine(
    "process", factory(), lockstep=True, precision="float32",
    model_factory=factory, **common,
)
got = engine32.train(X, Y)
policy = resolve_precision("float32")
dev = np.max(np.abs(np.asarray(got.losses) - np.asarray(ref.losses)))
assert np.allclose(got.losses, ref.losses,
                   rtol=policy.loss_rtol, atol=policy.loss_atol)
control = got.control
print(f"float32 process:  mean loss {got.mean_loss:.6f} "
      f"(max dev {dev:.2e}, tolerance rtol={policy.loss_rtol})")
print(f"  control plane:  {control['msgs_received']} replies, one per "
      f"worker, and nothing sent ({control['protocol']}: "
      f"{control['acks_received']} acks)")
for p in engine32.model.parameters():
    assert p.data.dtype == np.float32

# -- 3. bf16 + dynamic loss scaling ------------------------------------------

bf16 = PipelineExecutor(factory(), precision="bf16", **common).train(X, Y)
policy = resolve_precision("bf16")
assert np.allclose(bf16.losses, ref.losses,
                   rtol=policy.loss_rtol, atol=policy.loss_atol)
print(f"bf16 sim:         mean loss {bf16.mean_loss:.6f} "
      f"(tolerance rtol={policy.loss_rtol})")

scaler = LossScaler(init_scale=2.0**10)
params = [Parameter(rng.normal(size=(8, 4)).astype(np.float32))]
opt = SGDM(params, lr=0.05, momentum=0.9, precision="float32",
           loss_scaler=scaler)
before = params[0].data.tobytes()
params[0].grad = np.full_like(params[0].data, np.inf)  # simulated overflow
opt.step()
assert params[0].data.tobytes() == before  # bit-neutral skip
print(f"loss scaler:      overflow skipped bit-neutrally, scale "
      f"{2.0**10:.0f} -> {scaler.scale:.0f}")

# -- 4. serve the trained weights int8-quantized -----------------------------

with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "train.ckpt")
    save_checkpoint(path, capture_checkpoint(ref_engine))
    serve_kw = dict(runtime="sim", micro_batch=8, sample_shape=(3, 8, 8))
    s64 = InferenceSession.from_checkpoint(path, factory, **serve_kw)
    s8 = InferenceSession.from_checkpoint(path, factory, precision="int8",
                                          **serve_kw)
    Xq = rng.normal(size=(8, 3, 8, 8))
    out64 = np.asarray(s64.infer(Xq).outputs, dtype=np.float64)
    out8 = np.asarray(s8.infer(Xq).outputs, dtype=np.float64)
    agree = np.mean(np.argmax(out64, axis=1) == np.argmax(out8, axis=1))
    print(f"int8 serving:     {s8.describe()}")
    print(f"  logits max |dev| {np.max(np.abs(out8 - out64)):.4f} vs "
          f"float64 serving; argmax agreement {agree:.0%}")
