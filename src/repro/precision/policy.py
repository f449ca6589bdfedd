"""Precision policies: float64 reference, float32, simulated bf16, int8.

The reproduction's numerics are float64 end to end so that the
simulator / threaded / process engines can promise *hex-exact* parity
(the analysis-grade contract pinned in ``tests/test_runtime_parity.py``).
That contract is also why mixed precision has to be a *policy* rather
than a global switch: the float64 path must stay byte-for-byte untouched
while the reduced-precision paths opt in explicitly, layer by layer.

A :class:`PrecisionPolicy` names one of four modes:

``float64``
    The reference mode.  No casting anywhere; engines behave exactly as
    before this module existed (hex-exact across runtimes in lockstep).
``float32``
    Parameters, buffers, activations and ring slots are float32 —
    every shared-memory slot is literally half the bytes, and NumPy's
    GEMMs run the float32 BLAS kernels.  Parity with float64 is a
    *tolerance* contract (see :attr:`PrecisionPolicy.loss_rtol`).
``bf16``
    Simulated bfloat16: values are stored on the bf16 grid (float32
    arrays whose low 16 mantissa bits are zero — see
    :func:`simulate_bf16`) while compute runs in float32.  This is the
    classic "bf16 storage, fp32 accumulate" mixed precision without
    needing hardware bf16: weights are re-truncated after every
    optimizer update and inputs are truncated at injection.
``int8``
    Serving-only: weights are quantized per-tensor to symmetric int8
    (scale = max|w| / 127) and dequantized once at load, so the forward
    path runs float32 GEMMs over int8-grid weights.  Training in this
    mode is rejected (:attr:`PrecisionPolicy.trainable` is ``False``).

The dtype-aware ring layouts fall out of the cast: the process runtime
probes boundary shapes with a dummy forward whose dtype follows the
parameters and the injected batch, so casting the model once makes
:func:`repro.pipeline.transport.probe_boundary_layouts` emit float32
``ArraySpec``s and every ring slot shrinks accordingly.
"""

from __future__ import annotations

from typing import Any

import numpy as np

__all__ = [
    "PRECISION_MODES",
    "PrecisionPolicy",
    "simulate_bf16",
    "quantize_int8",
    "resolve_precision",
]

#: The recognised precision mode names, reference mode first.
PRECISION_MODES = ("float64", "float32", "bf16", "int8")


def simulate_bf16(arr: np.ndarray) -> np.ndarray:
    """Round-trip an array through the bfloat16 grid (returns float32).

    bfloat16 is float32 with the low 16 mantissa bits dropped.  The
    round trip is simulated with round-to-nearest-even on the raw bit
    pattern — the same rounding a hardware ``float32 -> bf16`` cast
    performs — so the result is a float32 array whose values all lie
    exactly on the bf16 grid.

    Properties the property tests pin down:

    * **idempotent** — a value already on the grid has zero low bits,
      the rounding addend cannot carry, and the value is unchanged;
    * **monotone** — positive float bit patterns are ordered like their
      integer views and round-to-nearest-even is order-preserving, so
      ``a <= b`` implies ``bf16(a) <= bf16(b)``;
    * NaN stays NaN, infinities stay infinite, and values within half a
      grid step of float32's max round to ``inf`` exactly as a real
      bf16 cast would.
    """
    x = np.asarray(arr, dtype=np.float32)
    bits = x.view(np.uint32)
    nan_mask = np.isnan(x)
    # round-to-nearest-even: add 0x7FFF plus the LSB of the kept part,
    # then truncate.  uint32 arithmetic wraps are impossible here for
    # finite inputs (max finite + 0x8000 < 2**32).
    rounded = (bits + 0x7FFF + ((bits >> 16) & 1)) & np.uint32(0xFFFF0000)
    out = rounded.view(np.float32).copy()
    # NaN payloads can collapse to inf under the addend; restore them.
    if nan_mask.any():
        out[nan_mask] = np.float32(np.nan)
    return out.reshape(x.shape)


def quantize_int8(arr: np.ndarray) -> tuple[np.ndarray, float]:
    """Symmetric per-tensor int8 quantization.

    Returns ``(q, scale)`` with ``q`` int8 in ``[-127, 127]`` and
    ``scale = max|arr| / 127`` (``1.0`` for an all-zero tensor), so the
    dequantized tensor is ``q.astype(float32) * scale``.
    """
    a = np.asarray(arr, dtype=np.float64)
    amax = float(np.max(np.abs(a))) if a.size else 0.0
    scale = amax / 127.0 if amax > 0.0 else 1.0
    q = np.clip(np.round(a / scale), -127, 127).astype(np.int8)
    return q, scale


class PrecisionPolicy:
    """One precision mode plus the knobs the engines read off it.

    Instances are cheap, picklable value objects; everything the
    runtimes and the optimizer need is a method or attribute here so a
    mode name round-trips through :class:`~repro.pipeline.stage.
    StageBuildSpec` to spawn-rebuilt workers unchanged.
    """

    def __init__(self, mode: str = "float64"):
        if mode not in PRECISION_MODES:
            raise ValueError(
                f"precision mode must be one of {PRECISION_MODES}, "
                f"got {mode!r}"
            )
        self.mode = mode

    # -- derived properties -------------------------------------------------

    @property
    def compute_dtype(self) -> np.dtype:
        """The dtype parameters, activations and ring slots carry."""
        return np.dtype(np.float64 if self.mode == "float64" else np.float32)

    @property
    def is_reference(self) -> bool:
        """True for the float64 mode whose engines must stay hex-exact."""
        return self.mode == "float64"

    @property
    def master_weights(self) -> bool:
        """Whether the optimizer should keep float64 master copies."""
        return self.mode in ("float32", "bf16")

    @property
    def trainable(self) -> bool:
        """int8 is a serving-only (forward) mode."""
        return self.mode != "int8"

    @property
    def loss_rtol(self) -> float:
        """Relative loss-curve tolerance vs the float64 reference (the
        parity contract the reduced modes are tested against)."""
        return {"float64": 0.0, "float32": 2e-3, "bf16": 8e-2}.get(
            self.mode, float("nan")
        )

    @property
    def loss_atol(self) -> float:
        """Absolute counterpart of :attr:`loss_rtol`."""
        return {"float64": 0.0, "float32": 2e-4, "bf16": 2e-2}.get(
            self.mode, float("nan")
        )

    # -- casting ------------------------------------------------------------

    def quantize(self, arr: np.ndarray) -> np.ndarray:
        """Project an array onto this mode's storage grid.

        float64 returns the input untouched; float32 casts; bf16 casts
        and truncates to the bf16 grid.  int8 quantizes-and-dequantizes
        (the stored array is float32 on the int8 grid — compute stays a
        float32 GEMM, exactly the "simulated quantized forward" the
        serving path uses).
        """
        if self.mode == "float64":
            return np.asarray(arr)
        if self.mode == "float32":
            return np.asarray(arr, dtype=np.float32)
        if self.mode == "bf16":
            return simulate_bf16(arr)
        q, scale = quantize_int8(arr)
        return (q.astype(np.float32) * np.float32(scale)).astype(np.float32)

    def cast_array(self, x: np.ndarray) -> np.ndarray:
        """Cast an input batch for injection (activations grid).

        int8 quantizes weights only — activations flow in float32, so
        int8 casts inputs like float32 does.
        """
        if self.mode == "float64":
            return np.asarray(x)
        if self.mode == "bf16":
            return simulate_bf16(x)
        return np.asarray(x, dtype=np.float32)

    def cast_model(self, model: Any) -> Any:
        """Cast a model's parameters and buffers in place, once.

        Parameters land on the mode's storage grid (float32 / bf16 grid
        / dequantized int8 grid); floating-point buffers (BatchNorm
        running stats) are cast to the compute dtype, integer buffers
        (sample counters) are left alone.  Returns the model.

        Note a manually cast model is **not** self-describing: bf16-grid
        and int8-grid arrays have float32 dtype, so downstream
        consumers (``PipelineStage``, the engines) cannot recover the
        mode from the weights — always pass the same ``precision=`` to
        them explicitly, or bf16 models silently lose re-truncation
        after updates.
        """
        if self.mode == "float64":
            return model
        for p in model.parameters():
            p.data = self.quantize(p.data)
            p.grad = None
        for module in model.modules():
            for name, buf in list(module._buffers.items()):
                if np.issubdtype(buf.dtype, np.floating):
                    module.set_buffer(name, buf.astype(self.compute_dtype))
        return model

    # -- plumbing -----------------------------------------------------------

    def __repr__(self) -> str:
        return f"PrecisionPolicy({self.mode!r})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, PrecisionPolicy) and other.mode == self.mode
        )

    def __hash__(self) -> int:
        return hash(("PrecisionPolicy", self.mode))

    def __reduce__(self):
        return (PrecisionPolicy, (self.mode,))


def resolve_precision(
    precision: "PrecisionPolicy | str | None",
) -> PrecisionPolicy:
    """Normalize a user-facing ``precision=`` argument to a policy.

    ``None`` means the float64 reference mode (the engines' historical
    behaviour, kept hex-exact).
    """
    if precision is None:
        return PrecisionPolicy("float64")
    if isinstance(precision, PrecisionPolicy):
        return precision
    if isinstance(precision, str):
        return PrecisionPolicy(precision)
    raise TypeError(
        f"precision must be a mode name, PrecisionPolicy or None, "
        f"got {type(precision).__name__}"
    )
