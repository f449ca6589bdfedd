"""A pipeline stage: module segment + per-stage optimizer + stashes.

Each stage owns its parameters' velocity and applies its own updates — in
pipelined backpropagation every stage updates once per time step as soon
as its gradient arrives (update size one), with its *own* delay
``D_s = 2(S-1-s)`` driving the mitigation:

* **forward**: if weight prediction is on, parameters are loaded with
  the predicted weights
  (:meth:`~repro.core.prediction.PredictionConfig.predict`, horizon from
  ``D_s``) before the sample's graph is built, then restored.  The graph
  captures activations by value but reads weights lazily, so a later
  backward sees the weights *current at backward time* — the genuine PB
  inconsistency.
* **backward**: with weight stashing the stashed forward weights are
  reloaded around the backward pass; with SpecTrain the weights are
  re-predicted with the vertical-sync horizon (= stage index); otherwise
  the current weights are used as-is.
* **update**: one :func:`~repro.optim.sgd.sgdm_update` per parameter —
  the same eq.-12 kernel :class:`~repro.optim.sgd.SGDM` and
  :class:`~repro.core.delayed_sgd.DelayedSGDM` step through; the stage
  only supplies what the pipeline determines: the spike coefficients and
  gradient shrinking for ``D_s``, and ``1/count`` for a flushed sum.

Payloads travelling between stages are lists of raw arrays
``[main, skip_0, ..)``; gradients travel backwards with the mirrored
layout.  Arrays carry a leading batch dimension: per-sample schedules
send ``(1, ...)`` payloads, micro-batched schedules (GPipe) send
``(B, ...)`` packets that each op processes in one vectorized call.

Weight stashing engages through either of two doors: the *mitigation*
(``MitigationConfig.stashing()``, an ablation on top of PB) or the
*schedule* (:attr:`always_stash`, set by the executor for schedules whose
semantics require it — PipeDream's 1F1B).  Both stash the forward weights
and reload them around the backward pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Callable

import numpy as np

from repro.core.mitigation import MitigationConfig
from repro.models.arch import StageDef
from repro.optim.sgd import sgdm_update
from repro.pipeline.delays import stage_delay
from repro.precision.policy import (
    PrecisionPolicy,
    resolve_precision,
    simulate_bf16,
)
from repro.tensor.tensor import Tensor, backward_multi


#: The array-valued keys of :meth:`PipelineStage.state_dict`, declared
#: once: every boundary stage state crosses iterates these.
STATE_ARRAYS = ("params", "velocity", "prev_weights", "buffers")
#: The weights-only view: what serving loads and the fingerprints hash.
WEIGHT_ARRAYS = ("params", "buffers")


@dataclass
class _StashEntry:
    """Graph roots and metadata kept between a sample's F and B."""

    roots: dict[str, Tensor] = field(default_factory=dict)
    stashed_weights: list[np.ndarray] | None = None
    version_at_forward: int = 0


class PipelineStage:
    """One stage of the pipeline executor (see module docstring)."""

    def __init__(
        self,
        index: int,
        spec: StageDef,
        num_stages: int,
        lr: float,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
        mitigation: MitigationConfig | None = None,
        precision: "PrecisionPolicy | str | None" = None,
    ):
        self.index = index
        self.spec = spec
        self.num_stages = num_stages
        self.delay = stage_delay(index, num_stages)
        self.lr = float(lr)
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)
        self.mitigation = mitigation or MitigationConfig.none()
        self.params = list(spec.module.parameters()) if spec.module else []
        if precision is None and self.params:
            # infer the mode from the (possibly pre-cast) parameters so
            # error messages and re-quantization stay correct even when
            # the caller cast the model manually.  Only float32 is
            # inferable from dtype alone: bf16-grid and int8-grid arrays
            # *are* float32 arrays, so a manually bf16/int8-cast model
            # must pass precision= explicitly or it gets float32
            # semantics (no bf16 re-truncation after updates).
            inferred = str(self.params[0].data.dtype)
            precision = inferred if inferred in ("float32",) else None
        self.precision = resolve_precision(precision)
        #: update steps dropped because a gradient went non-finite
        #: (reduced-precision modes only; float64 never checks)
        self.overflow_skips = 0
        self._velocity = {id(p): np.zeros_like(p.data) for p in self.params}
        self._prev_weights = {id(p): p.data.copy() for p in self.params}
        self.updates_applied = 0
        self._pending_grads = 0
        self.stash: dict[int, _StashEntry] = {}
        # schedule-driven weight stashing (1F1B), independent of mitigation
        self.always_stash = False
        # observed (forward version, backward version) pairs for validation
        self.version_trace: list[tuple[int, int, int]] = []
        self.record_versions = False
        # replicated synchronous mode: keep each packet's gradient as a
        # separate segment (stream order) instead of folding into p.grad,
        # so the cross-replica reduction can reproduce the exact left-fold
        # accumulation order of a single pipeline (see runtime.py)
        self.collect_grad_segments = False
        self._grad_segments: list[list[np.ndarray]] = []

    # -- weight loading helpers -------------------------------------------

    def _predict(self, horizon: float) -> list[np.ndarray] | None:
        """Every parameter predicted ``horizon`` updates ahead (eq. 18/19),
        or ``None`` when there is nothing to predict."""
        if not horizon:
            return None
        pred = self.mitigation.prediction
        return [
            pred.predict(
                p.data, self._velocity[id(p)], self._prev_weights[id(p)],
                self.lr, horizon,
            )
            for p in self.params
        ]

    def _backward_weights(
        self, entry: _StashEntry
    ) -> list[np.ndarray] | None:
        """Weights to load around the backward pass, or ``None`` to keep
        the current (master) weights — the default PB inconsistency."""
        if not self.params:
            return None
        if self.mitigation.weight_stashing or self.always_stash:
            return entry.stashed_weights
        # SpecTrain re-predicts to the vertical-sync step; zero otherwise
        return self._predict(
            self.mitigation.prediction.backward_horizon(
                offset=float(self.index)
            )
        )

    # -- forward --------------------------------------------------------------

    def forward(
        self, sample_id: int, payload: list[np.ndarray], train: bool = True
    ) -> list[np.ndarray]:
        """Process one sample's forward transformation for this stage.

        Stage 0's input is data, not an activation, so it never requires
        a gradient: its layers skip the input-gradient half of their
        backward (no upstream stage would read it)."""
        spec = self.spec
        if spec.kind in ("identity", "loss"):
            return payload
        if spec.kind == "sum":
            main = payload[0] + payload[-1]
            return [main] + payload[1:-1]

        # compute stage: optionally load predicted weights for the forward
        predicted = None
        if train:
            predicted = self._predict(
                self.mitigation.prediction.forward_horizon(
                    self.delay, offset=float(self.index)
                )
            )
        masters = [p.data for p in self.params]
        if predicted is not None:
            for p, w_hat in zip(self.params, predicted):
                p.data = w_hat
        wants_gx = train and self.index > 0
        try:
            entry = _StashEntry(version_at_forward=self.updates_applied)
            if train and (self.mitigation.weight_stashing or self.always_stash):
                entry.stashed_weights = [p.data.copy() for p in self.params]
            if spec.channel == -1:
                x = Tensor(payload[-1], requires_grad=wants_gx)
                y = spec.module(x)
                out = payload[:-1] + [y.data]
                entry.roots = {"x": x, "main": y}
            elif spec.push_skip == "input":
                x = Tensor(payload[0], requires_grad=wants_gx)
                y = spec.module(x)
                out = [y.data] + payload[1:] + [payload[0]]
                entry.roots = {"x": x, "main": y}
            elif spec.push_skip == "preact":
                x = Tensor(payload[0], requires_grad=wants_gx)
                y, preact = spec.module.forward_parts(x)
                out = [y.data] + payload[1:] + [preact.data]
                entry.roots = {"x": x, "main": y, "skip": preact}
            else:
                x = Tensor(payload[0], requires_grad=wants_gx)
                y = spec.module(x)
                out = [y.data] + payload[1:]
                entry.roots = {"x": x, "main": y}
            if train:
                self.stash[sample_id] = entry
        finally:
            if predicted is not None:
                for p, w in zip(self.params, masters):
                    p.data = w
        return out

    # -- backward -------------------------------------------------------------

    def backward(
        self, sample_id: int, grads: list[np.ndarray]
    ) -> list[np.ndarray]:
        """Process one sample's backward transformation; returns upstream
        gradients mirroring this stage's forward *input* payload.  At
        stage 0 that input is data, so its gradient is ``None``."""
        spec = self.spec
        if spec.kind in ("identity", "loss"):
            return grads
        if spec.kind == "sum":
            g_main = grads[0]
            return [g_main] + grads[1:] + [g_main.copy()]

        entry = self.stash.pop(sample_id)
        masters = [p.data for p in self.params]
        loaded = self._backward_weights(entry)
        if loaded is not None:
            for p, w in zip(self.params, loaded):
                p.data = w
        try:
            if spec.channel == -1:
                backward_multi([(entry.roots["main"], grads[-1])])
                upstream = grads[:-1] + [entry.roots["x"].grad]
            elif spec.push_skip == "input":
                backward_multi([(entry.roots["main"], grads[0])])
                x = entry.roots["x"]
                gx = x.grad
                if x.requires_grad:
                    gx = grads[-1] if gx is None else gx + grads[-1]
                upstream = [gx] + grads[1:-1]
            elif spec.push_skip == "preact":
                backward_multi(
                    [
                        (entry.roots["main"], grads[0]),
                        (entry.roots["skip"], grads[-1]),
                    ]
                )
                upstream = [entry.roots["x"].grad] + grads[1:-1]
            else:
                backward_multi([(entry.roots["main"], grads[0])])
                upstream = [entry.roots["x"].grad] + grads[1:]
        finally:
            if loaded is not None:
                for p, w in zip(self.params, masters):
                    p.data = w
        if self.record_versions:
            self.version_trace.append(
                (sample_id, entry.version_at_forward, self.updates_applied)
            )
        if self.collect_grad_segments and self.params:
            # pop this packet's gradient into its own segment; the
            # left-fold over segments is re-run during the reduction.
            # Caveat: a parameter contributing to several grads within
            # one packet's graph still folds *inside* the packet (the
            # autodiff accumulates it), so segments stay per-packet.
            if not self._grad_segments:
                self._grad_segments = [[] for _ in self.params]
            for seg, p in zip(self._grad_segments, self.params):
                if p.grad is not None:
                    seg.append(p.grad)
                    p.grad = None
        self._pending_grads += 1
        return upstream

    # -- updates ----------------------------------------------------------------

    def apply_update(self) -> None:
        """PB update: apply the single accumulated gradient with spike
        compensation (update size one)."""
        self._apply(scale=1.0)

    def flush_update(self, count: int) -> None:
        """Fill-and-drain update: apply the mean of ``count`` accumulated
        gradients with plain SGDM (no mitigation — the pipeline is
        consistent and drained)."""
        if count <= 0:
            raise ValueError("count must be positive")
        self._apply(scale=1.0 / count, plain=True)

    def _apply(self, scale: float, plain: bool = False) -> None:
        m = self.momentum
        if not self.precision.is_reference and self.params:
            # reduced precision overflows where float64 would not; a
            # non-finite gradient skips the whole update (weights and
            # velocity untouched) instead of poisoning the parameters.
            # The skip still counts as an applied update so schedule
            # version bookkeeping and drain logic stay consistent.
            for p in self.params:
                if p.grad is not None and not np.all(np.isfinite(p.grad)):
                    for q in self.params:
                        q.grad = None
                    self.overflow_skips += 1
                    self.updates_applied += 1
                    self._pending_grads = 0
                    return
        if plain:
            a, b, shrink = 1.0, 0.0, 1.0
        else:
            a, b = self.mitigation.spike_coefficients(m, self.delay)
            shrink = self.mitigation.shrink_factor(m, self.delay)
        bf16 = self.precision.mode == "bf16"
        for p in self.params:
            if p.grad is None:
                continue
            pid = id(p)
            np.copyto(self._prev_weights[pid], p.data)
            sgdm_update(
                p.data, self._velocity[pid], p.grad, self.lr, m,
                self.weight_decay, a, b, grad_scale=scale, shrink=shrink,
            )
            if bf16:
                # bf16 stores weights on the bf16 grid: re-truncate after
                # every update (compute stays float32 — classic "bf16
                # storage, fp32 accumulate" mixed precision)
                p.data = simulate_bf16(p.data)
            p.grad = None
        self.updates_applied += 1
        self._pending_grads = 0

    def pop_grad_segments(self) -> list[list[np.ndarray]]:
        """Per-parameter per-packet gradient segments accumulated since
        the last pop (stream order), for the cross-replica reduction."""
        segs = self._grad_segments or [[] for _ in self.params]
        self._grad_segments = []
        return segs

    def set_reduced_grads(self, grads: list[np.ndarray]) -> None:
        """Install reduced gradients as if they had been accumulated
        locally; the caller follows up with :meth:`flush_update`."""
        if len(grads) != len(self.params):
            raise ValueError(
                f"stage {self.index}: {len(grads)} reduced gradients for "
                f"{len(self.params)} parameters"
            )
        for p, g in zip(self.params, grads):
            p.grad = g

    @property
    def in_flight(self) -> int:
        """Number of samples between their F and B at this stage."""
        return len(self.stash)

    def velocity(self, p) -> np.ndarray:
        return self._velocity[id(p)]

    # -- state (the one definition of what a stage is at a drain barrier) --

    def _live(self, key: str) -> list[np.ndarray]:
        """The live arrays behind one :data:`STATE_ARRAYS` key (buffers
        looked up per call: a module rebinds them on update)."""
        if key == "params":
            return [p.data for p in self.params]
        if key == "buffers":
            module = self.spec.module
            return [b for _, b in module.named_buffers()] if module else []
        held = self._velocity if key == "velocity" else self._prev_weights
        return [held[id(p)] for p in self.params]

    def state_dict(self) -> dict:
        """Everything a reconstructed stage needs to continue training.

        Only run-boundary state is captured (weights, velocity, previous
        weights for the weight-difference prediction form, the module's
        buffers in ``named_buffers()`` order — BatchNorm running
        statistics —, update counter, learning rate): between
        :meth:`PipelineExecutor.train` calls the stash is drained and no
        gradient is pending, which is exactly when stage state crosses a
        process, checkpoint, serving or replica boundary — as this dict.
        """
        if self.stash:
            raise RuntimeError(
                f"stage {self.index}: state_dict with {len(self.stash)} "
                "stashed packets in flight — drain the pipeline first"
            )
        state: dict = {
            key: [a.copy() for a in self._live(key)] for key in STATE_ARRAYS
        }
        state["updates_applied"] = int(self.updates_applied)
        state["lr"] = float(self.lr)
        return state

    def validate_state(self, state: dict, keys=STATE_ARRAYS) -> None:
        """Check the ``keys`` arrays of a :meth:`state_dict` payload
        against this stage without touching anything — counts, shapes
        and dtypes.

        Split out of :meth:`load_state_dict` so multi-stage restores
        (:func:`load_stage_states`) can validate *every* stage before
        mutating *any* of them: a bad checkpoint then fails atomically
        instead of leaving the engine half-loaded.

        Dtypes are validated too: a float64 checkpoint loaded into a
        float32 stage (or vice versa) is refused with the expected
        precision mode named, instead of the silent up/down-cast that
        would otherwise corrupt the parity contracts.  A key the payload
        lacks counts as empty: a payload written before buffers were
        captured loads into a buffer-free stage and is refused — never
        reset to initial statistics — by a stage that owns buffers.
        """
        for key in keys:
            arrays = state.get(key, [])
            live = self._live(key)
            if len(arrays) != len(live):
                raise ValueError(
                    f"stage {self.index}: state has {len(arrays)} {key} "
                    f"arrays but the stage binds {len(live)}"
                )
            for i, (mine, arr) in enumerate(zip(live, arrays)):
                if tuple(arr.shape) != tuple(mine.shape):
                    raise ValueError(
                        f"stage {self.index}: {key}[{i}] has shape "
                        f"{tuple(arr.shape)}, the stage expects "
                        f"{tuple(mine.shape)}"
                    )
                if arr.dtype != mine.dtype:
                    raise ValueError(
                        f"stage {self.index}: {key}[{i}] has dtype "
                        f"{arr.dtype} but this stage runs in precision "
                        f"mode {self.precision.mode!r} (expected "
                        f"{mine.dtype}) — refusing the silent cast; "
                        "save/load state in the matching precision mode"
                    )

    def load_state_dict(self, state: dict, keys=STATE_ARRAYS) -> None:
        """Load :meth:`state_dict` output into this stage: everything,
        or only the ``keys`` arrays (:data:`WEIGHT_ARRAYS` for serving,
        which leaves the update counter and learning rate alone too).

        Parameter arrays are rebound (copies), so a model sharing the
        ``Parameter`` objects sees the loaded weights immediately; shapes
        are validated against the bound parameters before anything is
        touched, so a partial load can never leave the stage torn.  Any
        stashed in-flight packets are dropped: loaded state is always a
        drain-barrier snapshot, so whatever was in flight (e.g. when a
        crashed run is being restored) is stale by definition.
        """
        self.validate_state(state, keys)
        for key in keys:
            loaded = zip(self._live(key), state.get(key, []))
            for i, (mine, arr) in enumerate(loaded):
                if key == "params":
                    self.params[i].data = arr.copy()
                else:
                    np.copyto(mine, arr)  # stage- or module-owned: in place
        if tuple(keys) == STATE_ARRAYS:
            self.updates_applied = int(state["updates_applied"])
            self.lr = float(state.get("lr", self.lr))
        self.drop_in_flight()

    def drop_in_flight(self) -> None:
        """Forget every packet between its forward and the update that
        would consume it: the stash, the gradients accumulated toward
        the next update (``p.grad``, replicated grad segments) and their
        count.  What a drain barrier leaves behind; a load and a failed
        ``train()`` both restore it."""
        self._pending_grads = 0
        self._grad_segments = []
        self.stash.clear()
        for p in self.params:
            p.grad = None

    def build_spec(self, model_factory: Callable[[], Any]) -> "StageBuildSpec":
        """The recipe a ``spawn``-started worker rebuilds this stage
        from (pair it with :meth:`state_dict`): every field but the
        factory is this stage's attribute of the same name — precision
        by mode name, so the rebuild lands on the same storage grid."""
        config = {
            f.name: getattr(self, f.name)
            for f in fields(StageBuildSpec)
            if f.name != "model_factory"
        }
        config["precision"] = self.precision.mode
        return StageBuildSpec(model_factory, **config)


def load_stage_states(stages, states, keys=STATE_ARRAYS) -> None:
    """Load one :meth:`PipelineStage.state_dict` payload per stage,
    validating *every* stage before mutating *any*."""
    if len(states) != len(stages):
        raise ValueError(
            f"state has {len(states)} stage payloads for "
            f"{len(stages)} stages"
        )
    for stage, state in zip(stages, states):
        stage.validate_state(state, keys)
    for stage, state in zip(stages, states):
        stage.load_state_dict(state, keys)


@dataclass(frozen=True)
class StageBuildSpec:
    """Picklable recipe for rebuilding one stage in another process.

    ``model_factory`` must be a spawn-safe callable (a module-level
    function or ``functools.partial`` over one) returning a freshly
    initialized :class:`~repro.models.arch.StageGraphModel`; the spec
    slices stage ``index`` out of it and applies the per-stage optimizer
    configuration.  Pair with :meth:`PipelineStage.load_state_dict` to
    ship the *current* weights, since the factory reproduces only the
    initialization.
    """

    model_factory: Callable[[], Any]
    index: int
    lr: float
    momentum: float = 0.0
    weight_decay: float = 0.0
    mitigation: MitigationConfig | None = None
    always_stash: bool = False
    record_versions: bool = False
    #: precision mode name; a spawn-rebuilt worker must cast its fresh
    #: model exactly like the parent did, or the shipped state dict and
    #: ring layouts would mismatch on dtype
    precision: str | None = None

    def build(self) -> PipelineStage:
        model = self.model_factory()
        policy = resolve_precision(self.precision)
        policy.cast_model(model)  # a no-op in the reference mode
        specs = model.stage_defs
        if not 0 <= self.index < len(specs):
            raise ValueError(
                f"stage index {self.index} out of range for a "
                f"{len(specs)}-stage model"
            )
        stage = PipelineStage(
            self.index,
            specs[self.index],
            len(specs),
            lr=self.lr,
            momentum=self.momentum,
            weight_decay=self.weight_decay,
            mitigation=self.mitigation,
            precision=policy,
        )
        stage.always_stash = self.always_stash
        stage.record_versions = self.record_versions
        return stage
