"""Eq. 12, once: the momentum-SGD update kernel and the plain optimizer.

    v_{t+1} = m * v_t + g_t
    w_{t+1} = w_t - lr * (a * v_{t+1} + b * g_t)          (eq. 12)

:func:`sgdm_update` is the only place in the repository that advances a
velocity or moves a weight.  Plain SGDM (``a=1, b=0``, eqs. 7-8),
Nesterov (``a=m, b=1``, §3.5) and Spike Compensation (eq. 14) are
coefficient choices, and the three optimizers built on the kernel differ
only in where the gradient's delay comes from: :class:`SGDM` has none,
:class:`~repro.core.delayed_sgd.DelayedSGDM` replays a history buffer,
:class:`~repro.pipeline.stage.PipelineStage` gets it from the pipeline.
No dampening; L2 weight decay is folded into the gradient, matching the
reference He et al. setup.

Mixed precision (``precision=`` + optional ``loss_scaler=``): with a
reduced-precision policy the optimizer keeps **float64 master copies**
of every parameter — the update runs in float64 against the masters and
the result is projected back onto the storage grid (float32 / bf16) the
parameters live on, so many small gradients don't vanish into float32
rounding.  A :class:`~repro.precision.scaler.LossScaler` adds dynamic
loss scaling: the caller scales the loss before backprop, ``step``
unscales the gradients, and a non-finite gradient **skips the step
entirely** — weights and velocity stay byte-identical for a skipped
update (pinned by a property test) while the scale backs off.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.nn.module import Parameter
from repro.precision.policy import PrecisionPolicy, resolve_precision
from repro.precision.scaler import LossScaler


def _check_lr_momentum(lr: float, momentum: float) -> None:
    """The hyperparameter domain every optimizer on the kernel shares."""
    if lr <= 0:
        raise ValueError(f"learning rate must be positive, got {lr}")
    if not 0.0 <= momentum < 1.0:
        raise ValueError(f"momentum must be in [0, 1), got {momentum}")


def sgdm_update(
    w: np.ndarray,
    v: np.ndarray,
    g: np.ndarray,
    lr: float,
    momentum: float,
    weight_decay: float = 0.0,
    a: float = 1.0,
    b: float = 0.0,
    grad_scale: float = 1.0,
    shrink: float = 1.0,
    scratch: tuple[np.ndarray, np.ndarray] | None = None,
) -> None:
    """Eq. 12 on one parameter, in place on ``w`` and ``v``.

    The effective gradient is ``(g * grad_scale + weight_decay * w) *
    shrink`` (loss-scale inverse or ``1/count`` of a flushed sum, the L2
    fold, gradient shrinking); then ``v = momentum * v + g`` and
    ``w -= lr * (a * v + b * g)``.  ``g`` is never written.  The
    operations and their order are the textbook out-of-place ones —
    multiplications by exactly 1 and additions of exactly 0 are skipped,
    which changes no bit — so trajectories are bit-identical to the naive
    form (pinned over the whole coefficient grid in
    ``tests/test_optim.py``).

    ``scratch`` is an optional pair of buffers shaped and typed like
    ``w`` for the intermediates (effective gradient, update); a caller
    that keeps one per parameter makes the steady-state update allocate
    nothing, without it only the intermediates this call needs are
    allocated.
    """
    g_buf, u = scratch if scratch is not None else (None, None)
    g = g.astype(w.dtype, copy=False)
    if grad_scale != 1.0:
        g = g_buf = np.multiply(g, grad_scale, out=g_buf)
    if weight_decay:
        u = np.multiply(w, weight_decay, out=u)
        g = g_buf = np.add(g, u, out=g_buf)
    if shrink != 1.0:
        g = g_buf = np.multiply(g, shrink, out=g_buf)
    np.multiply(v, momentum, out=v)
    np.add(v, g, out=v)
    update = v
    if a != 1.0:
        update = u = np.multiply(v, a, out=u)
    if b != 0.0:
        g_buf = np.multiply(g, b, out=g_buf)
        update = u = np.add(update, g_buf, out=u)
    u = np.multiply(update, lr, out=u)
    np.subtract(w, u, out=w)


class SGDM:
    """Momentum SGD over a list of parameters."""

    def __init__(
        self,
        params: Iterable[Parameter],
        lr: float,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
        nesterov: bool = False,
        precision: "PrecisionPolicy | str | None" = None,
        loss_scaler: LossScaler | None = None,
    ):
        self.params = list(params)
        if not self.params:
            raise ValueError("optimizer received no parameters")
        _check_lr_momentum(lr, momentum)
        self.lr = float(lr)
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)
        self.nesterov = bool(nesterov)
        self.precision = resolve_precision(precision)
        if not self.precision.trainable:
            raise ValueError(
                f"precision mode {self.precision.mode!r} is serving-only "
                "and cannot drive an optimizer"
            )
        self.loss_scaler = loss_scaler
        #: float64 master copies, present only for reduced-precision
        #: modes; velocity lives in the master dtype alongside them
        self._master: dict[int, np.ndarray] | None = None
        if self.precision.master_weights:
            self._master = {
                id(p): p.data.astype(np.float64, copy=True)
                for p in self.params
            }
        master_src = self._master
        self._velocity: dict[int, np.ndarray] = {
            id(p): np.zeros_like(
                master_src[id(p)] if master_src is not None else p.data
            )
            for p in self.params
        }
        #: per-parameter scratch pair for :func:`sgdm_update`, so ``step``
        #: allocates nothing on the hot path
        self._scratch = {
            pid: (np.empty_like(v), np.empty_like(v))
            for pid, v in self._velocity.items()
        }

    def velocity(self, p: Parameter) -> np.ndarray:
        """The current velocity buffer for parameter ``p``."""
        return self._velocity[id(p)]

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> None:
        """Apply one update using accumulated ``.grad`` fields.

        One :func:`sgdm_update` per parameter, in place on the weights
        (or their float64 masters) and the velocity, through the
        optimizer's own scratch buffers — the steady-state step
        allocates nothing.

        With a :class:`~repro.precision.scaler.LossScaler` the gradient
        finiteness check runs **before** anything is mutated, so an
        overflow step leaves weights and velocity bit-unchanged.
        """
        scaler = self.loss_scaler
        inv_scale = 1.0
        if scaler is not None:
            if scaler.found_overflow(p.grad for p in self.params):
                scaler.update(True)
                self.zero_grad()
                return
            # the grads in hand were produced under the *current* scale;
            # capture its inverse before update(False) can grow it on a
            # growth tick, else that step's update is divided by
            # growth_factor too much
            inv_scale = 1.0 / scaler.scale if scaler.scale != 0 else 1.0
            scaler.update(False)
        m = self.momentum
        a, b = (m, 1.0) if self.nesterov else (1.0, 0.0)
        masters = self._master
        for p in self.params:
            if p.grad is None:
                continue
            pid = id(p)
            w = p.data if masters is None else masters[pid]
            sgdm_update(
                w, self._velocity[pid], p.grad, self.lr, m,
                self.weight_decay, a, b, grad_scale=inv_scale,
                scratch=self._scratch[pid],
            )
            if masters is not None:
                # project the float64 master back onto the storage grid
                p.data = self.precision.quantize(w)

    def state_dict(self) -> dict:
        state = {
            "lr": self.lr,
            "momentum": self.momentum,
            "weight_decay": self.weight_decay,
            "nesterov": self.nesterov,
            "precision": self.precision.mode,
            "velocity": [self._velocity[id(p)].copy() for p in self.params],
        }
        if self._master is not None:
            state["master"] = [
                self._master[id(p)].copy() for p in self.params
            ]
        if self.loss_scaler is not None:
            state["loss_scaler"] = self.loss_scaler.state_dict()
        return state

    def load_state_dict(self, state: dict) -> None:
        velocity = state["velocity"]
        if len(velocity) != len(self.params):
            raise ValueError(
                f"state dict has {len(velocity)} velocity buffers but the "
                f"optimizer binds {len(self.params)} parameters"
            )
        saved_mode = state.get("precision", "float64")
        if saved_mode != self.precision.mode:
            raise ValueError(
                f"state dict was saved in precision mode {saved_mode!r} "
                f"but this optimizer runs in {self.precision.mode!r} — "
                "rebuild the optimizer with the matching precision"
            )
        expected = (
            np.dtype(np.float64)
            if self._master is not None
            else self.params[0].data.dtype
        )
        for i, (p, v) in enumerate(zip(self.params, velocity)):
            if tuple(v.shape) != tuple(p.data.shape):
                raise ValueError(
                    f"velocity[{i}] has shape {tuple(v.shape)} but "
                    f"parameter {i} expects {tuple(p.data.shape)} — "
                    "state dict does not match the bound parameters"
                )
            want = expected if self._master is not None else p.data.dtype
            if v.dtype != want:
                raise ValueError(
                    f"velocity[{i}] has dtype {v.dtype} but the optimizer "
                    f"runs in precision mode {self.precision.mode!r} "
                    f"(expected {np.dtype(want).name}) — refusing the "
                    "silent cast; re-save the state in the matching "
                    "precision"
                )
        masters = state.get("master")
        if (masters is not None) != (self._master is not None):
            raise ValueError(
                "state dict master-weight presence does not match the "
                f"optimizer (precision mode {self.precision.mode!r})"
            )
        if ("loss_scaler" in state) != (self.loss_scaler is not None):
            raise ValueError(
                "state dict loss-scaler presence does not match the "
                "optimizer (saved "
                f"{'with' if 'loss_scaler' in state else 'without'} a "
                "scaler, optimizer constructed "
                f"{'with' if self.loss_scaler is not None else 'without'} "
                "one) — rebuild the optimizer with the matching "
                "loss_scaler configuration"
            )
        self.lr = state["lr"]
        self.momentum = state["momentum"]
        self.weight_decay = state["weight_decay"]
        self.nesterov = state["nesterov"]
        for p, v in zip(self.params, velocity):
            self._velocity[id(p)] = v.copy()
        if masters is not None:
            for p, w in zip(self.params, masters):
                self._master[id(p)] = w.astype(np.float64, copy=True)
                p.data = self.precision.quantize(self._master[id(p)])
        if self.loss_scaler is not None:
            self.loss_scaler.load_state_dict(state["loss_scaler"])
