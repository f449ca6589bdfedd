"""The Appendix-G.2 delay simulator: ``DelayedSGDM``.

Trains any model with *stale gradients* without constructing a pipeline:

1. ``load_forward_weights()`` — loads each parameter with the weights from
   ``D`` steps ago (optionally advanced by weight prediction);
2. the caller runs forward and builds the loss;
3. ``prepare_backward()`` — for **inconsistent** runs (real PB semantics
   without weight stashing) reloads the *current* master weights so the
   backward pass uses them (the autodiff engine reads parameter values
   lazily, see :mod:`repro.tensor`); **consistent** runs (= weight
   stashing) keep the stale weights;
4. the caller backprops;
5. ``step()`` — applies the update to the master weights and pushes a
   history snapshot.

The arithmetic is not here: the update is one
:func:`~repro.optim.sgd.sgdm_update` per parameter (eq. 12, with the
spike coefficients and gradient shrinking resolved from each parameter's
delay) and the prediction one
:meth:`~repro.core.prediction.PredictionConfig.predict` (eqs. 18-19).
What this optimizer adds to :class:`~repro.optim.sgd.SGDM` is only the
source of the delay — a history buffer.

Delays come from a :class:`~repro.core.staleness.DelayProfile`: constant
(controlled studies), per-parameter (emulating per-stage pipeline delays),
or random (ASGD).

This simulator is also the *ground truth for the pipeline schedules'
staleness accounting*: with the pipeline profile
(:func:`~repro.pipeline.delays.pipeline_delay_profile`, built via
:meth:`~repro.core.staleness.PerParamDelay.from_sample_delays`) and
per-sample steps, ``consistent=False`` reproduces the ``"pb"`` schedule
exactly (forward stale by eq. 5, backward on current weights) and
``consistent=True`` reproduces ``"1f1b"`` (PipeDream weight stashing:
forward and backward share the stale weights).  Both equivalences are
property-tested in ``tests/test_schedule_properties.py``.
"""

from __future__ import annotations

import numbers
from typing import Iterable

import numpy as np

from repro.core.history import ParamHistory
from repro.core.mitigation import MitigationConfig
from repro.core.staleness import ConstantDelay, DelayProfile
from repro.nn.module import Module, Parameter
from repro.optim.sgd import _check_lr_momentum, sgdm_update


class DelayedSGDM:
    """Momentum SGD with simulated gradient delay and mitigation.

    Parameters
    ----------
    params:
        Model parameters (or a :class:`Module`).
    lr, momentum, weight_decay:
        SGDM hyperparameters (eqs. 7-8); ``lr`` may be reassigned between
        steps by an LR schedule.
    delay:
        Non-negative integer (constant; any :class:`numbers.Integral`, so
        sweeps over ``np.arange`` work) or a :class:`DelayProfile`.
    mitigation:
        A :class:`MitigationConfig`; the default is plain delayed SGDM.
    consistent:
        ``True`` = the same stale weights are used on forward and backward
        ("Consistent Delay" in Figure 10; equivalent to weight stashing).
        ``False`` = forward uses stale weights, backward uses current ones
        ("Forward Delay Only" / PB without stashing).  A mitigation with
        ``weight_stashing=True`` forces consistency.
    """

    def __init__(
        self,
        params: Iterable[Parameter] | Module,
        lr: float,
        momentum: float = 0.0,
        delay: int | DelayProfile = 0,
        mitigation: MitigationConfig | None = None,
        consistent: bool = True,
        weight_decay: float = 0.0,
    ):
        if isinstance(params, Module):
            params = params.parameters()
        self.params: list[Parameter] = list(params)
        if not self.params:
            raise ValueError("optimizer received no parameters")
        _check_lr_momentum(lr, momentum)
        self.lr = float(lr)
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)
        self.profile: DelayProfile = (
            ConstantDelay(delay)
            if isinstance(delay, numbers.Integral)
            else delay
        )
        self.mitigation = mitigation or MitigationConfig.none()
        self.consistent = bool(consistent) or self.mitigation.weight_stashing
        self.t = 0

        max_d = self.profile.max_delay()
        self._velocity: dict[int, np.ndarray] = {}
        self._history: dict[int, ParamHistory] = {}
        self._master: dict[int, np.ndarray] = {}
        self._loaded = False
        for p in self.params:
            pid = id(p)
            self._velocity[pid] = np.zeros_like(p.data)
            hist = ParamHistory(maxlen=max_d + 2)
            hist.push(p.data, self._velocity[pid])
            self._history[pid] = hist

    # -- step phases -----------------------------------------------------

    def begin_step(self) -> None:
        """Start a step: sample random delays, snapshot master weights."""
        self.profile.begin_step(self.t)
        for p in self.params:
            self._master[id(p)] = p.data
        self._loaded = True

    def load_forward_weights(self) -> None:
        """Load each parameter with its (possibly predicted) stale value."""
        if not self._loaded:
            self.begin_step()
        pred = self.mitigation.prediction
        for p in self.params:
            pid = id(p)
            d = self.profile.delay_for(pid, self.t)
            hist = self._history[pid]
            w_old, v_old = hist.get(d)
            p.data = pred.predict(
                w_old, v_old, hist.get(d + 1)[0], self.lr,
                pred.forward_horizon(d),
            )

    def prepare_backward(self) -> None:
        """Select the weights the backward pass will read."""
        if not self._loaded:
            raise RuntimeError("call load_forward_weights() before backward")
        if self.consistent:
            return  # keep the forward (stale/predicted) weights
        pred = self.mitigation.prediction
        # SpecTrain re-predicts at backward time from the current state;
        # a zero horizon (every other kind) is the master weights as-is
        horizon = pred.backward_horizon()
        for p in self.params:
            pid = id(p)
            master = self._master[pid]
            p.data = (
                pred.predict(
                    master, self._velocity[pid],
                    self._history[pid].get(1)[0], self.lr, horizon,
                )
                if horizon
                else master
            )

    def step(self) -> None:
        """Apply the (compensated) update to master weights; advance time."""
        if not self._loaded:
            raise RuntimeError("step() without load_forward_weights()")
        m = self.momentum
        for p in self.params:
            pid = id(p)
            master = self._master[pid]
            v = self._velocity[pid]
            if p.grad is not None:
                d = self.profile.delay_for(pid, self.t)
                a, b = self.mitigation.spike_coefficients(m, d)
                sgdm_update(
                    master, v, p.grad, self.lr, m, self.weight_decay, a, b,
                    shrink=self.mitigation.shrink_factor(m, d),
                )
            p.data = master
            self._history[pid].push(master, v)
            p.grad = None
        self.t += 1
        self._loaded = False
        self._master.clear()

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def velocity(self, p: Parameter) -> np.ndarray:
        return self._velocity[id(p)]
