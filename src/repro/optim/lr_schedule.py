"""Learning-rate schedules.

Schedules are callables ``step -> lr``: a flat experiment loop sets
``opt.lr = schedule(step)`` once per optimizer update, and a pipeline
engine's ``lr_schedule=`` is evaluated on its running sample count.
``StepSchedule`` reproduces the He et al. milestone decay;
``WarmupSchedule`` implements the linear warmup the paper discusses as
a delay-stabilization aid (§5).
"""

from __future__ import annotations

from typing import Sequence


class ConstantSchedule:
    """Always the base learning rate."""

    def __init__(self, lr: float):
        self.lr = float(lr)

    def __call__(self, step: int) -> float:
        return self.lr


class StepSchedule:
    """Piecewise-constant decay: multiply by ``gamma`` at each milestone."""

    def __init__(self, base_lr: float, milestones: Sequence[int], gamma: float = 0.1):
        if sorted(milestones) != list(milestones):
            raise ValueError("milestones must be sorted ascending")
        self.base_lr = float(base_lr)
        self.milestones = list(milestones)
        self.gamma = float(gamma)

    def __call__(self, step: int) -> float:
        lr = self.base_lr
        for m in self.milestones:
            if step >= m:
                lr *= self.gamma
        return lr


class WarmupSchedule:
    """Linear warmup from ``warmup_frac * lr`` wrapped around a schedule."""

    def __init__(self, inner, warmup_steps: int, warmup_frac: float = 0.1):
        if warmup_steps < 0:
            raise ValueError("warmup_steps must be >= 0")
        self.inner = inner
        self.warmup_steps = int(warmup_steps)
        self.warmup_frac = float(warmup_frac)

    def __call__(self, step: int) -> float:
        lr = self.inner(step)
        if self.warmup_steps and step < self.warmup_steps:
            frac = self.warmup_frac + (1.0 - self.warmup_frac) * (
                step / self.warmup_steps
            )
            return lr * frac
        return lr
