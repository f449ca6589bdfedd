"""Hyperparameter scaling for small update sizes (paper eq. 9).

Following Chiley et al. (2019), when moving from a reference batch size
``N_r`` to a new update size ``N``:

    m   = m_r ** (N / N_r)
    lr  = (1 - m) * N / ((1 - m_r) * N_r) * lr_r

This keeps (a) the momentum half-life constant *in samples* and (b) the
total contribution of each sample to the weights constant, which is what
makes batch-1 pipelined backpropagation comparable to the batch-128
baseline without re-tuning (validated in Figure 17).
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class HyperParams:
    """An SGDM configuration tied to an update size."""

    lr: float
    momentum: float
    batch_size: int
    weight_decay: float = 0.0

    def scaled_to(self, batch_size: int) -> "HyperParams":
        """This configuration rescaled to a new update size via eq. 9."""
        lr, m = scale_for_batch_size(
            self.lr, self.momentum, self.batch_size, batch_size
        )
        return replace(self, lr=lr, momentum=m, batch_size=batch_size)


#: He et al. (2016a) CIFAR reference: lr 0.1, momentum 0.9, batch 128.
HE_CIFAR_REFERENCE = HyperParams(
    lr=0.1, momentum=0.9, batch_size=128, weight_decay=1e-4
)

#: He et al. (2016a) ImageNet reference: lr 0.1, momentum 0.9, batch 256.
HE_IMAGENET_REFERENCE = HyperParams(
    lr=0.1, momentum=0.9, batch_size=256, weight_decay=1e-4
)


def scale_for_batch_size(
    lr_ref: float,
    momentum_ref: float,
    batch_ref: int,
    batch_new: int,
) -> tuple[float, float]:
    """Eq. 9: scale ``(lr, momentum)`` from ``batch_ref`` to ``batch_new``.

    Raises ``ValueError`` when a positive ``momentum_ref`` scales to a
    momentum that is exactly 0.0 in floating point.
    """
    if not 0.0 <= momentum_ref < 1.0:
        raise ValueError(f"momentum must be in [0, 1), got {momentum_ref}")
    if batch_ref <= 0 or batch_new <= 0:
        raise ValueError("batch sizes must be positive")
    m = momentum_ref ** (batch_new / batch_ref)
    if momentum_ref > 0.0 and m == 0.0:
        # e.g. 0.03125 ** 215 == 2 ** -1075: the half-life eq. 9 keeps
        # constant is undefined at momentum 0, so no clamp is right
        raise ValueError(
            "eq. 9 underflows the scaled momentum to exactly 0.0 for "
            f"(momentum_ref, batch_ref, batch_new) = ({momentum_ref}, "
            f"{batch_ref}, {batch_new})"
        )
    lr = (1.0 - m) * batch_new / ((1.0 - momentum_ref) * batch_ref) * lr_ref
    return lr, m


def lr_for_momentum(
    lr_ref: float,
    momentum_ref: float,
    batch_ref: int,
    momentum_new: float,
    batch_new: int,
) -> float:
    """The second expression of eq. 9 alone, for momentum-sweep experiments.

    Used by the Appendix-F study: pick ``momentum_new`` freely, then scale
    the learning rate so each gradient's total contribution is unchanged.
    """
    return (
        (1.0 - momentum_new)
        * batch_new
        / ((1.0 - momentum_ref) * batch_ref)
        * lr_ref
    )

