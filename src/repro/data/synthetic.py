"""Seeded synthetic image-classification datasets.

Each class gets a smooth random "prototype" field; samples are noisy,
jittered mixtures of their class prototype and a smooth background.  The
resulting task is learnable but non-trivial (a linear model cannot reach
the accuracy a small CNN can), and — importantly for this reproduction —
training on it is sensitive to gradient staleness, which is the phenomenon
the paper's experiments measure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.rng import derive_seed, new_rng

#: bytes of samples :func:`make_synthetic` filters, scales and sums at a
#: time: the pool is drawn whole (the rng stream fixes that), but every
#: temporary after the draw is one cache-sized block, not one pool
_BLOCK_BYTES = 384 * 1024


@dataclass
class Dataset:
    """Train/val arrays in NCHW layout with integer labels."""

    name: str
    x_train: np.ndarray
    y_train: np.ndarray
    x_val: np.ndarray
    y_val: np.ndarray
    num_classes: int

    @property
    def image_shape(self) -> tuple[int, int, int]:
        return self.x_train.shape[1:]

    def __repr__(self) -> str:
        return (
            f"Dataset({self.name}, train={len(self.y_train)}, "
            f"val={len(self.y_val)}, classes={self.num_classes}, "
            f"shape={self.image_shape})"
        )


def _gaussian_filter(a: np.ndarray, sigma) -> np.ndarray:
    """SciPy's ``ndimage.gaussian_filter(a, sigma)`` at its defaults (order
    0, ``mode="reflect"``, ``truncate=4.0``), written over ``a`` (a float
    array) and returned.

    The datasets — and every golden trained on them — are pinned to the
    bits SciPy produces, so the *order of operations* below is the
    contract, not just the formula.  Per axis with ``sigma > 1e-15``, in
    axis order: radius ``r = int(4 sigma + 0.5)``; weights
    ``w = exp(-0.5 / sigma**2 * x**2)`` over ``x = -r..r``, divided by
    their sum; the boundary is numpy's ``"symmetric"`` pad; and, the
    kernel being symmetric, each output is ``a[l] * w[r]`` followed by
    ``+= (a[l+i] + a[l-i]) * w[i+r]`` for ``i = -r .. -1`` in that order,
    all in float64, stored back in ``a``'s dtype after each axis.  The
    axis is sliced where it lies (no ``moveaxis``): rows stay contiguous.
    """
    out = a if a.dtype == np.float64 else np.empty(a.shape)
    pair = np.empty(a.shape)
    for axis, sd in enumerate(sigma):
        if sd <= 1e-15:
            continue
        r = int(4.0 * sd + 0.5)
        x = np.arange(-r, r + 1)
        w = np.exp(-0.5 / (sd * sd) * x**2)
        w = w / w.sum()
        width = [(0, 0)] * a.ndim
        width[axis] = (r, r)
        padded = np.pad(a, width, mode="symmetric").astype(
            np.float64, copy=False
        )
        n = a.shape[axis]

        def shifted(i: int) -> np.ndarray:
            index = [slice(None)] * a.ndim
            index[axis] = slice(r + i, r + i + n)
            return padded[tuple(index)]

        np.multiply(shifted(0), w[r], out=out)
        for i in range(-r, 0):
            np.add(shifted(i), shifted(-i), out=pair)
            pair *= w[i + r]
            out += pair
        if out is not a:
            a[...] = out
    return a


def _smooth_field(
    rng: np.random.Generator, channels: int, size: int, smoothness: float
) -> np.ndarray:
    """A smooth random field in [-1, 1]^(C,H,W)."""
    field = rng.normal(size=(channels, size, size))
    _gaussian_filter(field, (0, smoothness, smoothness))
    peak = np.abs(field).max() or 1.0
    return field / peak


def make_synthetic(
    name: str = "synthetic",
    num_classes: int = 10,
    image_size: int = 16,
    channels: int = 3,
    train_size: int = 2048,
    val_size: int = 512,
    noise: float = 1.0,
    prototype_strength: float = 1.0,
    smoothness: float = 2.0,
    seed: int = 0,
) -> Dataset:
    """Build a synthetic dataset.

    ``noise`` controls difficulty: each sample is
    ``prototype_strength * P_y + noise * (smooth noise field)`` with a
    random per-sample gain, so higher noise lowers the attainable accuracy
    and stretches the training curves (useful for making method gaps
    visible at bench scale).
    """
    rng = new_rng(derive_seed(seed, "synthetic", name))
    protos = np.stack(
        [
            _smooth_field(rng, channels, image_size, smoothness)
            for _ in range(num_classes)
        ]
    )

    def _sample(n: int, rng: np.random.Generator):
        y = rng.integers(0, num_classes, size=n)
        gain = rng.uniform(0.7, 1.3, size=(n, 1, 1, 1))
        x = rng.normal(size=(n, channels, image_size, image_size))
        # x = signal + noise * smoothed(x), block by block in place: the
        # filter's sigma is 0 along N, so blocks are exact
        step = max(1, _BLOCK_BYTES // x[0].nbytes)
        for lo in range(0, n, step):
            block = slice(lo, lo + step)
            bg = _gaussian_filter(x[block], (0, 0, 1.0, 1.0))
            bg *= noise
            bg += prototype_strength * protos[y[block]] * gain[block]
        return x, y.astype(np.int64, copy=False)

    x_train, y_train = _sample(train_size, rng)
    x_val, y_val = _sample(val_size, rng)
    return Dataset(
        name=name,
        x_train=x_train,
        y_train=y_train,
        x_val=x_val,
        y_val=y_val,
        num_classes=num_classes,
    )


def SyntheticCifar(
    seed: int = 0,
    image_size: int = 16,
    train_size: int = 2048,
    val_size: int = 512,
    noise: float = 1.2,
) -> Dataset:
    """CIFAR-10 stand-in: 10 classes, 3 channels (16x16 at bench scale;
    pass ``image_size=32`` for the paper-shape input)."""
    return make_synthetic(
        name=f"synth-cifar{image_size}",
        num_classes=10,
        image_size=image_size,
        train_size=train_size,
        val_size=val_size,
        noise=noise,
        seed=seed,
    )


def SyntheticImageNet(
    seed: int = 0,
    image_size: int = 32,
    num_classes: int = 20,
    train_size: int = 2048,
    val_size: int = 512,
    noise: float = 1.2,
) -> Dataset:
    """ImageNet stand-in: more classes, larger images (downscaled)."""
    return make_synthetic(
        name=f"synth-imagenet{image_size}",
        num_classes=num_classes,
        image_size=image_size,
        train_size=train_size,
        val_size=val_size,
        noise=noise,
        seed=seed,
    )
