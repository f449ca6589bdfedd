"""Seeded random-number-generator helpers.

All stochastic components in the package (data synthesis, augmentation,
weight init, dropout, ASGD delay sampling) take a ``numpy.random.Generator``
rather than relying on global state, so every experiment is reproducible
from a single integer seed.
"""

from __future__ import annotations

import numpy as np


def new_rng(seed: int | None = 0) -> np.random.Generator:
    """Create a PCG64 generator from an integer seed (``None`` = entropy)."""
    return np.random.default_rng(seed)


def spawn_rngs(seed: int, n: int) -> list[np.random.Generator]:
    """Deterministically derive ``n`` independent generators from one seed.

    Used when an experiment needs separate streams (e.g. one per training
    run in a five-seed mean) that must not interact.
    """
    seq = np.random.SeedSequence(seed)
    return [np.random.default_rng(s) for s in seq.spawn(n)]


def derive_seed(seed: int, *tags: int | str) -> int:
    """Derive a stable sub-seed from ``seed`` and a list of tags.

    Tags are hashed into the seed sequence so e.g. ``derive_seed(0, "init")``
    and ``derive_seed(0, "data")`` give unrelated streams.
    """
    material = [seed] + [
        int.from_bytes(str(t).encode(), "little") % (2**32) for t in tags
    ]
    seq = np.random.SeedSequence(material)
    return int(seq.generate_state(1)[0])
