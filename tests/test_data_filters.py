"""``src/`` needs numpy alone: the filters scipy used to provide.

``data/synthetic.py::_gaussian_filter`` performs scipy's operations in
scipy's order, so the synthetic datasets — and every golden trained on
them — keep their bits; ``quadratic/halflife.py`` takes its sliding
maximum from ``sliding_window_view``.  scipy is the *oracle* here
(``importorskip``: CI installs it so these are not silently skipped);
the digests and the import-hygiene test are what hold without it.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.data import SyntheticCifar, SyntheticImageNet
from repro.data.synthetic import _gaussian_filter
from repro.quadratic.halflife import _per_momentum_best_rate

REPO = Path(__file__).resolve().parent.parent

#: sha256 over x_train, y_train, x_val bytes, taken at the last commit
#: that built the datasets with ``scipy.ndimage.gaussian_filter``
DIGESTS = {
    "cifar8": "d3f0de60e1066a18428386a55d22e5678d7b039a9abfc59f5d50922adda30111",
    "cifar16": "16d3eee5ff294f00d8d969a73f9ac5820051864969d2e2fb8cf5f60e1f98b384",
    "imagenet32": "15c8edb1e05772f3a6cf8f352d0a2ae1d749ac896fbfaa2f0115c3f2b25d5f0f",
}


def _digest(ds) -> str:
    h = hashlib.sha256()
    for a in (ds.x_train, ds.y_train, ds.x_val):
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


class TestDatasetsDidNotMove:
    @pytest.mark.parametrize(
        "name,build",
        [
            ("cifar8", lambda: SyntheticCifar(seed=0, image_size=8)),
            ("cifar16", lambda: SyntheticCifar(seed=0, image_size=16)),
            ("imagenet32", lambda: SyntheticImageNet(seed=1)),
        ],
    )
    def test_digest(self, name, build):
        ds = build()
        assert ds.x_train.dtype == np.float64
        assert ds.y_train.dtype == np.int64
        assert _digest(ds) == DIGESTS[name]


class TestGaussianFilterAgainstScipy:
    SHAPES = [
        ((3, 16, 16), (0, 2.0, 2.0)),
        ((3, 8, 8), (0, 2.0, 2.0)),
        ((3, 32, 32), (0, 2.0, 2.0)),
        ((3, 4, 4), (0, 2.0, 2.0)),  # radius 8 > extent 4
        ((512, 3, 16, 16), (0, 0, 1.0, 1.0)),
        ((1600, 3, 16, 16), (0, 0, 1.0, 1.0)),
        ((4096, 3, 8, 8), (0, 0, 1.0, 1.0)),
        ((100, 3, 32, 32), (0, 0, 1.0, 1.0)),
        ((7, 3, 5, 5), (0, 0, 1.0, 1.0)),
        ((5, 1, 9), (0, 3.7, 0.5)),  # a 1-wide axis, filtered
        ((4, 6, 6), (0.5, 1.0, 3.7)),  # radius 15 > extent 6, all axes
    ]

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("shape,sigma", SHAPES)
    def test_bit_equal(self, shape, sigma, dtype):
        ndimage = pytest.importorskip("scipy.ndimage")
        a = np.random.default_rng(0).normal(size=shape).astype(dtype)
        want = ndimage.gaussian_filter(a, sigma)
        got = _gaussian_filter(a, sigma)
        assert got is a  # written in place
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    def test_non_contiguous_input(self):
        ndimage = pytest.importorskip("scipy.ndimage")
        base = np.random.default_rng(1).normal(size=(6, 3, 16, 20))
        view = base[::2, :, :, ::-2]
        assert not view.flags.c_contiguous
        want = ndimage.gaussian_filter(view, (0, 0, 1.0, 1.0))
        assert np.array_equal(_gaussian_filter(view, (0, 0, 1.0, 1.0)), want)

    def test_blocks_over_an_unfiltered_axis_are_exact(self):
        a = np.random.default_rng(2).normal(size=(10, 3, 8, 8))
        whole = _gaussian_filter(a.copy(), (0, 0, 1.0, 1.0))
        for lo in range(0, 10, 3):
            _gaussian_filter(a[lo : lo + 3], (0, 0, 1.0, 1.0))
        assert np.array_equal(a, whole)


class TestWindowMinOfMax:
    """``_per_momentum_best_rate``: per row, the smallest maximum over
    the window positions that fit inside the row."""

    ROWS = [5, 17, 81, 301]

    @staticmethod
    def _reference(rates: np.ndarray, window: int) -> np.ndarray:
        out = []
        for row in rates:
            best = np.inf
            for lo in range(len(row) - window + 1):
                best = min(best, max(row[lo : lo + window]))
            out.append(best)
        return np.asarray(out)

    @pytest.mark.parametrize("n", ROWS)
    def test_equals_two_loop_reference(self, n):
        rates = np.random.default_rng(n).random((4, n))
        for window in range(1, min(40, n) + 1):
            assert np.array_equal(
                _per_momentum_best_rate(rates, window),
                self._reference(rates, window),
            )

    @pytest.mark.parametrize("n", ROWS)
    def test_equals_the_maximum_filter_form(self, n):
        ndimage = pytest.importorskip("scipy.ndimage")
        rates = np.random.default_rng(n).random((4, n))
        for window in range(2, min(40, n) + 1):
            maxes = ndimage.maximum_filter1d(
                rates, size=window, axis=1, mode="nearest"
            )
            half = window // 2
            want = maxes[:, half : n - (window - 1 - half)].min(axis=1)
            assert np.array_equal(
                _per_momentum_best_rate(rates, window), want
            )

    def test_window_wider_than_the_grid_is_refused(self):
        with pytest.raises(ValueError, match="exceeds"):
            _per_momentum_best_rate(np.zeros((2, 5)), 6)


def test_src_imports_and_synthesizes_without_scipy():
    """``sys.modules["scipy"] = None`` makes any ``import scipy`` raise:
    every package still imports, nothing pulled in ``networkx`` either,
    and the dataset built there has the digest scipy's filter gave."""
    script = f"""
    import sys
    sys.modules["scipy"] = None
    import hashlib
    import numpy as np
    import repro, repro.pipeline, repro.serve, repro.data
    import repro.quadratic, repro.experiments
    loaded = [m for m in sys.modules if m.split(".")[0] in ("scipy", "networkx")]
    assert loaded == ["scipy"] and sys.modules["scipy"] is None, loaded
    ds = repro.data.SyntheticCifar(seed=0, image_size=8)
    h = hashlib.sha256()
    for a in (ds.x_train, ds.y_train, ds.x_val):
        h.update(np.ascontiguousarray(a).tobytes())
    assert h.hexdigest() == {DIGESTS["cifar8"]!r}, h.hexdigest()
    """
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        timeout=60, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
