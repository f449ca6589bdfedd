"""Utility modules: rendering, result store, rng derivation."""

import numpy as np
import pytest

from repro.utils import ResultStore, ascii_heatmap, format_table
from repro.utils.render import format_series
from repro.utils.rng import derive_seed, new_rng


class TestRender:
    def test_format_table_alignment(self):
        rows = [
            {"net": "RN20", "SGDM": 90.63, "PB": 90.44},
            {"net": "RN110", "SGDM": 92.77, "PB": 91.81},
        ]
        text = format_table(rows, title="Table 1")
        assert "Table 1" in text
        assert "RN110" in text
        lines = text.splitlines()
        assert len(lines) == 2 + 2 + 1  # title + header + rule + 2 rows

    def test_format_table_missing_key(self):
        text = format_table([{"a": 1}, {"a": 2, "b": 3}], columns=["a", "b"])
        assert "-" in text

    def test_empty_table(self):
        assert "empty" in format_table([])

    def test_heatmap_levels(self):
        m = np.array([[0.0, 0.5, 1.0]])
        text = ascii_heatmap(m, vmin=0.0, vmax=1.0)
        assert text[0] == " " and text[-1] == "@"

    def test_heatmap_invalid_cells(self):
        m = np.array([[0.0, np.nan, np.inf]])
        text = ascii_heatmap(m, vmin=0, vmax=1)
        assert text.count("X") == 2

    def test_heatmap_labels(self):
        m = np.zeros((2, 3))
        text = ascii_heatmap(m, row_labels=["m=0.9", "m=0"], title="fig")
        assert "m=0.9" in text and text.startswith("fig")

    def test_heatmap_rejects_1d(self):
        with pytest.raises(ValueError):
            ascii_heatmap(np.zeros(3))

    def test_format_series(self):
        text = format_series([1, 2], {"gdm": [0.5, 0.6], "sc": [0.4, 0.3]},
                             x_name="delay")
        assert "delay" in text and "gdm" in text and "0.3" in text


class TestResultStore:
    def test_round_trip(self, tmp_path):
        store = ResultStore(tmp_path)
        payload = {
            "rows": [{"a": np.float64(1.5), "b": np.int64(2)}],
            "series": np.array([1.0, 2.0]),
            "nested": {"x": np.bool_(True)},
        }
        store.save("exp1", payload)
        assert store.exists("exp1")
        loaded = store.load("exp1")
        assert loaded["rows"][0]["a"] == 1.5
        assert loaded["series"] == [1.0, 2.0]
        assert loaded["nested"]["x"] is True

    def test_missing_is_not_exists(self, tmp_path):
        assert not ResultStore(tmp_path).exists("nope")

    def test_inf_encoded(self, tmp_path):
        store = ResultStore(tmp_path)
        store.save("inf", {"v": float("inf")})
        assert store.load("inf")["v"] == "inf"


class TestRng:
    def test_derive_seed_stable(self):
        assert derive_seed(0, "a", 1) == derive_seed(0, "a", 1)
        assert derive_seed(0, "a") != derive_seed(0, "b")
        assert derive_seed(0, "a") != derive_seed(1, "a")

    def test_new_rng_reproducible(self):
        assert new_rng(5).normal() == new_rng(5).normal()
