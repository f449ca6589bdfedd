"""Small coverage tests: reprs, item(), summaries, renderers."""

import numpy as np
import pytest

from repro.models import small_cnn
from repro.tensor import Tensor


class TestTensorMisc:
    def test_item_scalar(self):
        assert Tensor(np.array(3.5)).item() == 3.5

    def test_item_vector_raises(self):
        with pytest.raises(ValueError):
            Tensor(np.zeros(3)).item()

    def test_repr(self):
        t = Tensor(np.zeros((2, 3)), requires_grad=True)
        assert "shape=(2, 3)" in repr(t)
        assert "requires_grad=True" in repr(t)

    def test_numpy_returns_underlying(self):
        t = Tensor(np.arange(3.0))
        assert t.numpy() is t.data

    def test_zero_grad(self):
        t = Tensor(np.ones(2), requires_grad=True)
        (t * 2.0).sum().backward()
        assert t.grad is not None
        t.zero_grad()
        assert t.grad is None


class TestStageSummaries:
    def test_describe_includes_param_counts(self):
        m = small_cnn(widths=(4, 8))
        text = m.describe()
        assert "params=" in text
        assert str(m.num_stages) in text.splitlines()[0]


class TestDatasetRepr:
    def test_dataset_repr(self, tiny_dataset):
        text = repr(tiny_dataset)
        assert "train=" in text and "classes=4" in text

    def test_profile_reprs(self):
        from repro.core import ConstantDelay, PerParamDelay, RandomDelay

        assert "4" in repr(ConstantDelay(4))
        assert "max=7" in repr(PerParamDelay({1: 7}))
        assert "[1, 5]" in repr(RandomDelay(1, 5))
