"""Layer-level tests: shapes, statistics, gradients, modes."""

import numpy as np
import pytest

from repro.nn import (
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    Dropout,
    Flatten,
    GlobalAvgPool,
    GroupNorm,
    Linear,
    MaxPool2d,
    group_norm_for,
)
from repro.tensor import Tensor, check_gradients, cross_entropy
from repro.utils.rng import new_rng


class TestLinearConv:
    def test_linear_shapes_and_grad(self, rng):
        layer = Linear(6, 4, rng=new_rng(0))
        x = Tensor(rng.normal(size=(3, 6)), requires_grad=True)
        out = layer(x)
        assert out.shape == (3, 4)
        check_gradients(
            lambda x: (layer(x) ** 2).sum(), [x]
        )

    def test_linear_no_bias(self):
        layer = Linear(3, 2, bias=False)
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_conv_layer_grad(self, rng):
        layer = Conv2d(2, 3, 3, padding=1, rng=new_rng(0))
        x = Tensor(rng.normal(size=(2, 2, 5, 5)), requires_grad=True)
        check_gradients(lambda x: (layer(x) ** 2).sum(), [x])

    def test_flatten(self, rng):
        out = Flatten()(Tensor(rng.normal(size=(2, 3, 4, 5))))
        assert out.shape == (2, 60)

    def test_init_reproducible(self):
        a = Linear(4, 4, rng=new_rng(42))
        b = Linear(4, 4, rng=new_rng(42))
        np.testing.assert_array_equal(a.weight.data, b.weight.data)


class TestGroupNorm:
    def test_normalizes_per_group(self, rng):
        gn = GroupNorm(2, 8)
        x = Tensor(rng.normal(size=(3, 8, 4, 4)) * 5.0 + 2.0)
        out = gn(x).data
        grouped = out.reshape(3, 2, -1)
        np.testing.assert_allclose(grouped.mean(axis=2), 0.0, atol=1e-6)
        np.testing.assert_allclose(grouped.std(axis=2), 1.0, atol=1e-3)

    def test_batch_independence(self, rng):
        """GN output for a sample must not depend on the rest of the batch
        — the property that enables batch-size-one training."""
        gn = GroupNorm(2, 4)
        x = rng.normal(size=(4, 4, 3, 3))
        full = gn(Tensor(x)).data
        single = gn(Tensor(x[1:2])).data
        np.testing.assert_allclose(full[1:2], single, atol=1e-12)

    def test_gradcheck(self, rng):
        gn = GroupNorm(2, 4)
        x = Tensor(rng.normal(size=(2, 4, 3, 3)), requires_grad=True)
        labels = rng.normal(size=(2, 4, 3, 3))
        check_gradients(
            lambda x: ((gn(x) - Tensor(labels)) ** 2).sum(), [x],
            atol=1e-5, rtol=1e-3,
        )

    def test_affine_params_receive_grads(self, rng):
        gn = GroupNorm(2, 4)
        out = (gn(Tensor(rng.normal(size=(2, 4, 3, 3)))) ** 2).sum()
        out.backward()
        assert gn.weight.grad is not None and gn.bias.grad is not None

    def test_invalid_groups_raises(self):
        with pytest.raises(ValueError):
            GroupNorm(3, 8)

    def test_channel_mismatch_raises(self, rng):
        gn = GroupNorm(2, 4)
        with pytest.raises(ValueError):
            gn(Tensor(rng.normal(size=(1, 6, 3, 3))))

    def test_group_norm_for_group_size(self):
        gn = group_norm_for(16, group_size=2)
        assert gn.num_groups == 8
        gn2 = group_norm_for(3, group_size=2)  # falls back to divisor
        assert gn2.num_channels == 3

    def test_no_affine(self, rng):
        gn = GroupNorm(1, 4, affine=False)
        assert len(gn.parameters()) == 0
        gn(Tensor(rng.normal(size=(1, 4, 2, 2))))


class TestBatchNorm:
    def test_train_normalizes_batch(self, rng):
        bn = BatchNorm2d(3)
        x = Tensor(rng.normal(size=(8, 3, 4, 4)) * 3.0 + 1.0)
        out = bn(x).data
        np.testing.assert_allclose(out.mean(axis=(0, 2, 3)), 0.0, atol=1e-7)
        np.testing.assert_allclose(out.std(axis=(0, 2, 3)), 1.0, atol=1e-3)

    def test_running_stats_update(self, rng):
        bn = BatchNorm2d(3, momentum=0.5)
        x = Tensor(rng.normal(size=(16, 3, 4, 4)) + 4.0)
        bn(x)
        assert np.all(bn.running_mean > 1.0)

    def test_eval_uses_running_stats(self, rng):
        bn = BatchNorm2d(3)
        for _ in range(20):
            bn(Tensor(rng.normal(size=(16, 3, 4, 4)) * 2.0 + 1.0))
        bn.eval()
        x = rng.normal(size=(4, 3, 4, 4)) * 2.0 + 1.0
        out = bn(Tensor(x)).data
        ref = (x - bn.running_mean.reshape(1, 3, 1, 1)) / np.sqrt(
            bn.running_var.reshape(1, 3, 1, 1) + bn.eps
        )
        np.testing.assert_allclose(out, ref, atol=1e-10)

    def test_gradcheck_train_mode(self, rng):
        bn = BatchNorm2d(2)
        x = Tensor(rng.normal(size=(4, 2, 3, 3)), requires_grad=True)
        w = rng.normal(size=(4, 2, 3, 3))
        check_gradients(
            lambda x: (bn(x) * Tensor(w)).sum(), [x], atol=1e-5, rtol=1e-3
        )


class TestPoolingLayers:
    def test_max_pool_module(self, rng):
        out = MaxPool2d(2)(Tensor(rng.normal(size=(1, 2, 6, 6))))
        assert out.shape == (1, 2, 3, 3)

    def test_avg_pool_module(self, rng):
        out = AvgPool2d(3)(Tensor(rng.normal(size=(1, 2, 6, 6))))
        assert out.shape == (1, 2, 2, 2)

    def test_global_avg_pool(self, rng):
        x = rng.normal(size=(2, 5, 4, 4))
        out = GlobalAvgPool()(Tensor(x))
        assert out.shape == (2, 5)
        np.testing.assert_allclose(out.data, x.mean(axis=(2, 3)))


class TestDropout:
    def test_eval_is_identity(self, rng):
        d = Dropout(0.5)
        d.eval()
        x = rng.normal(size=(4, 4))
        np.testing.assert_array_equal(d(Tensor(x)).data, x)

    def test_train_scales_surviving(self):
        d = Dropout(0.5, seed=0)
        x = np.ones((100, 100))
        out = d(Tensor(x)).data
        kept = out[out != 0]
        np.testing.assert_allclose(kept, 2.0)
        assert 0.4 < (out != 0).mean() < 0.6

    def test_reseed_reproduces_masks(self):
        d = Dropout(0.5, seed=3)
        x = Tensor(np.ones((8, 8)))
        m1 = d(x).data.copy()
        d.reseed()
        m2 = d(x).data.copy()
        np.testing.assert_array_equal(m1, m2)

    def test_invalid_p_raises(self):
        with pytest.raises(ValueError):
            Dropout(1.0)

    def test_zero_p_identity_in_train(self, rng):
        d = Dropout(0.0)
        x = rng.normal(size=(3, 3))
        np.testing.assert_array_equal(d(Tensor(x)).data, x)


class TestLosses:
    def test_cross_entropy(self, rng):
        logits = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        out = cross_entropy(logits, np.array([0, 1, 2, 0]))
        assert out.size == 1
        out.backward()
        assert logits.grad is not None
