"""Graph-mechanics tests: accumulation, no_grad, lazy weight reads,
multi-root backward."""

import sys
import threading

import numpy as np
import pytest

from repro.tensor import Tensor, matmul, no_grad, relu
from repro.tensor.tensor import backward_multi, grad_enabled


class TestGraphMechanics:
    def test_grad_accumulates_across_backward_calls(self, rng):
        a = Tensor(rng.normal(size=(3,)), requires_grad=True)
        (a * 2.0).sum().backward()
        (a * 3.0).sum().backward()
        np.testing.assert_allclose(a.grad, np.full(3, 5.0))

    def test_shared_node_accumulates_within_graph(self, rng):
        a = Tensor(rng.normal(size=(3,)), requires_grad=True)
        b = a * 2.0
        out = (b + b).sum()
        out.backward()
        np.testing.assert_allclose(a.grad, np.full(3, 4.0))

    def test_diamond_graph(self, rng):
        a = Tensor(rng.normal(size=(4,)), requires_grad=True)
        left = a * 3.0
        right = relu(a)
        (left * right).sum().backward()
        expected = 3.0 * relu(Tensor(a.data)).data + 3.0 * a.data * (
            a.data > 0
        )
        np.testing.assert_allclose(a.grad, expected)

    def test_backward_requires_scalar_without_grad(self, rng):
        a = Tensor(rng.normal(size=(3,)), requires_grad=True)
        with pytest.raises(RuntimeError):
            (a * 2.0).backward()

    def test_backward_on_non_grad_tensor_raises(self, rng):
        a = Tensor(rng.normal(size=(3,)))
        with pytest.raises(RuntimeError):
            a.backward()

    def test_no_grad_blocks_graph(self, rng):
        a = Tensor(rng.normal(size=(3,)), requires_grad=True)
        with no_grad():
            out = (a * 2.0).sum()
            assert not out.requires_grad
        assert grad_enabled()

    def test_no_grad_restores_on_exception(self):
        try:
            with no_grad():
                raise ValueError("boom")
        except ValueError:
            pass
        assert grad_enabled()

    def test_no_grad_is_thread_local(self):
        """Grad mode is per thread: with a process-global flag, two
        threads interleaving ``no_grad`` enter/exit pairs restore each
        other's saved value and leave the flag stuck ``False`` for
        everyone (the multi-core tier-1 failure this pins)."""
        threads_n, blocks = 8, 2000
        barrier = threading.Barrier(threads_n)
        violations = []

        def hammer():
            bad = 0
            barrier.wait()
            for _ in range(blocks):
                with no_grad():
                    bad += grad_enabled()
                bad += not grad_enabled()
            violations.append(bad)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=hammer) for _ in range(threads_n)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert violations == [0] * threads_n
        assert grad_enabled()
        assert (Tensor([1.0], requires_grad=True) * 2).requires_grad

    def test_deep_chain_no_recursion_error(self, rng):
        a = Tensor(rng.normal(size=(2,)), requires_grad=True)
        x = a
        for _ in range(3000):
            x = x * 1.0001
        x.sum().backward()
        assert a.grad is not None

    def test_detach_cuts_graph(self, rng):
        a = Tensor(rng.normal(size=(3,)), requires_grad=True)
        b = (a * 2.0).detach()
        assert not b.requires_grad

    def test_dtype_preserved_float64(self, rng):
        a = Tensor(rng.normal(size=(3,)).astype(np.float32))
        assert a.dtype == np.float32
        b = Tensor([1, 2, 3])
        assert b.dtype == np.float64


class TestLazyWeightReads:
    """The property pipelined backprop inconsistency relies on."""

    def test_matmul_input_grad_uses_current_weight_value(self, rng):
        x = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        out = matmul(x, w).sum()
        w_new = rng.normal(size=(3, 4))
        w.data = w_new  # mutate between forward and backward
        out.backward()
        np.testing.assert_allclose(x.grad, np.ones((2, 4)) @ w_new.T)

    def test_matmul_weight_grad_uses_forward_activations(self, rng):
        x = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        out = matmul(x, w).sum()
        x_forward = x.data.copy()
        out.backward()
        np.testing.assert_allclose(w.grad, x_forward.T @ np.ones((2, 4)))

    def test_conv_input_grad_uses_current_weight_value(self, rng):
        from repro.tensor import conv2d

        x = Tensor(rng.normal(size=(1, 2, 5, 5)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 2, 3, 3)), requires_grad=True)
        out = conv2d(x, w, padding=1).sum()
        w.data = np.zeros_like(w.data)  # zero weights before backward
        out.backward()
        np.testing.assert_allclose(x.grad, np.zeros_like(x.data))

    def test_relu_mask_is_forward_captured(self, rng):
        x = Tensor(np.array([1.0, -1.0, 2.0]), requires_grad=True)
        out = relu(x).sum()
        x.data = np.array([-5.0, 5.0, 5.0])  # must not change the mask
        out.backward()
        np.testing.assert_allclose(x.grad, np.array([1.0, 0.0, 1.0]))


class TestBackwardMulti:
    def test_matches_combined_scalar(self, rng):
        def build(a_data):
            a = Tensor(a_data, requires_grad=True)
            shared = a * 2.0
            y1 = shared * 3.0
            y2 = relu(shared)
            return a, y1, y2

        g1 = rng.normal(size=(4,))
        g2 = rng.normal(size=(4,))
        a_data = rng.normal(size=(4,))

        a, y1, y2 = build(a_data)
        backward_multi([(y1, g1), (y2, g2)])
        multi_grad = a.grad.copy()

        a2, z1, z2 = build(a_data)
        total = (z1 * Tensor(g1)).sum() + (z2 * Tensor(g2)).sum()
        total.backward()
        np.testing.assert_allclose(multi_grad, a2.grad, atol=1e-12)

    def test_single_root_equals_backward(self, rng):
        a = Tensor(rng.normal(size=(3,)), requires_grad=True)
        y = a * 4.0
        backward_multi([(y, np.ones(3))])
        np.testing.assert_allclose(a.grad, np.full(3, 4.0))

    def test_skips_non_grad_roots(self, rng):
        a = Tensor(rng.normal(size=(3,)))
        backward_multi([(a, np.ones(3))])  # no error
        assert a.grad is None
