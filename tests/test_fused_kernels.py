"""One-node stage kernels are bit-identical to the composites they replaced,
and gradients flow through the graph without a copy per edge.

``group_norm`` and ``linear`` each stand where a chain of autodiff
primitives used to; the chains live on here, verbatim, as oracles.  Parity
is bitwise (``np.array_equal`` plus shape and dtype), never a tolerance:
the schedule goldens pin training trajectories by ``float.hex``, so a
fused kernel that reassociates one addition is wrong.

The ownership tests pin the rule that makes copy-free accumulation safe
(see :mod:`repro.tensor`, "gradient ownership"): a gradient is adopted on
first accumulate, summed out-of-place after, the root seed is copied, and
no scratch buffer escapes a backward.
"""

from __future__ import annotations

import ast
import itertools
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.nn import Conv2d, GroupNorm, Linear
from repro.tensor import Tensor, conv2d, no_grad, ops_conv, relu
from repro.tensor.ops_norm import group_norm
from repro.tensor.tensor import backward_multi, linear, matmul, sqrt, zero_pad2d


# -- oracles: the composites, as they stood in nn/norm.py and nn/linear.py ----


def composite_group_norm(x, num_groups, eps, weight, bias):
    n, c, h, w = x.shape
    grouped = x.reshape((n, num_groups, -1))
    mu = grouped.mean(axis=2, keepdims=True)
    centered = grouped - mu
    var = (centered * centered).mean(axis=2, keepdims=True)
    normalized = centered / sqrt(var + eps)
    out = normalized.reshape((n, c, h, w))
    if weight is not None:
        out = out * weight + bias
    return out


def composite_linear(x, weight, bias):
    out = matmul(x, weight)
    out = out + bias
    return out


def loop_col2im(cols, x_shape, kh, kw, stride, padding=0):
    """col2im as ``kh*kw`` strided slice-adds into a zeroed padded canvas,
    then the interior — the float64 path's form before the scatter."""
    n, c, h, w = x_shape
    hp, wp = h + 2 * padding, w + 2 * padding
    oh = (hp - kh) // stride + 1
    ow = (wp - kw) // stride + 1
    cols = cols.reshape(n, c, kh, kw, oh, ow)
    x = np.zeros((n, c, hp, wp), dtype=cols.dtype)
    for i in range(kh):
        i_end = i + oh * stride
        for j in range(kw):
            j_end = j + ow * stride
            x[:, :, i:i_end:stride, j:j_end:stride] += cols[:, :, i, j]
    return x[:, :, padding:hp - padding, padding:wp - padding]


# -- harness --------------------------------------------------------------------


def assert_same(got, want, what=""):
    """Bitwise: same shape, same dtype, same values."""
    if want is None or got is None:
        assert got is None and want is None, what
        return
    assert got.shape == want.shape, what
    assert got.dtype == want.dtype, what
    assert np.array_equal(got, want), what


def run(fn, arrays, requires, seed=None, mutate=None):
    """``fn`` over fresh tensors of ``arrays`` (``None`` passes through);
    returns the output array and each tensor's gradient.  ``mutate``,
    if given, edits the tensors between forward and backward."""
    tensors = [
        None if a is None else Tensor(a.copy(), requires_grad=r)
        for a, r in zip(arrays, requires)
    ]
    out = fn(*tensors)
    if mutate is not None:
        mutate(tensors)
    if out.requires_grad:
        out.backward(seed)
    return out.data, [None if t is None else t.grad for t in tensors]


def assert_parity(fused, composite, arrays, requires, seed, mutate=None):
    out_f, grads_f = run(fused, arrays, requires, seed, mutate)
    out_c, grads_c = run(composite, arrays, requires, seed, mutate)
    assert_same(out_f, out_c, "output")
    for i, (gf, gc) in enumerate(zip(grads_f, grads_c)):
        assert_same(gf, gc, f"grad of operand {i}")
    return grads_f


def gn_case(rng, dtype, n, c, h, w, affine=True):
    x = rng.normal(size=(n, c, h, w)).astype(dtype)
    if not affine:
        return [x, None, None]
    gamma = rng.normal(1.0, 0.3, size=(1, c, 1, 1)).astype(dtype)
    beta = rng.normal(0.0, 0.3, size=(1, c, 1, 1)).astype(dtype)
    return [x, gamma, beta]


def gn_pair(groups, eps=1e-5):
    return (
        lambda x, g, b: group_norm(x, groups, eps, g, b),
        lambda x, g, b: composite_group_norm(x, groups, eps, g, b),
    )


#: (N, C, H, W, groups): group size 1, size 2, all channels, non-square
#: planes, a single-element group (K == 1), and the two workload shapes
GN_SHAPES = [
    (1, 6, 4, 4, 6),
    (1, 6, 4, 4, 3),
    (1, 6, 4, 4, 1),
    (3, 8, 5, 3, 4),
    (3, 6, 2, 7, 6),
    (3, 4, 1, 1, 4),
    (1, 16, 8, 8, 8),
    (1, 64, 16, 16, 32),
]
DTYPES = [np.float64, np.float32]
SUBSETS = list(itertools.product([True, False], repeat=3))


# -- group_norm -------------------------------------------------------------------


class TestGroupNormParity:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("shape", GN_SHAPES)
    def test_output_and_every_gradient_bitwise(self, shape, dtype):
        n, c, h, w, groups = shape
        rng = np.random.default_rng(hash(shape) % 2**31)
        arrays = gn_case(rng, dtype, n, c, h, w)
        seed = rng.normal(size=(n, c, h, w)).astype(dtype)
        grads = assert_parity(*gn_pair(groups), arrays, (True,) * 3, seed)
        assert all(g is not None for g in grads)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("n", [1, 3])
    def test_without_affine(self, n, dtype):
        rng = np.random.default_rng(n)
        arrays = gn_case(rng, dtype, n, 8, 3, 5, affine=False)
        seed = rng.normal(size=(n, 8, 3, 5)).astype(dtype)
        assert_parity(*gn_pair(4), arrays, (True, False, False), seed)

    @pytest.mark.parametrize("requires", SUBSETS)
    @pytest.mark.parametrize("n", [1, 3])
    def test_each_subset_requiring_grad(self, n, requires):
        rng = np.random.default_rng(7)
        arrays = gn_case(rng, np.float64, n, 6, 4, 3)
        seed = rng.normal(size=(n, 6, 4, 3))
        grads = assert_parity(*gn_pair(3), arrays, requires, seed)
        for g, r in zip(grads, requires):
            assert (g is not None) == r

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_no_grad_builds_no_graph_and_the_same_output(self, dtype):
        rng = np.random.default_rng(11)
        arrays = gn_case(rng, dtype, 3, 6, 4, 4)
        fused, composite = gn_pair(3)
        tensors = [Tensor(a, requires_grad=True) for a in arrays]
        with no_grad():
            out = fused(*tensors)
            want = composite(*tensors)
        assert not out.requires_grad and out._backward_fn is None
        assert out._parents == ()
        assert_same(out.data, want.data)

    def test_module_is_one_node_over_its_three_parents(self):
        layer = GroupNorm(4, 8)
        x = Tensor(np.random.default_rng(0).normal(size=(2, 8, 3, 3)),
                   requires_grad=True)
        out = layer(x)
        assert out._parents == (x, layer.weight, layer.bias)

    def test_mixed_dtypes_follow_the_composite(self):
        """float32 activations under float64 scale and shift: promotion
        and the casts back are the composite's."""
        rng = np.random.default_rng(5)
        x, gamma, beta = gn_case(rng, np.float64, 2, 6, 3, 3)
        arrays = [x.astype(np.float32), gamma, beta]
        seed = rng.normal(size=x.shape)
        assert_parity(*gn_pair(3), arrays, (True,) * 3, seed)

    def test_random_shapes(self):
        pytest.importorskip("hypothesis")
        from hypothesis import given, settings
        from hypothesis import strategies as st

        @st.composite
        def cases(draw):
            groups = draw(st.integers(1, 4))
            size = draw(st.integers(1, 4))
            return (
                draw(st.integers(1, 4)), groups * size,
                draw(st.integers(1, 6)), draw(st.integers(1, 6)), groups,
                draw(st.sampled_from(DTYPES)), draw(st.integers(0, 2**31)),
            )

        @settings(deadline=None, max_examples=60)
        @given(cases())
        def check(case):
            n, c, h, w, groups, dtype, seed_int = case
            rng = np.random.default_rng(seed_int)
            arrays = gn_case(rng, dtype, n, c, h, w)
            seed = rng.normal(size=(n, c, h, w)).astype(dtype)
            assert_parity(*gn_pair(groups), arrays, (True,) * 3, seed)

        check()


# -- linear -------------------------------------------------------------------------


def linear_case(rng, dtype, n, fan_in, fan_out):
    return [
        rng.normal(size=(n, fan_in)).astype(dtype),
        rng.normal(size=(fan_in, fan_out)).astype(dtype),
        rng.normal(size=(fan_out,)).astype(dtype),
    ]


class TestLinearParity:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize(
        "dims", [(1, 5, 3), (3, 5, 1), (16, 256, 256), (1, 1, 4), (3, 7, 10)]
    )
    def test_output_and_every_gradient_bitwise(self, dims, dtype):
        rng = np.random.default_rng(sum(dims))
        arrays = linear_case(rng, dtype, *dims)
        seed = rng.normal(size=(dims[0], dims[2])).astype(dtype)
        assert_parity(linear, composite_linear, arrays, (True,) * 3, seed)

    @pytest.mark.parametrize("requires", SUBSETS)
    def test_each_subset_requiring_grad(self, requires):
        rng = np.random.default_rng(3)
        arrays = linear_case(rng, np.float64, 3, 6, 4)
        seed = rng.normal(size=(3, 4))
        grads = assert_parity(linear, composite_linear, arrays, requires, seed)
        for g, r in zip(grads, requires):
            assert (g is not None) == r

    def test_no_grad_builds_no_graph_and_the_same_output(self):
        rng = np.random.default_rng(4)
        tensors = [
            Tensor(a, requires_grad=True)
            for a in linear_case(rng, np.float32, 3, 6, 4)
        ]
        with no_grad():
            out = linear(*tensors)
            want = composite_linear(*tensors)
        assert not out.requires_grad and out._parents == ()
        assert_same(out.data, want.data)

    def test_module_fuses_only_the_biased_2d_case(self):
        rng = np.random.default_rng(0)
        layer = Linear(6, 4, rng=rng)
        x = Tensor(rng.normal(size=(3, 6)), requires_grad=True)
        assert layer(x)._parents == (x, layer.weight, layer.bias)
        # > 2-D input and the bias-free layer keep their matmul node
        x3 = Tensor(rng.normal(size=(2, 3, 6)), requires_grad=True)
        want = composite_linear(x3, layer.weight, layer.bias)
        assert_same(layer(x3).data, want.data)
        bare = Linear(6, 4, bias=False, rng=rng)
        assert bare(x)._parents == (x, bare.weight)

    def test_rejects_other_ranks(self):
        with pytest.raises(ValueError):
            linear(np.zeros((2, 3, 4)), np.zeros((4, 5)), np.zeros(5))


# -- lazy parent reads survive fusion ------------------------------------------------


class TestLazyReads:
    """PB's weight inconsistency is the update landing between a packet's
    forward and its backward; the fused kernels must read the scale / the
    weight matrix when backward runs, as the composites do."""

    def test_group_norm_reads_the_scale_at_backward_time(self):
        rng = np.random.default_rng(21)
        arrays = gn_case(rng, np.float64, 2, 6, 4, 4)
        seed = rng.normal(size=(2, 6, 4, 4))

        def update(tensors):
            tensors[1].data = tensors[1].data * 1.5 + 0.25

        plain = assert_parity(*gn_pair(3), arrays, (True,) * 3, seed)
        moved = assert_parity(*gn_pair(3), arrays, (True,) * 3, seed, update)
        assert not np.array_equal(plain[0], moved[0])  # x.grad saw new gamma
        assert_same(plain[1], moved[1])  # gamma.grad uses forward captures

    def test_linear_reads_the_weight_at_backward_time(self):
        rng = np.random.default_rng(22)
        arrays = linear_case(rng, np.float64, 3, 6, 4)
        seed = rng.normal(size=(3, 4))

        def update(tensors):
            tensors[1].data = tensors[1].data - 0.1

        plain = assert_parity(linear, composite_linear, arrays, (True,) * 3, seed)
        moved = assert_parity(
            linear, composite_linear, arrays, (True,) * 3, seed, update
        )
        assert not np.array_equal(plain[0], moved[0])
        assert_same(plain[1], moved[1])


# -- gradient ownership ----------------------------------------------------------------


def _is_grad(node: ast.AST) -> bool:
    while isinstance(node, ast.Subscript):
        node = node.value
    return isinstance(node, ast.Attribute) and node.attr == "grad"


def _in_place_grad_writes(tree: ast.AST) -> list[int]:
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.AugAssign) and _is_grad(node.target):
            lines.append(node.lineno)
        elif isinstance(node, ast.Assign):
            lines += [
                node.lineno for t in node.targets
                if isinstance(t, ast.Subscript) and _is_grad(t)
            ]
        elif isinstance(node, ast.Call):
            name = getattr(node.func, "attr", getattr(node.func, "id", ""))
            if any(k.arg == "out" and _is_grad(k.value) for k in node.keywords):
                lines.append(node.lineno)
            elif name == "copyto" and node.args and _is_grad(node.args[0]):
                lines.append(node.lineno)
    return lines


class TestOwnership:
    def test_seed_is_copied_so_retained_gradients_outlive_it(self):
        """The worker seeds backward with views of a ring slot it releases
        right after; every ``.grad`` the walk leaves behind must be its own."""
        rng = np.random.default_rng(31)
        conv = Conv2d(3, 4, 3, padding=1, rng=rng)
        norm = GroupNorm(2, 4)
        x = Tensor(rng.normal(size=(1, 3, 6, 6)), requires_grad=True)
        out = norm(conv(x)) + conv(x)  # the add hands both operands its seed
        seed = rng.normal(size=out.shape)
        backward_multi([(out, seed)])
        holders = [x, conv.weight, conv.bias, norm.weight, norm.bias, out]
        kept = [t.grad.copy() for t in holders]
        seed[...] = np.nan
        for t, want in zip(holders, kept):
            assert not np.shares_memory(t.grad, seed)
            assert_same(t.grad, want)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("padding", [0, 1])
    def test_no_scratch_buffer_escapes_a_conv_backward(self, padding, dtype):
        """Two packets through one layer: the second backward reuses the
        cached column / per-sample buffers, and must not reach anything
        the first one left behind — no retained gradient shares memory
        with a scratch buffer."""
        rng = np.random.default_rng(32 + padding)

        def normal(*shape):
            return rng.normal(size=shape).astype(dtype)

        for n in (1, 2):
            weight = Tensor(normal(4, 3, 3, 3), requires_grad=True)
            bias = Tensor(normal(4), requires_grad=True)
            packets = []
            for _ in range(2):
                x = Tensor(normal(n, 3, 6, 6), requires_grad=True)
                packets.append((x, conv2d(x, weight, bias, padding=padding)))
            (x1, y1), (x2, y2) = packets
            y1.backward(normal(*y1.shape))
            first = [x1.grad, weight.grad, bias.grad]
            snapshot = [g.copy() for g in first]
            weight.grad = bias.grad = None
            y2.backward(normal(*y2.shape))
            for g, want in zip(first, snapshot):
                assert_same(g, want)
            assert not np.array_equal(x1.grad, x2.grad)
            retained = first + [x2.grad, weight.grad, bias.grad]
            scratch = list(ops_conv._scratch._buffers.values())
            assert scratch  # the backward did go through the cache
            for g in retained:
                assert g.dtype == dtype
                assert not any(np.shares_memory(g, b) for b in scratch)

    def test_nothing_in_src_writes_a_grad_in_place(self):
        """Adoption aliases gradients across tensors (an ``add`` hands
        both operands the same array); an in-place write to one ``.grad``
        would be a write to all of them."""
        root = Path(repro.__file__).parent
        offenders = {}
        for path in sorted(root.rglob("*.py")):
            lines = _in_place_grad_writes(ast.parse(path.read_text()))
            if lines:
                offenders[str(path.relative_to(root))] = lines
        assert not offenders, f"in-place writes to a .grad: {offenders}"

    def test_the_guard_sees_what_it_is_meant_to(self):
        bad = (
            "p.grad += g\n"
            "p.grad[0] = g\n"
            "np.add(a, b, out=p.grad)\n"
            "np.copyto(p.grad, g)\n"
            "p.grad = p.grad + g\n"
        )
        assert _in_place_grad_writes(ast.parse(bad)) == [1, 2, 3, 4]


# -- relu: one fmax pass in place of the np.where select --------------------------


class TestReluKernel:
    SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan, 1.5, -2.5, 5e-324]

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("shape", [(8, 64, 16, 16), (1, 64, 16, 16), (16,)])
    def test_forward_bits_equal_the_where_select(self, shape, dtype):
        """+0, -0, +-inf and NaN (plus ordinary values and a denormal)
        land bit for bit where ``np.where(a > 0, a, 0.0)`` put them: -0
        and NaN become +0.  Checked contiguous and strided."""
        rng = np.random.default_rng(61)
        data = rng.choice(np.array(self.SPECIAL, dtype=dtype), size=shape)
        data.reshape(-1)[: len(self.SPECIAL)] = self.SPECIAL  # each one once
        for a in (data, data[..., ::2]):
            want = np.where(a > 0, a, 0.0)
            got = relu(Tensor(a)).data
            assert got.dtype == want.dtype == dtype
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_backward_masks_by_the_forward_sign(self, dtype):
        a = np.array(self.SPECIAL, dtype=dtype)
        x = Tensor(a.copy(), requires_grad=True)
        out = relu(x)
        out.backward(np.full(a.shape, 3.0, dtype=dtype))
        assert_same(x.grad, np.where(a > 0, 3.0, 0.0).astype(dtype))


# -- conv2d: pad, one-sample weight gradient, unread input gradient ------------


class TestConvShortcuts:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("pad", [1, 2])
    def test_canvas_pad_is_np_pad(self, pad, dtype):
        data = np.random.default_rng(pad).normal(size=(2, 3, 4, 5)).astype(dtype)
        want = np.pad(data, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
        assert_same(zero_pad2d(data, pad), want)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("padding", [0, 1])
    def test_one_sample_matches_row_zero_of_a_batch(self, padding, stride, dtype):
        """The N == 1 weight gradient comes straight from one 2-D GEMM;
        the batched path sums per-sample GEMMs.  A batch whose second
        sample (and seed row) is zero adds exact zeros, so the two must
        agree bit for bit."""
        rng = np.random.default_rng(41 + padding + 2 * stride)
        sample = rng.normal(size=(1, 8, 8, 8)).astype(dtype)
        weight = rng.normal(size=(16, 8, 3, 3)).astype(dtype)
        bias = rng.normal(size=(16,)).astype(dtype)
        grads = []
        for n in (1, 2):
            x_data = np.zeros((n,) + sample.shape[1:], dtype=dtype)
            x_data[0] = sample[0]
            x = Tensor(x_data, requires_grad=True)
            w = Tensor(weight.copy(), requires_grad=True)
            b = Tensor(bias.copy(), requires_grad=True)
            out = conv2d(x, w, b, stride=stride, padding=padding)
            seed = np.zeros(out.shape, dtype=dtype)
            seed[0] = np.random.default_rng(5).normal(size=out.shape[1:])
            out.backward(seed)
            grads.append((w.grad, b.grad, x.grad[:1]))
        for one, two in zip(*grads):
            assert_same(one, two)

    def test_weight_only_backward_never_builds_the_input_gradient(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("col2im ran for an input nobody differentiates")

        monkeypatch.setattr(ops_conv, "col2im", boom)
        rng = np.random.default_rng(51)
        conv = Conv2d(3, 4, 3, padding=1, rng=rng)
        image = Tensor(rng.normal(size=(2, 3, 6, 6)))  # requires_grad=False
        out = conv(image)
        out.backward(rng.normal(size=out.shape))
        assert conv.weight.grad is not None and conv.bias.grad is not None
        assert image.grad is None

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("padding", [0, 1])
    def test_parameter_gradients_ignore_whether_the_input_wants_one(self, padding, n):
        rng = np.random.default_rng(52)
        x_data = rng.normal(size=(n, 3, 6, 6))
        weight = rng.normal(size=(4, 3, 3, 3))
        bias = rng.normal(size=(4,))
        seed = None
        grads = []
        for wants in (True, False):
            x = Tensor(x_data.copy(), requires_grad=wants)
            w = Tensor(weight.copy(), requires_grad=True)
            b = Tensor(bias.copy(), requires_grad=True)
            out = conv2d(x, w, b, padding=padding)
            if seed is None:
                seed = rng.normal(size=out.shape)
            out.backward(seed)
            grads.append((w.grad, b.grad))
            assert (x.grad is not None) == wants
        for with_x, without_x in zip(*grads):
            assert_same(with_x, without_x)


# -- col2im: one scatter that crops the padding ------------------------------------


class TestCol2imScatter:
    SPECIAL = [0.0, -0.0, np.inf, -np.inf, np.nan]

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("padding", [0, 1, 2])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize("c", [1, 3, 16])
    @pytest.mark.parametrize("n", [1, 3])
    def test_bits_equal_the_slice_add_loop(self, n, c, k, stride, padding, dtype):
        """float64 (the bincount scatter) and float32 (the loop) both land
        every column entry, specials included, bit for bit where the
        padded slice-add loop and its crop put it.  6 x 7 planes: at
        stride 2 some rows and columns receive nothing."""
        h, w = 6, 7
        oh = (h + 2 * padding - k) // stride + 1
        ow = (w + 2 * padding - k) // stride + 1
        rng = np.random.default_rng([n, c, k, stride, padding])
        cols = rng.normal(size=(n, c * k * k, oh * ow)).astype(dtype)
        flat = cols.reshape(-1)
        where = rng.choice(flat.size, size=max(len(self.SPECIAL), flat.size // 10),
                           replace=False)
        flat[where] = rng.choice(np.array(self.SPECIAL, dtype=dtype), where.size)
        flat[where[: len(self.SPECIAL)]] = self.SPECIAL  # each one at least once
        planted = cols.copy()
        with np.errstate(invalid="ignore"):
            want = loop_col2im(cols, (n, c, h, w), k, k, stride, padding)
            got = ops_conv.col2im(cols, (n, c, h, w), k, k, stride, padding)
        assert got.shape == want.shape == (n, c, h, w)
        assert got.dtype == want.dtype == dtype
        assert got.tobytes() == want.tobytes()
        assert cols.tobytes() == planted.tobytes()  # the input is untouched
        assert not np.shares_memory(got, cols)

    def test_float64_index_is_cached_read_only_and_bounded(self):
        index = ops_conv._scatter_index(3, 6, 7, 3, 3, 2, 1)
        assert index is ops_conv._scatter_index(3, 6, 7, 3, 3, 2, 1)
        assert not index.flags.writeable
        # (c, kh, kw, oh, ow) of one sample, whatever the batch size
        assert index.shape == (3 * 3 * 3 * 3 * 4,)
        assert ops_conv._scatter_index.cache_info().maxsize is not None


# -- stage 0: its input is data, so no input gradient ----------------------------


class TestStageZeroInputGradient:
    def test_only_stage_one_scatters_an_input_gradient(self, monkeypatch):
        """A pb run over two conv stages: stage 1's conv builds the input
        gradient stage 0 needs, stage 0's conv builds none."""
        from repro.models.simple import small_cnn
        from repro.pipeline.executor import PipelineExecutor

        channels = []
        col2im = ops_conv.col2im

        def counted(cols, x_shape, *args):
            channels.append(x_shape[1])
            return col2im(cols, x_shape, *args)

        monkeypatch.setattr(ops_conv, "col2im", counted)
        model = small_cnn(num_classes=4, widths=(4, 8), seed=2)
        ex = PipelineExecutor(model, lr=0.05, momentum=0.9, mode="pb")
        rng = np.random.default_rng(3)
        n = 6
        ex.train(rng.normal(size=(n, 3, 8, 8)), rng.integers(0, 4, size=n))
        assert channels == [4] * n  # stage 1's input: 4 channels, once each

        stage0 = ex.stages[0]
        out = stage0.forward(0, [rng.normal(size=(1, 3, 8, 8))])
        assert stage0.backward(0, [np.ones_like(out[0])]) == [None]
        assert all(p.grad is not None for p in stage0.params)
