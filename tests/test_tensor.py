"""Engine tests: primitive semantics, backward correctness, serialization."""

import threading

import numpy as np
import pytest
from hypothesis import given, strategies as st

import volab.tensor as T
from volab.labels import DataError
from volab.nn import Mlp
from volab.tensor import NumericError, ShapeError, Tensor, backward
from oracles import (
    as_float64,
    attention_loops,
    conv3d_loops,
    grad_check,
    pool3d_loops,
)


def t64(arr, grad=True):
    return Tensor(np.asarray(arr, dtype=np.float64), requires_grad=grad)


class TestForwardSemantics:
    def test_softmax_two_equal_logits(self):
        out = T.softmax(Tensor([3.0, 3.0]))
        np.testing.assert_allclose(out.data, [0.5, 0.5], atol=1e-7)

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(4, 7)))
        out = T.softmax(x, axis=-1)
        np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(4), rtol=1e-6)

    def test_softmax_shift_invariance(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(3, 5))
        a = T.softmax(Tensor(x)).data
        b = T.softmax(Tensor(x + 100.0)).data
        np.testing.assert_allclose(a, b, atol=1e-6)

    def test_matmul_identity(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(5, 5))
        out = T.matmul(Tensor(a), Tensor(np.eye(5)))
        np.testing.assert_allclose(out.data, a, rtol=1e-6)

    def test_matmul_batch_mismatch_raises(self):
        a = Tensor(np.zeros((2, 3, 4)))
        b = Tensor(np.zeros((3, 4, 5)))
        with pytest.raises(ShapeError):
            T.matmul(a, b)

    def test_layer_norm_zero_mean_unit_var(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(2.0, 3.0, size=(6, 32)))
        gamma = Tensor(np.ones(32))
        beta = Tensor(np.zeros(32))
        out = T.layer_norm(x, gamma, beta).data
        np.testing.assert_allclose(out.mean(axis=-1), np.zeros(6), atol=1e-5)
        np.testing.assert_allclose(out.var(axis=-1), np.ones(6), rtol=1e-3)

    def test_gelu_fixed_points(self):
        out = T.gelu(Tensor([0.0, 100.0, -100.0]))
        np.testing.assert_allclose(out.data, [0.0, 100.0, 0.0], atol=1e-6)

    def test_interior_broadcast_rejected(self):
        a = Tensor(np.zeros((2, 1, 3)))
        b = Tensor(np.zeros((2, 4, 3)))
        with pytest.raises(ShapeError):
            T.add(a, b)

    def test_suffix_broadcast_bias(self):
        x = Tensor(np.ones((4, 3)))
        b = Tensor(np.arange(3.0))
        out = T.add(x, b)
        np.testing.assert_allclose(out.data, 1.0 + np.arange(3.0)[None].repeat(4, 0))

    def test_nonfinite_output_raises(self):
        big = Tensor(np.array([1e300], dtype=np.float64))
        with np.errstate(over="ignore"), pytest.raises(NumericError):
            T.mul(big, big)

    @given(st.integers(2, 6), st.integers(2, 6))
    def test_softmax_rows_property(self, rows, cols):
        rng = np.random.default_rng(rows * 31 + cols)
        out = T.softmax(Tensor(rng.normal(size=(rows, cols))), axis=-1)
        np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(rows), rtol=1e-5)
        assert (out.data >= 0).all()


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = t64(np.arange(12.0).reshape(3, 4))
        backward(T.tsum(x))
        np.testing.assert_allclose(x.grad, np.ones((3, 4)))

    def test_square_gradient(self):
        x = t64([3.0])
        backward(T.tsum(T.mul(x, x)))
        np.testing.assert_allclose(x.grad, [6.0])

    def test_fanout_accumulates(self):
        x = t64([2.0])
        y = T.add(x, x)
        backward(T.tsum(y))
        np.testing.assert_allclose(x.grad, [2.0])

    def test_grad_accumulates_across_calls(self):
        x = t64([1.0, 2.0])
        backward(T.tsum(x))
        backward(T.tsum(x))
        np.testing.assert_allclose(x.grad, [2.0, 2.0])

    def test_non_scalar_backward_raises(self):
        x = t64([1.0, 2.0])
        with pytest.raises(ShapeError):
            backward(T.mul(x, x))

    def test_detached_output_raises(self):
        x = Tensor([1.0], requires_grad=False)
        with pytest.raises(ShapeError):
            backward(T.tsum(T.mul(x, x)))

    def test_tape_topological_and_unique(self):
        x = t64([1.0, 2.0])
        y = T.add(x, x)
        z = T.tsum(T.mul(y, y))
        nodes = T._topological_order(z)
        ids = [id(n) for n in nodes]
        assert len(ids) == len(set(ids))
        pos = {id(n.output): i for i, n in enumerate(nodes)}
        for i, node in enumerate(nodes):
            for parent in node.inputs:
                if parent.node is not None:
                    assert pos[id(parent)] < i

    def test_composite_matches_finite_difference(self):
        def f(x, w):
            return T.mean(T.relu(T.matmul(x, w)))

        rng = np.random.default_rng(7)
        err = grad_check(f, [rng.normal(size=(3, 4)) + 0.3,
                             rng.normal(size=(4, 2)) + 0.3])
        assert err < 1e-6


def _probe(r, shape):
    # fixed projection constant so reductions exercise non-uniform cotangents
    return Tensor(r.normal(size=shape))


def _case_softmax(r):
    c = _probe(r, (3, 5))
    return lambda x: T.tsum(T.mul(T.softmax(x, axis=-1), c)), [r.normal(size=(3, 5))]


def _case_transpose(r):
    c = _probe(r, (3, 2, 4))
    return lambda x: T.tsum(T.mul(T.transpose(x, (1, 0, 2)), c)), [r.normal(size=(2, 3, 4))]


def _case_concat(r):
    c = _probe(r, (2, 7))
    return (lambda a, b: T.tsum(T.mul(T.concat([a, b], axis=1), c)),
            [r.normal(size=(2, 3)), r.normal(size=(2, 4))])


def _case_roll(r):
    c = _probe(r, (4, 5))
    return lambda x: T.tsum(T.mul(T.roll(x, (1, 2), (0, 1)), c)), [r.normal(size=(4, 5))]


def _case_take(r):
    c = _probe(r, (4, 3))
    idx = np.array([0, 2, 2, 1])
    return lambda x: T.tsum(T.mul(T.take(x, idx), c)), [r.normal(size=(5, 3))]


def _case_expand(r):
    c = _probe(r, (3, 2, 4))
    return lambda x: T.tsum(T.mul(T.expand_batch(x, 3), c)), [r.normal(size=(2, 4))]


def _case_mean_axis(r):
    c = _probe(r, (3, 5))
    return lambda x: T.tsum(T.mul(T.mean(x, axis=1), c)), [r.normal(size=(3, 4, 5))]


def _case_sum_axes(r):
    c = _probe(r, (4,))
    return lambda x: T.tsum(T.mul(T.tsum(x, axis=(0, 2)), c)), [r.normal(size=(3, 4, 5))]


def _case_batch_norm(r):
    # the training form: x's own batch statistics, differentiated through
    c = _probe(r, (4, 3, 5))

    def f(x, g, b):
        stats = (x.data.mean(axis=(0, 2)), x.data.var(axis=(0, 2)))
        return T.tsum(T.mul(T.batch_norm(x, g, b, stats, frozen=False), c))
    return f, [r.normal(size=(4, 3, 5)), r.normal(size=3) + 1.5, r.normal(size=3)]


def _case_pool_overlap(r):
    # stride < window along two axes: each input feeds several windows
    c = _probe(r, (2, 2, 3, 2, 3))
    return (lambda x: T.tsum(T.mul(T.pool3d(x, (2, 2, 2), (1, 2, 1)), c)),
            [r.normal(size=(2, 2, 4, 4, 4))])


def _case_conv_stride1(x_shape, w_shape, padding):
    # stride 1 with 2+ input channels takes the shifted-GEMM path, with 1
    # the im2col path; padding at or above the kernel extent gives an
    # output larger than the input
    def build(r):
        out = tuple(s + 2 * p - k + 1 for s, p, k in
                    zip(x_shape[2:], T._triple(padding, "padding"),
                        w_shape[2:]))
        c = _probe(r, (x_shape[0], w_shape[0]) + out)
        args = [r.normal(size=x_shape), r.normal(size=w_shape)]
        return (lambda x, w: T.tsum(T.mul(T.conv3d(x, w, padding=padding),
                                          c)), args)
    return build


PRIMITIVE_CASES = [
    ("add", lambda r: (lambda a, b: T.tsum(T.add(a, b)), [r.normal(size=(3, 4)), r.normal(size=(3, 4))])),
    ("add_suffix", lambda r: (lambda a, b: T.tsum(T.add(a, b)), [r.normal(size=(2, 3, 4)), r.normal(size=(4,))])),
    ("mul", lambda r: (lambda a, b: T.mean(T.mul(a, b)), [r.normal(size=(5, 2)), r.normal(size=(5, 2))])),
    ("matmul", lambda r: (lambda a, b: T.tsum(T.matmul(a, b)), [r.normal(size=(3, 4)), r.normal(size=(4, 5))])),
    ("matmul_batched", lambda r: (lambda a, b: T.tsum(T.matmul(a, b)), [r.normal(size=(2, 3, 4)), r.normal(size=(2, 4, 2))])),
    ("matmul_stacked_by_2d", lambda r: (lambda a, b: T.tsum(T.matmul(a, b)), [r.normal(size=(2, 3, 4)), r.normal(size=(4, 5))])),
    ("softmax", _case_softmax),
    ("layer_norm", lambda r: (lambda x, g, b: T.tsum(T.layer_norm(x, g, b)), [r.normal(size=(4, 6)), r.normal(size=6), r.normal(size=6)])),
    ("relu", lambda r: (lambda x: T.tsum(T.relu(x)), [r.normal(size=(4, 4)) + 0.2])),
    ("gelu", lambda r: (lambda x: T.tsum(T.gelu(x)), [r.normal(size=(4, 4))])),
    ("sigmoid", lambda r: (lambda x: T.mean(T.sigmoid(x)), [r.normal(size=(3, 3))])),
    ("tanh", lambda r: (lambda x: T.mean(T.tanh(x)), [r.normal(size=(3, 3))])),
    ("reshape", lambda r: (lambda x: T.tsum(T.reshape(x, (2, 6))), [r.normal(size=(3, 4))])),
    ("transpose", _case_transpose),
    ("concat", _case_concat),
    ("slice", lambda r: (lambda x: T.tsum(T.narrow(x, 1, 1, 3)), [r.normal(size=(4, 6))])),
    ("roll", _case_roll),
    ("take", _case_take),
    ("expand_batch", _case_expand),
    ("mean_axis", _case_mean_axis),
    ("sum_axes", _case_sum_axes),
    ("batch_norm", _case_batch_norm),
    ("batch_norm_frozen", lambda r: (lambda x, g, b: T.tsum(T.batch_norm(x, g, b, (np.full(3, 0.2), np.full(3, 1.3)))), [r.normal(size=(4, 3, 5)), r.normal(size=3) + 1.5, r.normal(size=3)])),
    ("conv3d", lambda r: (lambda x, w: T.tsum(T.conv3d(x, w, stride=(1, 2, 1), padding=1)), [r.normal(size=(2, 2, 4, 5, 4)), r.normal(size=(3, 2, 3, 3, 3))])),
    ("conv3d_s1_pad0", _case_conv_stride1((2, 3, 4, 5, 3), (2, 3, 3, 3, 3), 0)),
    ("conv3d_s1_pad1", _case_conv_stride1((2, 3, 4, 5, 3), (3, 3, 3, 3, 3), 1)),
    ("conv3d_s1_pad_over_kernel", _case_conv_stride1((1, 2, 3, 2, 3), (2, 2, 2, 2, 2), (3, 2, 4))),
    ("conv3d_s1_anisotropic", _case_conv_stride1((2, 3, 4, 5, 4), (2, 3, 3, 2, 1), (1, 0, 2))),
    ("conv3d_s1_no_bias", _case_conv_stride1((2, 2, 4, 4, 4), (2, 2, 3, 3, 3), 1)),
    ("conv3d_s1_widening", _case_conv_stride1((2, 2, 4, 4, 4), (3, 2, 3, 3, 3), 1)),
    ("conv3d_s1_one_channel", _case_conv_stride1((2, 1, 4, 5, 3), (3, 1, 3, 3, 3), 1)),
    ("conv2d", lambda r: (lambda x, w: T.tsum(T.conv2d(x, w, stride=2, padding=1)), [r.normal(size=(2, 2, 6, 6)), r.normal(size=(3, 2, 3, 3))])),
    ("pool3d_max", lambda r: (lambda x: T.tsum(T.pool3d(x, 2, 2)), [r.normal(size=(2, 2, 4, 4, 4))])),
    ("pool3d_max_overlap", _case_pool_overlap),
    ("dropout_scaling", lambda r: (lambda x: T.tsum(T.dropout(x, 0.0, np.random.default_rng(0), training=True)), [r.normal(size=(3, 3))])),
]


@pytest.mark.parametrize("name,builder", PRIMITIVE_CASES, ids=[c[0] for c in PRIMITIVE_CASES])
def test_primitive_gradients(name, builder):
    # 64-bit central differences, eps 1e-5, against every coordinate
    rng = np.random.default_rng(abs(hash(name)) % 2**31)
    f, args = builder(rng)
    assert grad_check(f, [np.asarray(a) for a in args], eps=1e-5) < 1e-4


class TestConvPoolOracles:
    def test_conv3d_identity_kernel(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(1, 1, 4, 4, 4)).astype(np.float32)
        w = np.zeros((1, 1, 3, 3, 3), dtype=np.float32)
        w[0, 0, 1, 1, 1] = 1.0
        out = T.conv3d(Tensor(x), Tensor(w), padding=1)
        np.testing.assert_allclose(out.data, x, atol=1e-6)

    def test_conv3d_matches_loop_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            x = rng.normal(size=(2, 2, 5, 4, 6))
            w = rng.normal(size=(3, 2, 3, 2, 3))
            got = T.conv3d(t64(x, grad=False), t64(w, grad=False),
                           stride=(2, 1, 2), padding=(1, 0, 1)).data
            want = conv3d_loops(x, w, stride=(2, 1, 2), padding=(1, 0, 1))
            np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9)

    @pytest.mark.parametrize("c,o,kernel,padding", [
        (2, 1, (3, 3, 3), 0),
        (2, 5, (3, 3, 3), 1),
        (4, 2, (2, 3, 1), (1, 0, 2)),
        (4, 7, (3, 1, 2), 3),
        (8, 3, (3, 3, 3), 2),
        (8, 12, (1, 1, 1), 0),
    ])
    def test_stride1_conv3d_matches_loop_oracle(self, c, o, kernel, padding):
        rng = np.random.default_rng(c * 100 + o)
        x = rng.normal(size=(2, c, 4, 5, 3))
        w = rng.normal(size=(o, c) + kernel)
        got = T.conv3d(t64(x, grad=False), t64(w, grad=False),
                       padding=padding).data
        want = conv3d_loops(x, w, padding=T._triple(padding, "padding"))
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9)

    @pytest.mark.parametrize("c,o,padding", [(2, 6, (1, 1)), (8, 4, (0, 2))])
    def test_stride1_conv2d_matches_loop_oracle(self, c, o, padding):
        # kd = 1: the depth axis conv2d adds is one plane of the grid
        rng = np.random.default_rng(c * 100 + o)
        x = rng.normal(size=(2, c, 6, 5))
        w = rng.normal(size=(o, c, 3, 2))
        got = T.conv2d(t64(x, grad=False), t64(w, grad=False),
                       padding=padding).data
        want = conv3d_loops(x[:, :, None], w[:, :, None],
                            padding=(0,) + padding)[:, :, 0]
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9)

    def test_pool3d_matches_loop_oracle(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(2, 3, 6, 5, 4))
        got = T.pool3d(t64(x, grad=False), (2, 2, 2), (2, 1, 2)).data
        want = pool3d_loops(x, "max", (2, 2, 2), (2, 1, 2))
        np.testing.assert_allclose(got, want, rtol=1e-9)

    def test_pool_window_too_large_raises(self):
        with pytest.raises(ShapeError):
            T.pool3d(Tensor(np.zeros((1, 1, 2, 2, 2))), 3, 1)

    def test_conv_channel_mismatch_raises(self):
        with pytest.raises(ShapeError):
            T.conv3d(Tensor(np.zeros((1, 2, 4, 4, 4))),
                     Tensor(np.zeros((1, 3, 3, 3, 3))))

    def test_attention_composition_matches_loops(self):
        # softmax(q k^T / sqrt(dh)) v assembled from primitives
        rng = np.random.default_rng(14)
        q = rng.normal(size=(6, 4))
        k = rng.normal(size=(6, 4))
        v = rng.normal(size=(6, 4))
        scores = T.mul(T.matmul(t64(q, False), T.transpose(t64(k, False), (1, 0))),
                       t64(1.0 / np.sqrt(4), False))
        out = T.matmul(T.softmax(scores, axis=-1), t64(v, False))
        np.testing.assert_allclose(out.data, attention_loops(q, k, v), atol=1e-10)


class TestConvGradientSkipping:
    @pytest.mark.parametrize("stride,out_ch", [(1, 3), (1, 4), ((1, 2, 1), 4)],
                             ids=["s1", "s1_widening", "strided"])
    def test_weight_gradient_unchanged_without_input_gradient(self, stride,
                                                              out_ch):
        rng = np.random.default_rng(15)
        x = rng.normal(size=(2, 3, 5, 4, 6))
        w = rng.normal(size=(out_ch, 3, 3, 3, 3))
        c = Tensor(rng.normal(size=(2, out_ch, 5, 2 if stride != 1 else 4, 6)))
        grads = []
        for x_grad in (True, False):
            xt, wt = t64(x, grad=x_grad), t64(w)
            backward(T.tsum(T.mul(T.conv3d(xt, wt, stride=stride, padding=1),
                                  c)))
            assert (xt.grad is not None) == x_grad
            grads.append(wt.grad)
        assert np.array_equal(grads[0], grads[1])

    def test_stride1_tape_keeps_padded_input_not_columns(self):
        rng = np.random.default_rng(17)
        xt = t64(rng.normal(size=(2, 4, 6, 6, 6)))
        out = T.conv3d(xt, t64(rng.normal(size=(5, 4, 3, 3, 3))), padding=1)
        padded_bytes = 2 * 4 * 8 ** 3 * 8
        held = [cell.cell_contents for cell in out.node.vjp.__closure__]
        sizes = [a.nbytes for a in held if isinstance(a, np.ndarray)]
        assert sizes and max(sizes) <= padded_bytes, sizes

    def test_frozen_weights_get_no_gradient(self):
        rng = np.random.default_rng(16)
        xt = t64(rng.normal(size=(1, 2, 4, 4, 4)))
        wt = t64(rng.normal(size=(3, 2, 3, 3, 3)), grad=False)
        out = T.conv3d(xt, wt, padding=1)
        gx, gw = out.node.vjp(np.ones(out.shape))
        assert gw is None and gx.shape == xt.shape


def _held_arrays(out):
    """The arrays a node's VJP closure keeps alive."""
    cells = [cell.cell_contents for cell in out.node.vjp.__closure__]
    return [a for a in cells if isinstance(a, np.ndarray)]


class TestTapeKeepsInputs:
    """A conv3d, normalization or pool node keeps its inputs (a conv its
    padded input) and per-channel statistics, and nothing activation-sized
    that those inputs determine."""

    @pytest.mark.parametrize("x_shape,w_shape,stride,padding", [
        ((2, 1, 6, 6, 6), (5, 1, 3, 3, 3), 1, 1),
        ((2, 4, 6, 6, 6), (5, 4, 3, 3, 3), 2, 1),
        ((2, 4, 6, 6, 6), (5, 4, 1, 1, 1), 2, 0),
    ], ids=["one_channel_stem", "strided", "strided_1x1_unpadded"])
    def test_im2col_conv_keeps_padded_input_not_columns(
            self, x_shape, w_shape, stride, padding):
        rng = np.random.default_rng(18)
        xt, wt = t64(rng.normal(size=x_shape)), t64(rng.normal(size=w_shape))
        out = T.conv3d(xt, wt, stride=stride, padding=padding)
        padded = x_shape[:2] + tuple(s + 2 * padding for s in x_shape[2:])
        held = _held_arrays(out)
        assert all(a.size <= wt.size or a.shape == padded for a in held), \
            [a.shape for a in held]
        if padding == 0:
            assert any(a is xt.data for a in held)

    @pytest.mark.parametrize("op", ["batch_norm", "batch_norm_frozen",
                                    "layer_norm"])
    def test_normalization_keeps_no_normalized_copy(self, op):
        rng = np.random.default_rng(19)
        xt = t64(rng.normal(size=(3, 4, 5, 6)))
        features = 6 if op == "layer_norm" else 4
        gamma, beta = t64(np.ones(features)), t64(np.zeros(features))
        if op == "layer_norm":
            out = T.layer_norm(xt, gamma, beta)
            stats_size = 3 * 4 * 5  # a mean and a scale per row
        else:
            frozen = op == "batch_norm_frozen"
            stats = ((np.zeros(4), np.ones(4)) if frozen
                     else (xt.data.mean(axis=(0, 2, 3)),
                           xt.data.var(axis=(0, 2, 3))))
            out = T.batch_norm(xt, gamma, beta, stats, frozen=frozen)
            stats_size = features
        sizes = [a.size for a in _held_arrays(out)]
        assert sizes and max(sizes) <= stats_size, sizes

    @pytest.mark.parametrize("window,stride", [(2, None), (3, 2)],
                             ids=["tiling", "overlapping"])
    def test_max_pool_keeps_no_window_copy(self, window, stride):
        rng = np.random.default_rng(20)
        xt = t64(rng.normal(size=(2, 3, 7, 7, 7)))
        out = T.pool3d(xt, window, stride)
        held = _held_arrays(out)
        assert all(a.size <= out.size for a in held), [a.shape for a in held]


class TestGradientOnlyWhereRequired:
    """A VJP computes a gradient only for an input that requires one."""

    @pytest.mark.parametrize("op", [T.add, T.sub, T.mul])
    def test_binary_vjp_skips_constant_operand(self, op):
        rng = np.random.default_rng(21)
        a, b = t64(rng.normal(size=(2, 3))), t64(rng.normal(size=3), False)
        ga, gb = op(a, b).node.vjp(np.ones((2, 3)))
        assert ga.shape == (2, 3) and gb is None
        ga, gb = op(b, a).node.vjp(np.ones((2, 3)))
        assert ga is None and gb.shape == (2, 3)

    def test_normalization_vjp_skips_frozen_scale_and_shift(self):
        rng = np.random.default_rng(22)
        xt = t64(rng.normal(size=(3, 6)))
        out = T.layer_norm(xt, t64(np.ones(6), False), t64(np.zeros(6), False))
        gx, ggamma, gbeta = out.node.vjp(np.ones((3, 6)))
        assert gx.shape == (3, 6) and ggamma is None and gbeta is None


class _CountingNode(T.Node):
    made = 0

    def __init__(self, *args):
        type(self).made += 1
        super().__init__(*args)


def _mlp(seed):
    return as_float64(Mlp(np.random.default_rng(seed), 3, 5))


class TestFrozen:
    """``Module.frozen()`` is the one way to run a model off the tape: a
    primitive records a node if and only if an input requires a gradient."""

    def test_frozen_model_records_no_node(self, monkeypatch):
        monkeypatch.setattr(T, "Node", _CountingNode)
        _CountingNode.made = 0
        mlp = _mlp(0)
        x = Tensor(np.ones((2, 3)))
        with mlp.frozen():
            y = T.tsum(mlp(x))
        assert _CountingNode.made == 0
        assert y.node is None and not y.requires_grad
        with pytest.raises(ShapeError):
            backward(y)
        assert all(p.requires_grad for _, p in mlp.named_parameters())
        z = T.tsum(mlp(x))
        assert z.node is not None and _CountingNode.made > 0

    def test_input_gradient_alone_while_frozen(self):
        mlp = _mlp(1)
        x = t64(np.ones((2, 3)))
        with mlp.frozen():
            backward(T.tsum(mlp(x)))
        assert x.grad is not None
        assert all(p.grad is None for _, p in mlp.named_parameters())

    def test_restores_after_exception_and_nests(self):
        mlp = _mlp(2)
        params = [p for _, p in mlp.named_parameters()]
        mlp.fc2.bias.requires_grad = False  # a parameter frozen by hand
        flags = [p.requires_grad for p in params]
        assert len(params) == 4 and flags.count(True) == 3
        with pytest.raises(RuntimeError):
            with mlp.frozen():
                raise RuntimeError("leave the scope")
        assert [p.requires_grad for p in params] == flags
        with mlp.frozen():
            with mlp.frozen():
                pass
            assert not any(p.requires_grad for p in params)
        assert [p.requires_grad for p in params] == flags
        assert [p for _, p in mlp.named_parameters()] == params

    def test_freezing_one_model_leaves_another_training(self):
        frozen, training = _mlp(3), _mlp(4)
        x = Tensor(np.ones((2, 3)))
        inside, release = threading.Event(), threading.Event()
        seen = {}

        def eval_thread():
            with frozen.frozen():
                inside.set()
                release.wait(10)
                seen["eval"] = T.tsum(frozen(x)).node

        worker = threading.Thread(target=eval_thread)
        worker.start()
        try:
            assert inside.wait(10)
            backward(T.tsum(training(x)))
        finally:
            release.set()
            worker.join(10)
        assert seen["eval"] is None
        assert all(p.grad is not None for _, p in training.named_parameters())
        assert all(p.requires_grad for _, p in frozen.named_parameters())


class TestCheckpointFormat:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(15)
        params = {
            "stem.weight": rng.normal(size=(4, 1, 3, 3, 3)).astype(np.float32),
            "head.bias": rng.normal(size=(1,)).astype(np.float32),
        }
        path = tmp_path / "model.vlck"
        T.save_checkpoint(path, params)
        loaded = T.load_checkpoint(path)
        assert list(loaded) == list(params)
        for name in params:
            np.testing.assert_array_equal(loaded[name], params[name])

    def test_magic_and_layout(self, tmp_path):
        path = tmp_path / "m.vlck"
        T.save_checkpoint(path, {"w": np.ones((2, 3), dtype=np.float32)})
        blob = path.read_bytes()
        assert blob[:4] == b"VLCK"
        assert int.from_bytes(blob[4:8], "little") == 1
        assert int.from_bytes(blob[8:12], "little") == 1  # name length
        assert blob[12:13] == b"w"
        assert int.from_bytes(blob[13:17], "little") == 2  # rank
        dims = (int.from_bytes(blob[17:21], "little"),
                int.from_bytes(blob[21:25], "little"))
        assert dims == (2, 3)
        assert len(blob) == 25 + 4 * 6

    def test_bad_magic_raises(self, tmp_path):
        path = tmp_path / "junk.vlck"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ValueError):
            T.load_checkpoint(path)

    def test_truncated_or_padded_file_raises_data_error(self, tmp_path):
        path = tmp_path / "m.vlck"
        T.save_checkpoint(path, {"w": np.ones((2, 3), dtype=np.float32),
                                 "b": np.zeros(2, dtype=np.float32)})
        blob = path.read_bytes()
        cut = tmp_path / "cut.vlck"
        for n in range(len(blob)):
            cut.write_bytes(blob[:n])
            with pytest.raises(DataError):
                T.load_checkpoint(cut)
        cut.write_bytes(blob + b"\x00")
        with pytest.raises(DataError, match="trailing"):
            T.load_checkpoint(cut)

    def test_save_is_deterministic(self, tmp_path):
        params = {"a": np.arange(6, dtype=np.float32).reshape(2, 3),
                  "b": np.zeros(4, dtype=np.float32)}
        p1, p2 = tmp_path / "1.vlck", tmp_path / "2.vlck"
        T.save_checkpoint(p1, params)
        T.save_checkpoint(p2, params)
        assert p1.read_bytes() == p2.read_bytes()


class TestGradCheckHarness:
    def test_reports_deliberately_wrong_gradient(self):
        # a forward that lies about its vjp must be caught
        def bad(x):
            out = T._make("bad", x.data * 2.0, (x,), lambda g: (g * 3.0,))
            return T.tsum(out)

        err = grad_check(bad, [np.ones(3)])
        assert err > 0.3

    def test_sampled_subset(self):
        def f(x):
            return T.tsum(T.mul(x, x))

        err = grad_check(f, [np.linspace(0.5, 2.0, 64).reshape(8, 8)], sample=10)
        assert err < 1e-8
