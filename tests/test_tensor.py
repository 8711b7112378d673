"""Unit tests for the array primitives and their gradients."""

import math

import numpy as np
import pytest
from _oracles import depthwise_conv2d_loops, depthwise_conv2d_vjps_loops
from hypothesis import given, settings
from hypothesis import strategies as st

from convlora import tensor as T


def t64(arr, requires_grad=True):
    return T.Tensor(np.asarray(arr, dtype=np.float64), requires_grad=requires_grad)


# ---------------------------------------------------------------------------
# linear
# ---------------------------------------------------------------------------

class TestLinear:
    def test_identity_weight(self):
        y = T.linear(T.Tensor([[1.0, 2.0]]), T.Tensor(np.eye(2)), T.Tensor([0.0, 0.0]))
        np.testing.assert_allclose(y.data, [[1.0, 2.0]])

    def test_zero_weight_returns_bias(self):
        y = T.linear(T.Tensor([[1.0, 2.0]]), T.Tensor(np.zeros((2, 2))), T.Tensor([3.0, 4.0]))
        np.testing.assert_allclose(y.data, [[3.0, 4.0]])

    def test_hand_matmul(self):
        y = T.linear(T.Tensor([[1.0, 2.0]]), T.Tensor([[1.0, 1.0], [2.0, 0.0]]),
                     T.Tensor([0.0, 1.0]))
        np.testing.assert_allclose(y.data, [[3.0, 3.0]])

    def test_shape_mismatch(self):
        with pytest.raises(T.ShapeError):
            T.linear(T.Tensor([[1.0, 2.0, 3.0]]), T.Tensor(np.eye(2)))

    def test_leading_batch_axes(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 3, 5)).astype(np.float32)
        w = rng.normal(size=(4, 5)).astype(np.float32)
        b = rng.normal(size=4).astype(np.float32)
        y = T.linear(T.Tensor(x), T.Tensor(w), T.Tensor(b))
        assert y.shape == (2, 3, 4)
        np.testing.assert_allclose(y.data, x @ w.T + b, rtol=1e-6)

    def test_additive_in_x_exact(self):
        # integer-valued float64 inputs make the identity exact in floating point
        rng = np.random.default_rng(7)
        w = t64(rng.integers(-3, 4, size=(4, 6)), requires_grad=False)
        b = t64(rng.integers(-3, 4, size=4), requires_grad=False)
        x1 = rng.integers(-5, 6, size=(3, 6)).astype(np.float64)
        x2 = rng.integers(-5, 6, size=(3, 6)).astype(np.float64)
        lhs = T.linear(t64(x1 + x2), w, b).data
        rhs = T.linear(t64(x1), w, b).data + T.linear(t64(x2), w, b).data - b.data
        assert np.array_equal(lhs, rhs)


# ---------------------------------------------------------------------------
# conv2d
# ---------------------------------------------------------------------------

class TestConv2d:
    def test_all_ones_kernel_sums_input(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(1, 1, 4, 4))
        y = T.conv2d(T.Tensor(x), T.Tensor(np.ones((1, 1, 4, 4))), stride=4, pad=0)
        assert y.shape == (1, 1, 1, 1)
        np.testing.assert_allclose(y.data[0, 0, 0, 0], x.sum(), rtol=1e-6)

    def test_delta_kernel_shifts(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(1, 1, 5, 5))
        k = np.zeros((1, 1, 3, 3))
        k[0, 0, 1, 2] = 1.0
        y = T.conv2d(T.Tensor(x), T.Tensor(k), stride=1, pad=0)
        np.testing.assert_allclose(y.data[0, 0], x[0, 0, 1:4, 2:5], rtol=1e-6)

    def test_zero_kernel(self):
        x = np.ones((2, 3, 8, 8))
        y = T.conv2d(T.Tensor(x), T.Tensor(np.zeros((4, 3, 2, 2))), stride=2, pad=0)
        assert not y.data.any()

    def test_non_integral_output_size(self):
        with pytest.raises(T.ShapeError):
            T.conv2d(T.Tensor(np.zeros((1, 1, 5, 5))), T.Tensor(np.zeros((1, 1, 2, 2))),
                     stride=2, pad=0)

    def test_channel_mismatch(self):
        with pytest.raises(T.ShapeError):
            T.conv2d(T.Tensor(np.zeros((1, 3, 4, 4))), T.Tensor(np.zeros((1, 2, 2, 2))))


# ---------------------------------------------------------------------------
# depthwise conv
# ---------------------------------------------------------------------------

class TestDepthwiseConv2d:
    def test_delta_kernel_is_identity(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(2, 3, 9, 9))
        k = np.zeros((3, 1, 7, 7))
        k[:, 0, 3, 3] = 1.0
        y = T.depthwise_conv2d(T.Tensor(x), T.Tensor(k), pad=3)
        np.testing.assert_allclose(y.data, x, rtol=1e-6)

    def test_all_ones_interior_pixel(self):
        v = 0.37
        x = np.full((1, 1, 16, 16), v)
        y = T.depthwise_conv2d(T.Tensor(x), T.Tensor(np.ones((1, 1, 7, 7))), pad=3)
        np.testing.assert_allclose(y.data[0, 0, 8, 8], 49 * v, rtol=1e-6)

    def test_channels_do_not_mix(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(1, 2, 8, 8))
        k = rng.normal(size=(2, 1, 3, 3))
        base = T.depthwise_conv2d(T.Tensor(x), T.Tensor(k), pad=1).data
        x2 = x.copy()
        x2[0, 1] += rng.normal(size=(8, 8))
        perturbed = T.depthwise_conv2d(T.Tensor(x2), T.Tensor(k), pad=1).data
        assert np.array_equal(base[0, 0], perturbed[0, 0])
        assert not np.array_equal(base[0, 1], perturbed[0, 1])

    def test_channel_count_mismatch(self):
        with pytest.raises(T.ShapeError):
            T.depthwise_conv2d(T.Tensor(np.zeros((1, 3, 8, 8))),
                               T.Tensor(np.zeros((2, 1, 3, 3))), pad=1)


def _full_kernel_forward(x, k, pad):
    # every tap over the symmetrically padded input, dead ones included
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    win = np.lib.stride_tricks.sliding_window_view(xp, k.shape[2:], axis=(2, 3))
    return np.einsum("nchwpq,cpq->nchw", win, k[:, 0])


def _crop_after_pad_vjp_x(k, g, pad, h, w):
    # full correlation over the whole padded extent, then cropped to H x W
    kh, kw = k.shape[2:]
    gp = np.pad(g, ((0, 0), (0, 0), (kh - 1, kh - 1), (kw - 1, kw - 1)))
    gwin = np.lib.stride_tricks.sliding_window_view(gp, (kh, kw), axis=(2, 3))
    dxp = np.einsum("nchwpq,cpq->nchw", gwin, np.flip(k[:, 0], axis=(1, 2)))
    return dxp[:, :, pad:pad + h, pad:pad + w]


# (channels, map size) of every block the backbone runs on 32 px inputs, in
# the tiny (dims 8-64) and base (dims 128-1024) configs; 7x7 taps at pad 3
BLOCK_SHAPES = [(8, 8), (16, 4), (32, 2), (64, 1),
                (128, 8), (256, 4), (512, 2), (1024, 1)]


class TestDepthwiseKernelPaths:
    @pytest.mark.parametrize("n", [32, 4])
    @pytest.mark.parametrize("c,hw", BLOCK_SHAPES)
    def test_bitwise_equal_to_full_padded_formulas(self, n, c, hw):
        rng = np.random.default_rng(c + hw + n)
        x = rng.normal(size=(n, c, hw, hw)).astype(np.float32)
        k = (0.1 * rng.normal(size=(c, 1, 7, 7))).astype(np.float32)
        y = T.depthwise_conv2d(T.Tensor(x, requires_grad=True), T.Tensor(k), pad=3)
        assert np.array_equal(y.data, _full_kernel_forward(x, k, 3))
        g = rng.normal(size=y.shape).astype(np.float32)
        assert np.array_equal(y._vjps[0](g), _crop_after_pad_vjp_x(k, g, 3, hw, hw))

    @pytest.mark.parametrize("hw,live", [(1, slice(3, 4)), (2, slice(2, 5))])
    def test_kernel_gradient_exactly_zero_on_dead_taps(self, hw, live):
        rng = np.random.default_rng(hw)
        x = rng.normal(size=(2, 3, hw, hw))
        k = t64(rng.normal(size=(3, 1, 7, 7)))
        g = rng.normal(size=(2, 3, hw, hw))
        T.depthwise_conv2d(t64(x, False), k, pad=3).backward(g)
        dead = np.ones((7, 7), dtype=bool)
        dead[live, live] = False
        assert np.all(k.grad[:, 0, dead] == 0.0)
        _, dk = depthwise_conv2d_vjps_loops(x, k.data, g, 3)
        np.testing.assert_allclose(k.grad, dk, rtol=1e-12, atol=1e-12)

    @given(n=st.integers(1, 2), c=st.integers(1, 3), h=st.integers(1, 6),
           w=st.integers(1, 6), kh=st.integers(1, 5), kw=st.integers(1, 5),
           pad=st.integers(0, 5), seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_float64_loop_reference(self, n, c, h, w, kh, kw, pad, seed):
        if h + 2 * pad < kh or w + 2 * pad < kw:
            return
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, c, h, w))
        k = rng.normal(size=(c, 1, kh, kw))
        xt, kt = t64(x), t64(k)
        y = T.depthwise_conv2d(xt, kt, pad=pad)
        np.testing.assert_allclose(y.data, depthwise_conv2d_loops(x, k, pad),
                                   rtol=1e-12, atol=1e-12)
        g = rng.normal(size=y.shape)
        y.backward(g)
        dx, dk = depthwise_conv2d_vjps_loops(x, k, g, pad)
        np.testing.assert_allclose(xt.grad, dx, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(kt.grad, dk, rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------------------
# layer norm / gelu / grn / pool
# ---------------------------------------------------------------------------

class TestLayerNorm:
    def test_constant_input_gives_beta(self):
        x = np.full((2, 4), 3.5)
        beta = np.array([1.0, 2.0, 3.0, 4.0])
        y = T.layer_norm(T.Tensor(x), T.Tensor(np.ones(4)), T.Tensor(beta))
        np.testing.assert_allclose(y.data, np.tile(beta, (2, 1)), atol=1e-3)

    def test_two_point_normalization(self):
        y = T.layer_norm(T.Tensor([[-1.0, 1.0]]), T.Tensor(np.ones(2)),
                         T.Tensor(np.zeros(2)), eps=1e-12)
        np.testing.assert_allclose(y.data, [[-1.0, 1.0]], atol=1e-5)

    def test_zero_gamma_gives_beta(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(3, 6))
        y = T.layer_norm(T.Tensor(x), T.Tensor(np.zeros(6)), T.Tensor(np.full(6, 0.25)))
        np.testing.assert_allclose(y.data, 0.25)

    def test_shift_invariance(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(4, 8)).astype(np.float64)
        g, b = T.Tensor(np.ones(8)), T.Tensor(np.zeros(8))
        y1 = T.layer_norm(T.Tensor(x), g, b).data
        y2 = T.layer_norm(T.Tensor(x + 5.0), g, b).data
        np.testing.assert_allclose(y1, y2, atol=1e-5)

    def test_gamma_shape_mismatch(self):
        with pytest.raises(T.ShapeError):
            T.layer_norm(T.Tensor(np.zeros((2, 4))), T.Tensor(np.ones(3)),
                         T.Tensor(np.zeros(4)))


class TestGelu:
    def test_zero(self):
        assert T.gelu(T.Tensor([0.0])).data[0] == 0.0

    def test_saturated(self):
        np.testing.assert_allclose(T.gelu(t64([10.0])).data[0], 10.0, atol=1e-6)

    def test_at_one(self):
        np.testing.assert_allclose(T.gelu(t64([1.0])).data[0], 0.841345, atol=1e-6)


class TestGrn:
    def test_zero_affine_is_identity(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(2, 3, 3, 5))
        y = T.grn(T.Tensor(x), T.Tensor(np.zeros(5)), T.Tensor(np.zeros(5)))
        np.testing.assert_allclose(y.data, x, rtol=1e-6)

    def test_single_channel(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(1, 4, 4, 1)).astype(np.float64)
        gamma, beta = 0.7, 0.2
        y = T.grn(t64(x, False), t64([gamma], False), t64([beta], False))
        np.testing.assert_allclose(y.data, gamma * x + beta + x, rtol=1e-5)

    def test_zero_input_gives_beta(self):
        y = T.grn(T.Tensor(np.zeros((1, 2, 2, 3))), T.Tensor(np.ones(3)),
                  T.Tensor(np.array([0.1, 0.2, 0.3])))
        np.testing.assert_allclose(y.data, np.broadcast_to([0.1, 0.2, 0.3], (1, 2, 2, 3)),
                                   atol=1e-7)


class TestGlobalAvgPool:
    def test_constant(self):
        y = T.global_avg_pool(T.Tensor(np.full((2, 3, 4, 4), 1.5)))
        np.testing.assert_allclose(y.data, 1.5)

    def test_mean(self):
        x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
        np.testing.assert_allclose(T.global_avg_pool(T.Tensor(x)).data, [[2.5]])

    def test_one_by_one_identity(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(2, 5, 1, 1))
        np.testing.assert_allclose(T.global_avg_pool(T.Tensor(x)).data, x[:, :, 0, 0])


# ---------------------------------------------------------------------------
# softmax cross entropy
# ---------------------------------------------------------------------------

class TestSoftmaxCrossEntropy:
    def test_uniform_logits(self):
        loss = T.softmax_cross_entropy(T.Tensor(np.zeros((3, 4))), np.array([0, 1, 2]))
        np.testing.assert_allclose(loss.item(), math.log(4), rtol=1e-6)

    def test_saturated(self):
        logits = np.zeros((1, 5))
        logits[0, 2] = 1000.0
        loss = T.softmax_cross_entropy(T.Tensor(logits), np.array([2]))
        assert loss.item() == pytest.approx(0.0, abs=1e-6)

    def test_hand_value(self):
        loss = T.softmax_cross_entropy(t64([[0.0, math.log(3.0)]], False), np.array([0]))
        np.testing.assert_allclose(loss.item(), 1.386294, atol=1e-6)

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            T.softmax_cross_entropy(T.Tensor(np.zeros((2, 3))), np.array([0, 3]))

    def test_nonnegative(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            n, k = rng.integers(1, 6), rng.integers(2, 7)
            logits = rng.normal(scale=5.0, size=(n, k))
            labels = rng.integers(0, k, size=n)
            assert T.softmax_cross_entropy(T.Tensor(logits), labels).item() >= 0.0

    def test_gradient_formula(self):
        rng = np.random.default_rng(12)
        logits = t64(rng.normal(size=(4, 3)))
        labels = np.array([0, 2, 1, 1])
        loss = T.softmax_cross_entropy(logits, labels)
        loss.backward()
        probs = T.softmax(logits.data)
        onehot = np.eye(3)[labels]
        np.testing.assert_allclose(logits.grad, (probs - onehot) / 4.0, rtol=1e-10)


# ---------------------------------------------------------------------------
# tape behaviour
# ---------------------------------------------------------------------------

class TestTape:
    def test_fanout_accumulates_additively(self):
        x = t64([[1.0, 2.0]])
        y = T.add(T.scale(x, 2.0), T.scale(x, 3.0))
        T.tsum(y).backward()
        np.testing.assert_allclose(x.grad, [[5.0, 5.0]])

    def test_diamond_graph(self):
        x = t64([2.0])
        a = T.scale(x, 3.0)
        b = T.scale(x, -1.0)
        out = T.tsum(T.add(a, b))
        out.backward()
        np.testing.assert_allclose(x.grad, [2.0])

    def test_no_grad_blocks_recording(self):
        x = t64([1.0])
        with T.no_grad():
            y = T.scale(x, 2.0)
        assert not y.requires_grad
        assert y._parents == ()

    def test_frozen_leaf_gets_no_grad(self):
        x = t64([1.0, 2.0], requires_grad=False)
        w = t64(np.eye(2))
        out = T.tsum(T.linear(T.Tensor(x.data.reshape(1, 2), requires_grad=False), w))
        out.backward()
        assert x.grad is None
        assert w.grad is not None

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_nonfinite_surfaced(self):
        big = T.Tensor(np.array([[1e30]], dtype=np.float32))
        w = T.Tensor(np.array([[1e30]], dtype=np.float32))
        with pytest.raises(T.NumericsError):
            T.linear(big, w)


# ---------------------------------------------------------------------------
# gradient checks (central differences, float64)
# ---------------------------------------------------------------------------

class TestGradCheck:
    def test_linear_tight(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            x = t64(rng.normal(size=(3, 3)))
            w = t64(rng.normal(size=(3, 3)))
            b = t64(rng.normal(size=3))
            err = T.grad_check(lambda *a: T.tsum(T.linear(*a)), [x, w, b])
            assert err < 1e-7

    @pytest.mark.parametrize("shape", [(2, 3, 5), (2, 2, 1, 5)])
    def test_linear_leading_axes(self, shape):
        rng = np.random.default_rng(len(shape))
        x = t64(rng.normal(size=shape))
        w = t64(rng.normal(size=(4, 5)))
        b = t64(rng.normal(size=4))
        assert T.grad_check(lambda *a: T.tsum(T.linear(*a)), [x, w, b]) < 1e-7

    @pytest.mark.parametrize("hw,ksz,pad", [(1, 7, 3), (2, 7, 3), (4, 7, 3),
                                            (5, 3, 0), (2, 3, 4)])
    def test_depthwise_padding_regimes(self, hw, ksz, pad):
        rng = np.random.default_rng(hw * ksz + pad)
        x = t64(rng.normal(size=(2, 3, hw, hw)))
        k = t64(rng.normal(size=(3, 1, ksz, ksz)))
        b = t64(rng.normal(size=3))

        def f(a, c, d):
            # gelu makes the upstream gradient differ at every output position
            return T.tsum(T.gelu(T.depthwise_conv2d(a, c, d, pad=pad)))

        assert T.grad_check(f, [x, k, b]) < 1e-7

    def test_gelu_at_half(self):
        x = t64([0.5])
        err = T.grad_check(lambda a: T.tsum(T.gelu(a)), [x])
        assert err < 1e-7

    @pytest.mark.parametrize("seed", range(20))
    def test_all_primitives(self, seed):
        rng = np.random.default_rng(100 + seed)

        x = t64(rng.normal(size=(2, 6)))
        w = t64(rng.normal(size=(4, 6)))
        b = t64(rng.normal(size=4))
        assert T.grad_check(lambda *a: T.tsum(T.linear(*a)), [x, w, b]) < 1e-5

        x = t64(rng.normal(size=(2, 2, 6, 6)))
        k = t64(rng.normal(size=(3, 2, 3, 3)))
        assert T.grad_check(lambda a, c: T.tsum(T.conv2d(a, c, stride=1, pad=1)),
                            [x, k]) < 1e-5
        x = t64(rng.normal(size=(1, 2, 8, 8)))
        k = t64(rng.normal(size=(3, 2, 2, 2)))
        assert T.grad_check(lambda a, c: T.tsum(T.conv2d(a, c, stride=2, pad=0)),
                            [x, k]) < 1e-5

        x = t64(rng.normal(size=(1, 3, 6, 6)))
        k = t64(rng.normal(size=(3, 1, 3, 3)))
        assert T.grad_check(lambda a, c: T.tsum(T.depthwise_conv2d(a, c, pad=1)),
                            [x, k]) < 1e-5

        x = t64(rng.normal(size=(3, 5)))
        g = t64(rng.normal(size=5))
        be = t64(rng.normal(size=5))
        assert T.grad_check(lambda *a: T.tsum(T.layer_norm(*a)), [x, g, be]) < 1e-5

        x = t64(rng.normal(size=(2, 7)))
        assert T.grad_check(lambda a: T.tsum(T.gelu(a)), [x]) < 1e-5

        x = t64(rng.normal(size=(2, 3, 3, 4)))
        g = t64(rng.normal(size=4))
        be = t64(rng.normal(size=4))
        assert T.grad_check(lambda *a: T.tsum(T.grn(*a)), [x, g, be]) < 1e-5

        x = t64(rng.normal(size=(2, 3, 4, 4)))
        assert T.grad_check(lambda a: T.tsum(T.global_avg_pool(a)), [x]) < 1e-5

        logits = t64(rng.normal(size=(3, 4)))
        labels = rng.integers(0, 4, size=3)
        assert T.grad_check(lambda a: T.softmax_cross_entropy(a, labels),
                            [logits]) < 1e-5

    def test_requires_float64(self):
        x = T.Tensor(np.zeros((2, 2), dtype=np.float32), requires_grad=True)
        with pytest.raises(ValueError):
            T.grad_check(lambda a: T.tsum(a), [x])
