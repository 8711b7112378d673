"""Unit tests for the array primitives and their gradients."""

import math
import warnings

import numpy as np
import pytest
from _oracles import depthwise_conv2d_loops, depthwise_conv2d_vjps_loops, shift_sum_per_pixel
from hypothesis import given, settings
from hypothesis import strategies as st

from convlora import tensor as T
from convlora.backbone import base_config, tiny_test_config


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


class TestLoraLinear:
    @pytest.mark.parametrize("a_shape, b_shape, keep_shape", [
        ((2, 4), (3, 2), (5, 6)),      # A's features differ from x's
        ((2, 6), (3, 3), (5, 6)),      # B's rank differs from A's
        ((2, 6), (4, 2), (5, 6)),      # B's outputs differ from w's
        ((6,), (3, 2), (5, 6)),        # A is not 2-D
        ((2, 6), (3, 2), (6, 5)),      # keep does not cover x
    ])
    def test_shape_mismatch(self, a_shape, b_shape, keep_shape):
        x, w = T.Tensor(np.ones((5, 6))), T.Tensor(np.ones((3, 6)))
        with pytest.raises(T.ShapeError):
            T.lora_linear(x, w, None, T.Tensor(np.ones(a_shape)),
                          T.Tensor(np.ones(b_shape)), 1.0,
                          np.ones(keep_shape, dtype=bool), 0.5)


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


def _tap_sum(src, taps, ho, wo):
    # out[n, c, i, j] = sum over (p, q) of src[n, c, i + p, j + q] * taps[c, p, q],
    # one multiply and one add per tap in row-major tap order, as the op sums
    out = src[:, :, :ho, :wo] * taps[:, 0, 0, None, None]
    for p in range(taps.shape[1]):
        for q in range(taps.shape[2]):
            if p or q:
                out += src[:, :, p:p + ho, q:q + wo] * taps[:, p, q, None, None]
    return out


def _full_kernel_forward(x, k, pad):
    # every tap over the symmetrically padded input, dead ones included
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    kh, kw = k.shape[2:]
    return _tap_sum(xp, k[:, 0], xp.shape[2] - kh + 1, xp.shape[3] - kw + 1)


def _crop_after_pad_vjp_x(k, g, pad, h, w):
    # full correlation over the whole padded extent, then cropped to H x W
    kh, kw = k.shape[2:]
    gp = np.pad(g, ((0, 0), (0, 0), (kh - 1, kh - 1), (kw - 1, kw - 1)))
    dxp = _tap_sum(gp, np.flip(k[:, 0], axis=(1, 2)), h + 2 * pad, w + 2 * pad)
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
# channel-last depthwise and patch convolutions
# ---------------------------------------------------------------------------

def nhwc(a):
    return np.ascontiguousarray(np.moveaxis(a, 1, 3))


def nchw(a):
    return np.ascontiguousarray(np.moveaxis(a, 3, 1))


class TestDepthwiseConv2dNhwc:
    @given(n=st.integers(1, 2), c=st.integers(1, 3), h=st.integers(1, 6),
           w=st.integers(1, 6), kh=st.integers(1, 5), kw=st.integers(1, 5),
           pad=st.integers(0, 5), seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_float64_loop_reference(self, n, c, h, w, kh, kw, pad, seed):
        # pad > k - 1 and maps smaller than the kernel are both drawn
        if h + 2 * pad < kh or w + 2 * pad < kw:
            return
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, c, h, w))
        k = rng.normal(size=(c, 1, kh, kw))
        b = rng.normal(size=c)
        xt, kt, bt = t64(nhwc(x)), t64(k), t64(b)
        y = T.depthwise_conv2d_nhwc(xt, kt, bt, pad=pad)
        np.testing.assert_allclose(
            nchw(y.data), depthwise_conv2d_loops(x, k, pad) + b[None, :, None, None],
            rtol=1e-12, atol=1e-12)
        g = rng.normal(size=(n, c) + y.shape[1:3])
        y.backward(nhwc(g))
        dx, dk = depthwise_conv2d_vjps_loops(x, k, g, pad)
        np.testing.assert_allclose(nchw(xt.grad), dx, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(kt.grad, dk, rtol=1e-12, atol=1e-12)
        # the op sums channel-last, in another order than this NCHW sum; the
        # two differ by rounding bounded by eps * sum|g|, which on a channel
        # whose sum nearly cancels is more than 1e-12 of the sum itself
        np.testing.assert_allclose(bt.grad, g.sum(axis=(0, 2, 3)), rtol=1e-12,
                                   atol=1e-12 * np.abs(g).sum())

    @pytest.mark.parametrize("hw,live", [(1, slice(3, 4)), (2, slice(2, 5))])
    def test_kernel_gradient_exactly_zero_on_dead_taps(self, hw, live):
        rng = np.random.default_rng(hw)
        x = rng.normal(size=(2, hw, hw, 3))
        k = t64(rng.normal(size=(3, 1, 7, 7)))
        T.depthwise_conv2d_nhwc(t64(x, False), k, pad=3).backward(
            rng.normal(size=(2, hw, hw, 3)))
        dead = np.ones((7, 7), dtype=bool)
        dead[live, live] = False
        assert np.all(k.grad[:, 0, dead] == 0.0)
        assert np.all(k.grad[:, 0, live, live] != 0.0)

    @pytest.mark.parametrize("n", [32, 4])
    @pytest.mark.parametrize("c,hw", BLOCK_SHAPES)
    def test_float32_close_to_nchw_op(self, n, c, hw):
        rng = np.random.default_rng(c + hw + n)
        # against the float64 loop references
        x = rng.normal(size=(n, c, hw, hw)).astype(np.float32)
        k = (0.1 * rng.normal(size=(c, 1, 7, 7))).astype(np.float32)
        y = T.depthwise_conv2d_nhwc(T.Tensor(nhwc(x), requires_grad=True), T.Tensor(k),
                                    pad=3)
        assert y.dtype == np.float32
        np.testing.assert_allclose(nchw(y.data), depthwise_conv2d_loops(x, k, 3),
                                   rtol=0, atol=2e-6)
        g = rng.normal(size=x.shape).astype(np.float32)
        dx, _ = depthwise_conv2d_vjps_loops(x, k, g, 3)
        np.testing.assert_allclose(nchw(y._vjps[0](nhwc(g))), dx, rtol=0, atol=2e-6)

    @pytest.mark.parametrize("n", [32, 4])
    @pytest.mark.parametrize("c,hw", BLOCK_SHAPES)
    def test_flat_rows_bitwise_equal_to_per_pixel_kernel(self, n, c, hw, monkeypatch):
        rng = np.random.default_rng(c + hw + n)
        x = rng.normal(size=(n, hw, hw, c)).astype(np.float32)
        k = T.Tensor((0.1 * rng.normal(size=(c, 1, 7, 7))).astype(np.float32))
        g = rng.normal(size=x.shape).astype(np.float32)
        # _shift_sum views the padded map as [N, Hp, Wp*C], which needs it contiguous
        assert T._pad_hw(x, (3, 3, 3, 3)).flags.c_contiguous
        y = T.depthwise_conv2d_nhwc(T.Tensor(x, requires_grad=True), k, pad=3)
        dx = y._vjps[0](g)
        monkeypatch.setattr(T, "_shift_sum", shift_sum_per_pixel)
        ref = T.depthwise_conv2d_nhwc(T.Tensor(x, requires_grad=True), k, pad=3)
        assert np.array_equal(y.data, ref.data)
        assert np.array_equal(dx, ref._vjps[0](g))

    @pytest.mark.parametrize("hw,ksz,pad", [(1, 7, 3), (2, 7, 3), (4, 7, 3),
                                            (5, 3, 0), (2, 3, 4)])
    def test_grad_check(self, hw, ksz, pad):
        rng = np.random.default_rng(hw * ksz + pad)
        x = t64(rng.normal(size=(2, hw, hw, 3)))
        k = t64(rng.normal(size=(3, 1, ksz, ksz)))
        b = t64(rng.normal(size=3))

        def f(a, c, d):
            return T.tsum(T.gelu(T.depthwise_conv2d_nhwc(a, c, d, pad=pad)))

        assert T.grad_check(f, [x, k, b]) < 1e-7

    def test_channel_count_mismatch(self):
        with pytest.raises(T.ShapeError):
            T.depthwise_conv2d_nhwc(T.Tensor(np.zeros((1, 8, 8, 3))),
                                    T.Tensor(np.zeros((2, 1, 3, 3))), pad=1)


# (in channels, out channels, map size, patch) of the stem and the three
# downsamples on 32 px inputs, in the tiny and base configs
PATCH_SHAPES = [(3, 8, 32, 4), (8, 16, 8, 2), (16, 32, 4, 2), (32, 64, 2, 2),
                (3, 128, 32, 4), (128, 256, 8, 2), (256, 512, 4, 2), (512, 1024, 2, 2)]


class TestPatchConv2dNhwc:
    @pytest.mark.parametrize("c,o,hw,p", PATCH_SHAPES)
    def test_close_to_strided_conv2d(self, c, o, hw, p):
        rng = np.random.default_rng(c + o + hw)
        x = rng.normal(size=(4, c, hw, hw)).astype(np.float32)
        k = (0.05 * rng.normal(size=(o, c, p, p))).astype(np.float32)
        b = (0.1 * rng.normal(size=o)).astype(np.float32)
        ref_x, ref_k, ref_b = (T.Tensor(a, requires_grad=True) for a in (x, k, b))
        ref = T.conv2d(ref_x, ref_k, ref_b, stride=p, pad=0)
        g = rng.normal(size=ref.shape).astype(np.float32)
        ref.backward(g)
        xt, kt, bt = (T.Tensor(a, requires_grad=True) for a in (nhwc(x), k, b))
        y = T.patch_conv2d_nhwc(xt, kt, bt)
        y.backward(nhwc(g))
        assert y.dtype == np.float32
        np.testing.assert_allclose(nchw(y.data), ref.data, rtol=1e-5, atol=1e-5)
        np.testing.assert_allclose(nchw(xt.grad), ref_x.grad, rtol=1e-5, atol=1e-5)
        np.testing.assert_allclose(kt.grad, ref_k.grad, rtol=1e-4, atol=1e-4)
        np.testing.assert_allclose(bt.grad, ref_b.grad, rtol=1e-5, atol=1e-5)

    @pytest.mark.parametrize("shape,kshape", [((2, 8, 8, 2), (3, 2, 4, 4)),
                                              ((1, 4, 6, 3), (2, 3, 2, 3))])
    def test_grad_check(self, shape, kshape):
        rng = np.random.default_rng(len(shape) + kshape[2])
        x = t64(rng.normal(size=shape))
        k = t64(rng.normal(size=kshape))
        b = t64(rng.normal(size=kshape[0]))

        def f(a, c, d):
            return T.tsum(T.gelu(T.patch_conv2d_nhwc(a, c, d)))

        assert T.grad_check(f, [x, k, b]) < 1e-7

    def test_map_must_tile_into_patches(self):
        with pytest.raises(T.ShapeError):
            T.patch_conv2d_nhwc(T.Tensor(np.zeros((1, 6, 6, 3))),
                                T.Tensor(np.zeros((4, 3, 4, 4))))

    def test_channel_mismatch(self):
        with pytest.raises(T.ShapeError):
            T.patch_conv2d_nhwc(T.Tensor(np.zeros((1, 8, 8, 3))),
                                T.Tensor(np.zeros((4, 2, 4, 4))))


# ---------------------------------------------------------------------------
# one dense projection under linear, lora_linear and patch_conv2d_nhwc
# ---------------------------------------------------------------------------

def _lora_linear(x, w, b):
    # a rank-2 adapter for a weight with 4 outputs
    A, B = (T.Tensor(np.ones(s, dtype=np.float32)) for s in ((2, w.shape[-1]), (4, 2)))
    return T.lora_linear(x, w, b, A, B, 0.5)


# (name, op, input shape, weight shape) for the three ops over one
# projection, each with 4 outputs
PROJECTION_OPS = [
    pytest.param("linear", T.linear, (2, 3, 6), (4, 6), id="linear"),
    pytest.param("lora_linear", _lora_linear, (2, 3, 6), (4, 6), id="lora_linear"),
    pytest.param("patch_conv2d_nhwc", T.patch_conv2d_nhwc, (2, 4, 4, 3), (4, 3, 2, 2),
                 id="patch_conv2d_nhwc"),
]


class TestOneProjection:
    @pytest.mark.parametrize("shape, kshape", [((2, 8, 8, 3), (5, 3, 4, 4)),
                                               ((1, 4, 6, 2), (3, 2, 2, 3))])
    def test_patch_conv_is_linear_on_the_patch_rows(self, shape, kshape):
        rng = np.random.default_rng(kshape[0])
        n, h, w, c = shape
        o, _, kh, kw = kshape
        ho, wo = h // kh, w // kw
        x, k, b = (rng.normal(size=s).astype(np.float32) for s in (shape, kshape, o))
        g = rng.normal(size=(n, ho, wo, o)).astype(np.float32)
        xt, kt, bt = (T.Tensor(a, requires_grad=True) for a in (x, k, b))
        y = T.patch_conv2d_nhwc(xt, kt, bt)
        y.backward(g)
        # one row per patch, ordered (channel, patch row, patch column) like
        # the flattened kernel
        rows = x.reshape(n, ho, kh, wo, kw, c).transpose(0, 1, 3, 5, 2, 4)
        xr, wr, br = (T.Tensor(a, requires_grad=True)
                      for a in (rows.reshape(n, ho, wo, -1), k.reshape(o, -1), b))
        ref = T.linear(xr, wr, br)
        ref.backward(g)
        assert np.array_equal(y.data, ref.data)
        x_grad = xr.grad.reshape(n, ho, wo, c, kh, kw).transpose(0, 1, 4, 2, 5, 3)
        assert np.array_equal(xt.grad, x_grad.reshape(shape))
        assert np.array_equal(kt.grad, wr.grad.reshape(kshape))
        assert np.array_equal(bt.grad, br.grad)

    @pytest.mark.parametrize("name, op, xs, ws", PROJECTION_OPS)
    def test_float64_bias_keeps_the_float32_output(self, name, op, xs, ws):
        rng = np.random.default_rng(2)
        x, w = (T.Tensor(rng.normal(size=s).astype(np.float32)) for s in (xs, ws))
        y = op(x, w, T.Tensor(rng.normal(size=4)))
        assert y.dtype == np.float32

    @pytest.mark.parametrize("name, op, xs, ws", PROJECTION_OPS)
    @pytest.mark.parametrize("fault", ["1-D weight", "feature count", "bias shape"])
    def test_shape_checks_name_the_op(self, name, op, xs, ws, fault):
        if fault == "1-D weight":
            ws = (math.prod(ws),)
        elif fault == "feature count":
            xs = (*xs[:-1], xs[-1] + 1)
        nb = 5 if fault == "bias shape" else 4
        with pytest.raises(T.ShapeError, match=f"^{name}: "):
            op(T.Tensor(np.ones(xs)), T.Tensor(np.ones(ws)), T.Tensor(np.ones(nb)))

    def test_few_rows_run_weight_major_with_the_same_bits(self):
        # the projection runs (w @ rows^T)^T when 32 * rows <= d; pinned on
        # both sides of that rule at the shapes the models project. The bits
        # were measured equal on OpenBLAS 0.3.31 (scipy-openblas, Haswell
        # kernels); a BLAS that rounds the two forms apart fails here, and
        # its training bits then depend on the rule
        shapes = set()
        for batch in (1, 2, 4, 8, 16):
            shapes |= _projection_shapes(base_config(10, image_size=32), batch)
        shapes |= _projection_shapes(base_config(10, image_size=96), 2)
        shapes |= _projection_shapes(tiny_test_config(), 1)
        assert {32 * m <= d for m, d, _ in shapes} == {True, False}
        rng = np.random.default_rng(3)
        for m, d, k in sorted(shapes):
            x, w = (rng.normal(size=s).astype(np.float32) for s in ((m, k), (d, k)))
            y = T.linear(T.Tensor(x), T.Tensor(w)).data
            assert y.flags.c_contiguous and np.array_equal(y, x @ w.T), (m, d, k)


def _projection_shapes(config, batch: int) -> set[tuple[int, int, int]]:
    """(rows, d, k) of every dense projection of ``config`` at ``batch``: the
    stem, each stage's fc1 and fc2, each downsample and the head."""
    dims, side = config.dims, config.image_size // 4
    shapes = {(batch * side ** 2, dims[0], 3 * 4 * 4), (batch, config.num_classes, dims[-1])}
    for i, c in enumerate(dims):
        rows = batch * side ** 2
        shapes |= {(rows, config.mlp_ratio * c, c), (rows, c, config.mlp_ratio * c)}
        side //= 2
        if i + 1 < len(dims):
            shapes.add((batch * side ** 2, dims[i + 1], 4 * c))
    return shapes


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

    def test_gradient_is_cdf_plus_x_pdf(self):
        x = np.linspace(-4.0, 4.0, 17)
        xt = t64(x)
        T.gelu(xt).backward(np.ones_like(x))
        cdf = 0.5 * (1.0 + np.vectorize(math.erf)(x / math.sqrt(2.0)))
        pdf = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
        np.testing.assert_allclose(xt.grad, cdf + x * pdf, rtol=1e-12, atol=1e-15)


FLT32 = np.finfo(np.float32)


def _with_neighbours(*values):
    # the float32 values and their neighbours on either side
    v = np.array(values, dtype=np.float32)
    return np.concatenate([np.nextafter(v, np.float32(-1.0)), v,
                           np.nextafter(v, np.float32(np.inf))])


class TestErf:
    # float32 inputs where erf changes form or saturates: the smallest
    # subnormal and normal, 1 and 8 (branch edges) and 3.9192059 (the first
    # float32 whose erf rounds to 1), each with its neighbours; +-0, FLT_MAX,
    # inf and NaN. The tests use them with both signs
    EDGES = np.concatenate([
        _with_neighbours(FLT32.smallest_subnormal, FLT32.smallest_normal, 1.0, 8.0,
                         3.9192059),
        np.array([0.0, -0.0, FLT32.max, np.inf, np.nan], dtype=np.float32)])

    def test_float32_bits_equal_scipy(self):
        special = pytest.importorskip("scipy.special")
        # about 2^22 bit patterns, evenly strided over all 2^32, and the edges
        strided = np.arange(0, 2**32, 1021, dtype=np.uint64).astype(np.uint32)
        x = np.concatenate([strided.view(np.float32), self.EDGES, -self.EDGES])
        with np.errstate(all="ignore"):
            ref = special.erf(x)
        got = T._erf(x)
        assert got.dtype == np.float32 and got.shape == x.shape
        nan = np.isnan(ref)
        assert np.array_equal(np.isnan(got), nan)
        assert np.array_equal(got[~nan].view(np.uint32), ref[~nan].view(np.uint32))

    def test_first_float32_rounding_to_one(self):
        below, first, _ = _with_neighbours(3.9192059)
        assert T._erf(below) < 1.0 and T._erf(first) == 1.0

    def test_float64_within_3_ulp_of_math_erf(self):
        # Cephes's erf is up to 3 ulp from a correctly rounded one just
        # below |x| = 1 (scipy.special.erf reads the same there)
        x = np.concatenate([np.linspace(-9.0, 9.0, 40001),
                            np.geomspace(1e-300, 8.0, 2001), [1.0, -1.0, 8.0, -8.0]])
        ref = np.array([math.erf(v) for v in x])
        got = T._erf(x.reshape(2, -1).T).T.reshape(-1)
        assert got.dtype == np.float64
        assert np.all(np.abs(got - ref) <= 3 * np.spacing(np.abs(ref)))

    def test_signed_zero_and_nan(self):
        got = T._erf(np.array([0.0, -0.0, np.nan]))
        assert got[0] == 0.0 and not np.signbit(got[0])
        assert got[1] == 0.0 and np.signbit(got[1])
        assert np.isnan(got[2])

    def test_no_float_warning_on_any_input(self):
        signalling_nans = np.array([0x7F800001, 0xFFA00000], dtype=np.uint32).view(np.float32)
        x32 = np.concatenate([self.EDGES, -self.EDGES, signalling_nans])
        x64 = np.array([1e308, -1e308, 1e200, 5e-324, np.inf, -np.inf, np.nan, -0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            T._erf(x32)
            T._erf(x64)
            T.gelu(T.Tensor(np.array([1e30, -1e30, 3.0], dtype=np.float32)))


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

    def test_backward_frees_intermediates(self):
        x = t64([[1.0, 2.0]])
        h = T.scale(x, 2.0)
        out = T.tsum(h)
        out.backward()
        assert h.grad is None and out.grad is None
        np.testing.assert_allclose(x.grad, [[2.0, 2.0]])

    def test_second_backward_raises(self):
        x = t64([[1.0, 2.0]])
        h = T.scale(x, 2.0)
        first = T.tsum(h)
        first.backward()
        with pytest.raises(ValueError, match="already walked backwards"):
            first.backward()
        # a second loss that shares h, which the first walk consumed
        second = T.tsum(T.scale(h, 3.0))
        with pytest.raises(ValueError, match="already walked backwards"):
            second.backward()
        np.testing.assert_allclose(x.grad, [[2.0, 2.0]])

    def test_seed_of_another_shape_raises(self):
        x = t64([[1.0, -2.0, 0.5], [0.0, 3.0, -1.0]])
        y = T.gelu(x)
        for seed in (np.ones(3), np.array(1.0)):
            with pytest.raises(ValueError, match="gradient shape"):
                y.backward(seed)
        assert x.grad is None and y.grad is None
        y.backward(np.ones((2, 3)))
        np.testing.assert_allclose(x.grad, T.gelu(t64(x.data))._vjps[0](np.ones((2, 3))))

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_nonfinite_surfaced(self):
        big = T.Tensor(np.array([[1e30]], dtype=np.float32))
        w = T.Tensor(np.array([[1e30]], dtype=np.float32))
        with pytest.raises(T.NumericsError):
            T.linear(big, w)


def _residual_graph():
    # add hands one array to both of its inputs, both of them intermediates,
    # and h gets a second contribution before w2's VJP reads its own gradient
    rng = np.random.default_rng(0)
    x = T.Tensor(rng.normal(size=(4, 16)).astype(np.float32), requires_grad=True)
    w1, w2 = (T.Tensor(rng.normal(size=(16, 16)).astype(np.float32),
                       requires_grad=True) for _ in range(2))
    h = T.linear(x, w1)
    loss = T.tsum(T.gelu(T.add(h, T.linear(h, w2))))
    return [x, w1, w2], loss


def _transpose_graph():
    # transpose's VJP returns a strided view, which becomes the first
    # contribution to a's gradient; layer_norm's VJP then reduces over it
    rng = np.random.default_rng(1)
    x = T.Tensor(rng.normal(size=(2, 16, 3, 16)).astype(np.float32), requires_grad=True)
    gw, bw, gc, bc = (T.Tensor(rng.normal(size=16).astype(np.float32), requires_grad=True)
                      for _ in range(4))
    a = T.layer_norm(x, gw, bw)
    loss = T.tsum(T.gelu(T.layer_norm(T.transpose(a, (0, 2, 3, 1)), gc, bc)))
    return [x, gw, bw, gc, bc], loss


def _zero_fill_accumulate(self, g):
    if self.grad is None:
        self.grad = np.zeros_like(self.data)
    self.grad += g


class TestAccumulate:
    """The first contribution to a gradient becomes it, in a buffer of its
    own, with the bits of adding it to a zero-filled array."""

    @pytest.mark.parametrize("graph", [_residual_graph, _transpose_graph],
                             ids=["residual-add", "transpose"])
    def test_bitwise_equal_to_zero_filled_sum(self, graph, monkeypatch):
        def grads():
            leaves, loss = graph()
            loss.backward()
            return [t.grad.tobytes() for t in leaves]

        got = grads()
        monkeypatch.setattr(T.Tensor, "_accumulate", _zero_fill_accumulate)
        assert got == grads()

    def test_negative_zero_becomes_zero(self):
        x = t64([1.0, 2.0])
        T.tsum(T.scale(x, -0.0)).backward()
        assert not np.signbit(x.grad).any()


# ---------------------------------------------------------------------------
# gradient checks (central differences, float64)
# ---------------------------------------------------------------------------

# (op, input shape, kernel shape, bias length, keyword arguments) for every
# primitive that takes a kernel and an optional bias
WEIGHTED_OPS = [
    pytest.param(T.linear, (2, 3, 5), (4, 5), 4, {}, id="linear"),
    pytest.param(T.conv2d, (2, 3, 6, 6), (4, 3, 3, 3), 4, {"pad": 1}, id="conv2d"),
    pytest.param(T.depthwise_conv2d, (2, 3, 6, 6), (3, 1, 3, 3), 3, {"pad": 1},
                 id="depthwise_conv2d"),
    pytest.param(T.depthwise_conv2d_nhwc, (2, 6, 6, 3), (3, 1, 3, 3), 3, {"pad": 1},
                 id="depthwise_conv2d_nhwc"),
    pytest.param(T.patch_conv2d_nhwc, (2, 4, 4, 3), (5, 3, 2, 2), 5, {},
                 id="patch_conv2d_nhwc"),
]


class TestFrozenOperands:
    """Frozen and absent operands keep no edge on the tape."""

    @pytest.mark.parametrize("op, xs, ks, nb, kw", WEIGHTED_OPS)
    def test_edges_are_the_operands_that_require_grad(self, op, xs, ks, nb, kw):
        rng = np.random.default_rng(0)
        arrays = (rng.normal(size=xs), rng.normal(size=ks), rng.normal(size=nb))
        for flags in [(fx, fk, fb) for fx in (False, True) for fk in (False, True)
                      for fb in (False, True, None)]:
            x, k, b = (None if f is None else t64(a, requires_grad=f)
                       for a, f in zip(arrays, flags))
            y = op(x, k, b, **kw)
            want = tuple(t for t in (x, k, b) if t is not None and t.requires_grad)
            assert y._parents == want, flags
            assert len(y._vjps) == len(want) and y.requires_grad == bool(want)

    @pytest.mark.parametrize("op, xs, ks, nb, kw", WEIGHTED_OPS)
    def test_frozen_kernel_and_bias_record_one_edge(self, op, xs, ks, nb, kw):
        rng = np.random.default_rng(1)
        xd, kd, bd = rng.normal(size=xs), rng.normal(size=ks), rng.normal(size=nb)
        x = t64(xd)
        y = op(x, t64(kd, False), t64(bd, False), **kw)
        assert y._parents == (x,) and len(y._vjps) == 1
        g = rng.normal(size=y.shape)
        y.backward(g)
        ref = t64(xd)
        op(ref, t64(kd), t64(bd), **kw).backward(g)
        assert np.array_equal(x.grad, ref.grad)

    def test_frozen_ness_is_read_when_the_op_is_recorded(self):
        x = t64([[1.0, 2.0]])
        w = t64(np.eye(2), requires_grad=False)
        out = T.tsum(T.linear(x, w))
        w.requires_grad = True
        out.backward()
        assert w.grad is None
        np.testing.assert_allclose(x.grad, [[1.0, 1.0]])


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

    def test_lora_linear_with_dropout(self):
        rng = np.random.default_rng(7)
        x, w, b = (t64(rng.normal(size=s)) for s in ((6, 5), (4, 5), (4,)))
        a, bb = t64(rng.normal(size=(2, 5))), t64(rng.normal(size=(4, 2)))
        keep = rng.random(x.shape) >= 0.3
        assert keep.any() and not keep.all()
        labels = rng.integers(0, 4, size=6)

        def f(*args):
            return T.softmax_cross_entropy(T.lora_linear(*args, 1.5, keep, 0.3), labels)

        assert T.grad_check(f, [x, w, b, a, bb]) < 1e-7

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
