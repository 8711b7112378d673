"""Tests for model construction, forward pass, and saliency."""

import numpy as np
import pytest
from _oracles import closed_form_backbone_count as closed_form_count
from _oracles import depthwise_conv2d_loops

from convlora import tensor as T
from convlora.backbone import (
    MAX_DEPTH,
    Model,
    ModelConfig,
    base_config,
    block_forward,
    build_model,
    forward,
    param_shapes,
    saliency,
    tiny_test_config,
)


class TestBuildModel:
    def test_toy_count_matches_closed_form(self):
        cfg = tiny_test_config()
        model = build_model(cfg, seed=0)
        walked = sum(t.data.size for t in model.params.values())
        assert walked == closed_form_count(cfg.depths, cfg.dims, cfg.num_classes)

    def test_base_config_near_89m(self):
        # metadata-only: sum the declared shapes without materializing
        shapes = param_shapes(base_config(num_classes=1000))
        total = sum(int(np.prod(s)) for _, s, _ in shapes)
        assert abs(total - 89_000_000) / 89_000_000 < 0.02
        assert total == closed_form_count((3, 3, 27, 3), (128, 256, 512, 1024), 1000)

    def test_bad_depths_length(self):
        with pytest.raises(ValueError):
            build_model(ModelConfig(depths=(1, 1, 1), dims=(8, 16, 32, 64),
                                    num_classes=4, image_size=32))

    def test_depth_bound(self):
        ok = ModelConfig(depths=(1, 1, MAX_DEPTH, 1), dims=(8, 16, 32, 64),
                         num_classes=4, image_size=32)
        ok.validate()
        with pytest.raises(ValueError, match="at most"):
            ModelConfig(depths=(1, 1, MAX_DEPTH + 1, 1), dims=(8, 16, 32, 64),
                        num_classes=4, image_size=32).validate()

    def test_bad_image_size(self):
        with pytest.raises(ValueError):
            build_model(ModelConfig(depths=(1, 1, 1, 1), dims=(8, 16, 32, 64),
                                    num_classes=4, image_size=30))

    def test_deterministic_per_seed(self):
        cfg = tiny_test_config()
        a = build_model(cfg, seed=5)
        b = build_model(cfg, seed=5)
        c = build_model(cfg, seed=6)
        for name in a.params:
            assert np.array_equal(a.params[name].data, b.params[name].data)
        assert any(not np.array_equal(a.params[n].data, c.params[n].data)
                   for n in a.params)

    def test_init_scheme(self):
        model = build_model(tiny_test_config(), seed=0)
        p = model.params
        assert not p["stem.conv.bias"].data.any()
        assert (p["stem.norm.gamma"].data == 1.0).all()
        assert not p["stages.0.blocks.0.grn.gamma"].data.any()
        assert not p["stages.0.blocks.0.grn.beta"].data.any()
        w = p["stages.2.blocks.0.fc1.weight"].data
        assert np.abs(w).max() <= 0.04 + 1e-6     # truncated at two std devs
        assert 0.01 < w.std() < 0.03
        assert all(t.requires_grad for t in p.values())

    def test_unique_stable_names(self):
        cfg = tiny_test_config()
        names = [n for n, _, _ in param_shapes(cfg)]
        assert len(names) == len(set(names))
        assert names == list(build_model(cfg, seed=1).params.keys())


class TestForward:
    def test_logit_shape(self):
        model = build_model(tiny_test_config(), seed=0)
        x = T.Tensor(np.random.default_rng(0).normal(size=(2, 3, 32, 32)))
        assert forward(model, x).shape == (2, 4)

    def test_zero_input_gives_tied_logits(self):
        model = build_model(tiny_test_config(), seed=0)
        model.params["head.weight"].data[:] = 0.0
        logits = forward(model, T.Tensor(np.zeros((1, 3, 32, 32)))).data
        assert np.all(logits == logits[0, 0])

    def test_batch_permutation_equivariance(self):
        model = build_model(tiny_test_config(), seed=1)
        rng = np.random.default_rng(2)
        x = rng.normal(size=(4, 3, 32, 32)).astype(np.float32)
        perm = np.array([2, 0, 3, 1])
        full = forward(model, T.Tensor(x)).data
        permuted = forward(model, T.Tensor(x[perm])).data
        np.testing.assert_allclose(permuted, full[perm], rtol=1e-5, atol=1e-6)

    def test_deterministic(self):
        model = build_model(tiny_test_config(), seed=3)
        x = T.Tensor(np.random.default_rng(4).normal(size=(2, 3, 32, 32)))
        assert np.array_equal(forward(model, x).data, forward(model, x).data)

    def test_wrong_spatial_size(self):
        model = build_model(tiny_test_config(), seed=0)
        with pytest.raises(T.ShapeError):
            forward(model, T.Tensor(np.zeros((1, 3, 64, 64))))

    def test_block_is_identity_when_branch_zeroed(self):
        model = build_model(tiny_test_config(), seed=7)
        pre = "stages.1.blocks.0."
        model.params[pre + "fc2.weight"].data[:] = 0.0
        model.params[pre + "fc2.bias"].data[:] = 0.0
        rng = np.random.default_rng(8)
        x = T.Tensor(rng.normal(size=(1, 8, 8, 16)).astype(np.float32))
        out = block_forward(model.params, pre, x, lambda n, a, w, b: T.linear(a, w, b))
        assert np.array_equal(out.data, x.data)


def _nchw_reference_forward(model, x):
    """The backbone written with the NCHW op ``conv2d`` and the float64 loop
    reference for the depthwise convolution, transposing only around each
    LayerNorm; run it under ``no_grad``."""
    p, cfg = model.params, model.config

    def norm(h, pre):
        h = T.layer_norm(T.transpose(h, (0, 2, 3, 1)), p[pre + "gamma"], p[pre + "beta"],
                         eps=1e-6)
        return T.transpose(h, (0, 3, 1, 2))

    h = norm(T.conv2d(x, p["stem.conv.weight"], p["stem.conv.bias"], stride=4),
             "stem.norm.")
    for s in range(4):
        if s > 0:
            pre = f"downsample.{s - 1}."
            h = T.conv2d(norm(h, pre + "norm."), p[pre + "conv.weight"],
                         p[pre + "conv.bias"], stride=2)
        for b in range(cfg.depths[s]):
            pre = f"stages.{s}.blocks.{b}."
            r = depthwise_conv2d_loops(h.data, p[pre + "dwconv.weight"].data, 3)
            r = T.Tensor((r + p[pre + "dwconv.bias"].data[:, None, None]).astype(h.dtype))
            r = T.layer_norm(T.transpose(r, (0, 2, 3, 1)), p[pre + "norm.gamma"],
                             p[pre + "norm.beta"], eps=1e-6)
            r = T.grn(T.gelu(T.linear(r, p[pre + "fc1.weight"], p[pre + "fc1.bias"])),
                      p[pre + "grn.gamma"], p[pre + "grn.beta"], eps=1e-6)
            r = T.linear(r, p[pre + "fc2.weight"], p[pre + "fc2.bias"])
            h = T.add(h, T.transpose(r, (0, 3, 1, 2)))
    h = T.layer_norm(T.global_avg_pool(h), p["final_norm.gamma"], p["final_norm.beta"],
                     eps=1e-6)
    return T.linear(h, p["head.weight"], p["head.bias"])


class TestChannelLastLayout:
    @pytest.mark.parametrize("config", [
        tiny_test_config(num_classes=6),
        ModelConfig(depths=(1, 1, 1, 1), dims=(128, 256, 512, 1024), num_classes=6,
                    image_size=32),
    ], ids=["tiny", "base-dims"])
    def test_logits_match_nchw_reference(self, config):
        model = build_model(config, seed=11)
        rng = np.random.default_rng(12)
        # nonzero GRN affines, so every layer of the branch is exercised
        for name, t in model.params.items():
            if ".grn." in name:
                t.data[:] = rng.normal(scale=0.5, size=t.shape)
        x = T.Tensor(rng.normal(size=(3, 3, 32, 32)).astype(np.float32))
        with T.no_grad():
            got = forward(model, x).data
            ref = _nchw_reference_forward(model, x).data
        np.testing.assert_allclose(got, ref, rtol=1e-4, atol=1e-5)

    def test_forward_transposes_once_in_and_once_out(self, monkeypatch):
        calls = []

        def counting(x, axes):
            calls.append(axes)
            return transpose(x, axes)

        transpose = T.transpose
        monkeypatch.setattr(T, "transpose", counting)
        forward(build_model(tiny_test_config(), seed=0),
                T.Tensor(np.zeros((2, 3, 32, 32), dtype=np.float32)))
        assert calls == [(0, 2, 3, 1), (0, 3, 1, 2)]

    def test_block_rejects_an_nchw_map(self):
        model = build_model(tiny_test_config(), seed=0)
        x = T.Tensor(np.zeros((1, 16, 8, 8), dtype=np.float32))    # stage 1: C = 16
        with pytest.raises(T.ShapeError, match="8 channels"):
            block_forward(model.params, "stages.1.blocks.0.", x,
                          lambda n, a, w, b: T.linear(a, w, b))


def _block_params(rng, c, mlp=4):
    p = {
        "dwconv.weight": rng.normal(scale=0.3, size=(c, 1, 7, 7)),
        "dwconv.bias": rng.normal(scale=0.1, size=c),
        "norm.gamma": rng.normal(loc=1.0, scale=0.1, size=c),
        "norm.beta": rng.normal(scale=0.1, size=c),
        "fc1.weight": rng.normal(scale=0.3, size=(mlp * c, c)),
        "fc1.bias": rng.normal(scale=0.1, size=mlp * c),
        "grn.gamma": rng.normal(scale=0.3, size=mlp * c),
        "grn.beta": rng.normal(scale=0.1, size=mlp * c),
        "fc2.weight": rng.normal(scale=0.3, size=(c, mlp * c)),
        "fc2.bias": rng.normal(scale=0.1, size=c),
    }
    return {k: T.Tensor(v.astype(np.float64), requires_grad=True) for k, v in p.items()}


class TestGradients:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_full_block_gradcheck(self, seed):
        rng = np.random.default_rng(seed)
        params = _block_params(rng, c=8)
        x = T.Tensor(rng.normal(size=(1, 4, 4, 8)), requires_grad=True)
        tensors = [x] + list(params.values())

        def f(*ts):
            return T.tsum(block_forward(params, "", ts[0],
                                        lambda n, a, w, b: T.linear(a, w, b)))

        err = T.grad_check(f, tensors, max_coords_per_input=20,
                           rng=np.random.default_rng(seed + 100))
        assert err < 1e-5

    def test_end_to_end_gradcheck(self):
        model = build_model(tiny_test_config(), seed=0).astype(np.float64)
        rng = np.random.default_rng(1)
        x = T.Tensor(rng.normal(size=(1, 3, 32, 32)), requires_grad=True)
        labels = np.array([2])
        tensors = [x] + list(model.params.values())

        def f(*ts):
            return T.softmax_cross_entropy(forward(model, ts[0]), labels)

        err = T.grad_check(f, tensors, max_coords_per_input=2,
                           rng=np.random.default_rng(2))
        assert err < 1e-4


class TestSaliency:
    def test_single_pixel_logit(self):
        # a "model" whose only logit reads exactly one pixel of channel 0
        k = np.zeros((1, 3, 8, 8), dtype=np.float32)
        k[0, 0, 2, 3] = 1.0
        kernel = T.Tensor(k)

        def fn(x):
            return T.global_avg_pool(T.conv2d(x, kernel, stride=1, pad=0))

        rng = np.random.default_rng(0)
        image = rng.normal(size=(3, 8, 8)).astype(np.float32)
        m = saliency(fn, image, class_idx=0)
        expected = np.zeros((8, 8))
        expected[2, 3] = 1.0
        np.testing.assert_allclose(m, expected, atol=1e-7)

    def test_zero_model_gives_zero_map(self):
        model = build_model(tiny_test_config(), seed=0)
        model.params["head.weight"].data[:] = 0.0
        m = saliency(model, np.zeros((3, 32, 32), dtype=np.float32), class_idx=1)
        assert m.shape == (32, 32)
        assert not m.any()

    def test_range_contract(self):
        model = build_model(tiny_test_config(), seed=4)
        rng = np.random.default_rng(5)
        image = rng.normal(size=(3, 32, 32)).astype(np.float32)
        m = saliency(model, image, class_idx=0)
        assert m.min() >= 0.0 and m.max() <= 1.0
        assert m.max() == 1.0     # min-max normalized, gradient not all zero

    def test_class_out_of_range(self):
        model = build_model(tiny_test_config(), seed=0)
        with pytest.raises(ValueError):
            saliency(model, np.zeros((3, 32, 32)), class_idx=4)
