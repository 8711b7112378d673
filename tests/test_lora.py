"""Tests for adapter construction, injection, merging, and freeze discipline."""

import tracemalloc

import numpy as np
import pytest

from convlora import tensor as T
from convlora.backbone import (ModelConfig, base_config, build_model, forward,
                               tiny_test_config)
from convlora.lora import (
    LoraAdapter,
    adapted_linear,
    adapter_param_count,
    count_params,
    head_only,
    init_adapter,
    inject,
    merge,
    merged_model,
    peft_forward,
)
from convlora.tensor import Tensor


class TestInitAdapter:
    def test_shapes(self):
        ad = init_adapter(d=512, k=128, r=16, alpha=32.0, dropout_p=0.1, seed=0)
        assert ad.A.shape == (16, 128)
        assert ad.B.shape == (512, 16)

    def test_zero_delta_at_init(self):
        ad = init_adapter(d=8, k=8, r=2, alpha=16.0, dropout_p=0.0, seed=1)
        assert not ad.B.data.any()
        assert ad.A.data.any()

    def test_rank_too_large(self):
        with pytest.raises(ValueError):
            init_adapter(d=128, k=128, r=200, alpha=1.0, dropout_p=0.0, seed=0)

    def test_kaiming_bound(self):
        ad = init_adapter(d=64, k=24, r=4, alpha=8.0, dropout_p=0.0, seed=3)
        assert np.abs(ad.A.data).max() <= np.sqrt(6.0 / 24)

    def test_deterministic(self):
        a = init_adapter(8, 8, 2, 4.0, 0.0, seed=9)
        b = init_adapter(8, 8, 2, 4.0, 0.0, seed=9)
        assert np.array_equal(a.A.data, b.A.data)


class TestAdaptedLinear:
    def test_zero_b_equals_base(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(5, 8)).astype(np.float32))
        w = Tensor(rng.normal(size=(6, 8)).astype(np.float32))
        b = Tensor(rng.normal(size=6).astype(np.float32))
        ad = init_adapter(6, 8, 2, 16.0, 0.0, seed=1)
        out = adapted_linear(x, w, b, ad)
        np.testing.assert_array_equal(out.data, T.linear(x, w, b).data)

    def test_rank_one_hand_computation(self):
        ad = LoraAdapter(A=Tensor([[1.0, 0.0]]), B=Tensor([[1.0], [0.0]]),
                         rank=1, alpha=1.0, dropout_p=0.0, target="t")
        x = Tensor([[2.0, 5.0]])
        w = Tensor(np.zeros((2, 2)))
        b = Tensor(np.zeros(2))
        out = adapted_linear(x, w, b, ad)
        np.testing.assert_allclose(out.data, [[2.0, 0.0]])

    def test_linear_in_alpha(self):
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(size=(3, 4)).astype(np.float32))
        w = Tensor(rng.normal(size=(5, 4)).astype(np.float32))
        b = Tensor(np.zeros(5, dtype=np.float32))
        ad = init_adapter(5, 4, 2, alpha=2.0, dropout_p=0.0, seed=3)
        ad.B.data[:] = rng.normal(size=ad.B.shape).astype(np.float32)
        base = T.linear(x, w, b).data
        delta1 = adapted_linear(x, w, b, ad).data - base
        ad2 = LoraAdapter(ad.A, ad.B, ad.rank, alpha=4.0, dropout_p=0.0, target="t")
        delta2 = adapted_linear(x, w, b, ad2).data - base
        np.testing.assert_allclose(delta2, 2.0 * delta1, rtol=1e-5)
        ad_eq = LoraAdapter(ad.A, ad.B, ad.rank, alpha=float(ad.rank),
                            dropout_p=0.0, target="t")
        assert ad_eq.scaling == 1.0

    def test_linear_in_b(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.normal(size=(2, 4)).astype(np.float64))
        w = Tensor(np.zeros((3, 4), dtype=np.float64))
        b = Tensor(np.zeros(3, dtype=np.float64))
        ad = init_adapter(3, 4, 2, alpha=2.0, dropout_p=0.0, seed=5).astype(np.float64)
        ad.B.data[:] = rng.normal(size=ad.B.shape)
        y1 = adapted_linear(x, w, b, ad).data
        ad.B.data[:] *= 3.0
        y3 = adapted_linear(x, w, b, ad).data
        np.testing.assert_allclose(y3, 3.0 * y1, rtol=1e-12)

    def test_dropout_only_in_train_mode(self):
        rng = np.random.default_rng(6)
        x = Tensor(rng.normal(size=(4, 8)).astype(np.float32))
        w = Tensor(rng.normal(size=(6, 8)).astype(np.float32))
        b = Tensor(np.zeros(6, dtype=np.float32))
        ad = init_adapter(6, 8, 2, 4.0, dropout_p=0.5, seed=7)
        ad.B.data[:] = 1.0
        eval1 = adapted_linear(x, w, b, ad, train_mode=False).data
        eval2 = adapted_linear(x, w, b, ad, train_mode=False).data
        assert np.array_equal(eval1, eval2)
        tr1 = adapted_linear(x, w, b, ad, train_mode=True,
                             rng=np.random.default_rng(0)).data
        tr2 = adapted_linear(x, w, b, ad, train_mode=True,
                             rng=np.random.default_rng(1)).data
        assert not np.array_equal(tr1, tr2)

    def test_gradients_flow_to_adapters(self):
        rng = np.random.default_rng(8)
        x = Tensor(rng.normal(size=(3, 6)), requires_grad=True).astype(np.float64)
        w = Tensor(rng.normal(size=(4, 6)).astype(np.float64))   # frozen
        b = Tensor(rng.normal(size=4).astype(np.float64))
        ad = init_adapter(4, 6, 2, 8.0, 0.0, seed=9).astype(np.float64)
        ad.B.data[:] = rng.normal(size=ad.B.shape)

        def f(xx, a, bb):
            adapter = LoraAdapter(a, bb, ad.rank, ad.alpha, 0.0, "t")
            return T.tsum(adapted_linear(xx, w, b, adapter))

        err = T.grad_check(f, [x, ad.A, ad.B])
        assert err < 1e-7
        assert w.grad is None


class TestMerge:
    def test_zero_b_is_bitwise_identity(self):
        rng = np.random.default_rng(0)
        w = rng.normal(size=(6, 8)).astype(np.float32)
        ad = init_adapter(6, 8, 2, 16.0, 0.0, seed=1)
        assert np.array_equal(merge(w, ad), w)

    def test_merge_matches_adapted_forward(self):
        rng = np.random.default_rng(1)
        w = Tensor(rng.normal(size=(6, 8)).astype(np.float32))
        b = Tensor(rng.normal(size=6).astype(np.float32))
        ad = init_adapter(6, 8, 3, 6.0, 0.1, seed=2)
        ad.B.data[:] = rng.normal(scale=0.3, size=ad.B.shape).astype(np.float32)
        merged = Tensor(merge(w.data, ad))
        for _ in range(100):
            x = Tensor(rng.normal(size=(2, 8)).astype(np.float32))
            np.testing.assert_allclose(adapted_linear(x, w, b, ad).data,
                                       T.linear(x, merged, b).data,
                                       atol=1e-5)

    def test_round_trip(self):
        rng = np.random.default_rng(3)
        w = rng.normal(size=(5, 7)).astype(np.float32)
        ad = init_adapter(5, 7, 2, 4.0, 0.0, seed=4)
        ad.B.data[:] = rng.normal(size=ad.B.shape).astype(np.float32)
        back = merge(w, ad) - ad.scaling * (ad.B.data @ ad.A.data)
        np.testing.assert_allclose(back, w, atol=1e-6)

    def test_shape_mismatch(self):
        ad = init_adapter(4, 4, 2, 4.0, 0.0, seed=5)
        with pytest.raises(T.ShapeError):
            merge(np.zeros((3, 3), dtype=np.float32), ad)


class TestInject:
    def test_adapter_count_base_config(self):
        # metadata only: count matched layers without materializing weights
        cfg = base_config(num_classes=1000)
        from convlora.backbone import linear_layer_shapes
        matched = [n for n in linear_layer_shapes(cfg) if n.endswith(("fc1", "fc2"))]
        assert len(matched) == 2 * sum(cfg.depths) == 72

    def test_closed_form_adapter_params(self):
        cfg = base_config(num_classes=1000)
        assert adapter_param_count(cfg, r=16) == 2_887_680

    def test_total_trainable_near_2_9m_at_20_classes(self):
        # adapters plus a 20-class head land on the headline ~2.9M figure
        cfg = base_config(num_classes=20)
        adapters = adapter_param_count(cfg, r=16)
        head = 20 * cfg.dims[3] + 20
        assert abs((adapters + head) - 2_900_000) / 2_900_000 < 0.005

    def test_inject_freezes_base(self):
        model = build_model(tiny_test_config(), seed=0)
        peft = inject(model, r=2, alpha=4.0, dropout_p=0.0, seed=1)
        assert len(peft.adapters) == 8
        trainable = peft.trainable_params()
        assert set(trainable) == (
            {f"lora.{n}.A" for n in peft.adapters}
            | {f"lora.{n}.B" for n in peft.adapters}
            | {"head.weight", "head.bias"})
        for name, t in peft.base.params.items():
            if name in ("head.weight", "head.bias"):
                assert t.requires_grad
            else:
                assert not t.requires_grad

    def test_inject_does_not_touch_input_model(self):
        model = build_model(tiny_test_config(), seed=0)
        inject(model, r=2, alpha=4.0, dropout_p=0.0, seed=1)
        assert all(t.requires_grad for t in model.params.values())

    def test_no_matching_layers(self):
        model = build_model(tiny_test_config(), seed=0)
        with pytest.raises(ValueError):
            inject(model, targets=("attn",), r=2, alpha=4.0, dropout_p=0.0, seed=0)

    def test_head_reinitialized_for_new_class_count(self):
        model = build_model(tiny_test_config(num_classes=4), seed=0)
        peft = inject(model, r=2, alpha=4.0, dropout_p=0.0, seed=1, num_classes=7)
        assert peft.base.params["head.weight"].shape == (7, 64)
        assert peft.config.num_classes == 7

    @pytest.mark.parametrize("r, targets", [(0, ("fc1", "fc2")), (9, ("fc1",)),
                                            (2, ("attn",)), (2, ())])
    def test_count_rejects_what_inject_rejects(self, r, targets):
        # tiny dims: the smallest matched layer is 8 x 32
        model = build_model(tiny_test_config(), seed=0)
        with pytest.raises(ValueError):
            inject(model, targets=targets, r=r, alpha=4.0, dropout_p=0.0)
        with pytest.raises(ValueError):
            adapter_param_count(model.config, r=r, targets=targets)

    def test_count_params_walk_vs_closed_form(self):
        cfg = tiny_test_config()
        model = build_model(cfg, seed=0)
        peft = inject(model, r=2, alpha=4.0, dropout_p=0.0, seed=1)
        counts = count_params(peft)
        assert counts["adapter"] == adapter_param_count(cfg, r=2)
        assert counts["trainable"] == counts["adapter"] + counts["head"]
        base_counts = count_params(model)
        assert base_counts["trainable"] == base_counts["total"]


class TestZeroInitEquivalence:
    def test_eval_outputs_match_base_float64(self):
        model = build_model(tiny_test_config(), seed=2).astype(np.float64)
        peft = inject(model, r=4, alpha=8.0, dropout_p=0.1, seed=3).astype(np.float64)
        rng = np.random.default_rng(4)
        x = Tensor(rng.normal(size=(2, 3, 32, 32)))
        np.testing.assert_array_equal(peft_forward(peft, x).data,
                                      forward(model, x).data)

    def test_fresh_head_only_for_new_class_count(self):
        model = build_model(tiny_test_config(), seed=2)
        same = inject(model, r=2, alpha=4.0, dropout_p=0.0, seed=3)
        assert np.array_equal(same.base.params["head.weight"].data,
                              model.params["head.weight"].data)
        grown = inject(model, r=2, alpha=4.0, dropout_p=0.0, seed=3, num_classes=9)
        assert grown.base.params["head.weight"].shape == (9, 64)


class TestMergedModel:
    def test_forward_parity_all_layers(self):
        model = build_model(tiny_test_config(), seed=5)
        peft = inject(model, r=2, alpha=4.0, dropout_p=0.0, seed=6)
        rng = np.random.default_rng(7)
        for ad in peft.adapters.values():
            ad.B.data[:] = rng.normal(scale=0.1, size=ad.B.shape).astype(np.float32)
        plain = merged_model(peft)
        x = Tensor(rng.normal(size=(2, 3, 32, 32)).astype(np.float32))
        adapted = peft_forward(peft, x).data
        folded = forward(plain, x).data
        np.testing.assert_allclose(adapted, folded, atol=1e-5)


class TestHeadOnly:
    def test_no_adapters_head_trainable(self):
        model = build_model(tiny_test_config(), seed=0)
        peft = head_only(model, seed=1)
        assert peft.adapters == {}
        assert set(peft.trainable_params()) == {"head.weight", "head.bias"}

    def test_head_matches_inject_head(self):
        # the fresh head is seeded by (seed, 0x6EAD) alone, adapters or not
        model = build_model(tiny_test_config(), seed=0)
        for num_classes in (None, 9):
            ho = head_only(model, seed=3, num_classes=num_classes)
            full = inject(model, r=2, alpha=4.0, dropout_p=0.0, seed=3,
                          num_classes=num_classes)
            assert ho.config == full.config
            for name in ("head.weight", "head.bias"):
                assert np.array_equal(ho.base.params[name].data,
                                      full.base.params[name].data)


class TestSharedBase:
    """An adapted model holds the source's frozen arrays, never a copy."""

    @pytest.mark.parametrize("num_classes", [None, 9])
    def test_frozen_tensors_are_read_only_views(self, num_classes):
        model = build_model(tiny_test_config(), seed=0)
        for peft in (inject(model, r=2, alpha=4.0, dropout_p=0.0, seed=1,
                            num_classes=num_classes),
                     head_only(model, seed=1, num_classes=num_classes)):
            for name, src in model.params.items():
                if name.startswith("head."):
                    continue
                t = peft.base.params[name]
                assert not t.requires_grad
                assert np.shares_memory(t.data, src.data), name
                with pytest.raises(ValueError):
                    t.data[...] = 0.0
                with pytest.raises(ValueError):
                    t.data += 1.0

    def test_head_and_adapters_own_their_memory(self):
        model = build_model(tiny_test_config(), seed=0)
        for num_classes in (None, 9):
            peft = inject(model, r=2, alpha=4.0, dropout_p=0.0, seed=1,
                          num_classes=num_classes)
            for name, t in peft.trainable_params().items():
                assert t.data.flags.writeable
                assert not any(np.shares_memory(t.data, src.data)
                               for src in model.params.values()), name

    def test_input_model_flags_and_values_untouched(self):
        model = build_model(tiny_test_config(), seed=0)
        model.params["stem.conv.bias"].requires_grad = False
        flags = {n: t.requires_grad for n, t in model.params.items()}
        values = {n: t.data.copy() for n, t in model.params.items()}
        peft = inject(model, r=2, alpha=4.0, dropout_p=0.0, seed=1, num_classes=9)
        merged = merged_model(peft)
        for t in list(peft.trainable_params().values()) + list(merged.params.values()):
            t.data += 1.0
        for name, t in model.params.items():
            assert t.requires_grad == flags[name]
            assert t.data.flags.writeable
            assert np.array_equal(t.data, values[name]), name
        assert model.config.num_classes == 4

    def test_merged_model_shares_nothing(self):
        model = build_model(tiny_test_config(), seed=5)
        peft = inject(model, r=2, alpha=4.0, dropout_p=0.0, seed=6)
        rng = np.random.default_rng(7)
        for ad in peft.adapters.values():
            ad.B.data[:] = rng.normal(scale=0.1, size=ad.B.shape).astype(np.float32)
        x = Tensor(rng.normal(size=(2, 3, 32, 32)).astype(np.float32))
        before = peft_forward(peft, x).data
        merged = merged_model(peft)
        owned = list(peft.base.params.values()) + [
            t for ad in peft.adapters.values() for t in (ad.A, ad.B)]
        for name, t in merged.params.items():
            assert t.requires_grad and t.data.flags.writeable
            assert not any(np.shares_memory(t.data, o.data) for o in owned), name
            t.data += 1.0
        assert np.array_equal(peft_forward(peft, x).data, before)

    def test_inject_allocates_only_what_trains(self):
        cfg = ModelConfig(depths=(1, 1, 3, 1), dims=(32, 64, 128, 256),
                          num_classes=10, image_size=32)
        model = build_model(cfg, seed=0)
        base_bytes = sum(t.data.nbytes for t in model.params.values())
        tracemalloc.start()
        try:
            peft = inject(model, r=4, alpha=8.0, dropout_p=0.0, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        trainable = sum(t.data.nbytes for t in peft.trainable_params().values())
        margin = 256 * 1024
        assert trainable + margin < base_bytes / 4
        assert peak < trainable + margin
