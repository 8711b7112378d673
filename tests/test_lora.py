"""Tests for adapter construction, injection, merging, and freeze discipline."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from _oracles import adapted_linear_chain, merge_with_temporaries

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
    with_trainables,
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


class TestFusedOp:
    """``adapted_linear`` is one ``tensor.lora_linear`` op with the bits of
    the six-op chain it replaces."""

    @pytest.mark.parametrize("train_mode", [True, False], ids=["train", "eval"])
    @pytest.mark.parametrize("base_trains", [False, True], ids=["frozen", "trainable"])
    def test_bitwise_equal_to_the_chain(self, train_mode, base_trains):
        rng = np.random.default_rng(11)
        shapes = {"x": (2, 3, 4, 16), "w": (24, 16), "b": (24,), "A": (4, 16),
                  "B": (24, 4)}
        arrays = {n: rng.normal(size=s).astype(np.float32) for n, s in shapes.items()}
        g = rng.normal(size=(2, 3, 4, 24)).astype(np.float32)

        def run(fn):
            t = {n: Tensor(a.copy(), requires_grad=base_trains or n not in ("w", "b"))
                 for n, a in arrays.items()}
            ad = LoraAdapter(t["A"], t["B"], rank=4, alpha=6.0, dropout_p=0.25,
                             target="t")
            out = fn(t["x"], t["w"], t["b"], ad, train_mode=train_mode,
                     rng=np.random.default_rng(3))
            out.backward(g)
            return out.data, {n: v.grad for n, v in t.items()}

        out, grads = run(adapted_linear)
        ref_out, ref_grads = run(adapted_linear_chain)
        assert out.tobytes() == ref_out.tobytes()
        for name, ref in ref_grads.items():
            assert (ref is None) == (not base_trains and name in ("w", "b"))
            assert (grads[name] is None) == (ref is None), name
            if ref is not None:
                assert grads[name].tobytes() == ref.tobytes(), name

    def test_one_tape_node(self):
        x = Tensor(np.ones((3, 8), dtype=np.float32), requires_grad=True)
        w = Tensor(np.ones((6, 8), dtype=np.float32))
        ad = init_adapter(6, 8, 2, 4.0, dropout_p=0.5, seed=1)
        out = adapted_linear(x, w, None, ad, train_mode=True,
                             rng=np.random.default_rng(0))
        assert out._parents == (x, ad.A, ad.B)

    def test_dropout_argument_errors(self):
        x = Tensor(np.ones((3, 8), dtype=np.float32))
        w = Tensor(np.ones((6, 8), dtype=np.float32))
        ad = init_adapter(6, 8, 2, 4.0, dropout_p=0.5, seed=1)
        with pytest.raises(ValueError, match="explicit rng"):
            adapted_linear(x, w, None, ad, train_mode=True)
        bad = dataclasses.replace(ad, dropout_p=1.0)
        with pytest.raises(ValueError, match="p must be in"):
            adapted_linear(x, w, None, bad)


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

    # channels of every block in the tiny (8-64) and base (128-1024)
    # configs; fc1 is [4C, C] and fc2 [C, 4C]
    @pytest.mark.parametrize("c", [8, 16, 32, 64, 128, 256, 512, 1024])
    @pytest.mark.parametrize("fc", ["fc1", "fc2"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bitwise_equal_to_merge_with_temporaries(self, c, fc, dtype):
        d, k = (4 * c, c) if fc == "fc1" else (c, 4 * c)
        rng = np.random.default_rng(c)
        w = rng.normal(scale=0.02, size=(d, k)).astype(np.float32)
        # the ranks the tiny and base runs use; alpha 10 makes the scaling
        # 2.5 or 0.625, which, unlike a power of two, rounds when it multiplies
        r = 4 if c < 128 else 16
        ad = init_adapter(d, k, r, 10.0, 0.1, seed=c).astype(dtype)
        ad.B.data[:] = rng.normal(scale=0.01, size=ad.B.shape)
        merged = merge(w, ad)
        assert merged.dtype == np.float32
        assert np.array_equal(merged, merge_with_temporaries(w, ad))

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

    def test_every_adapter_starts_from_its_own_a(self):
        # two blocks per stage, so every stage has same-shape layers
        model = build_model(dataclasses.replace(tiny_test_config(), depths=(2, 2, 2, 2)),
                            seed=0)
        first, again = (inject(model, r=2, alpha=4.0, dropout_p=0.0, seed=3)
                        for _ in range(2))
        a = [ad.A.data.tobytes() for ad in first.adapters.values()]
        assert len(a) == 16 and len(set(a)) == 16
        for name, ad in first.adapters.items():
            assert np.array_equal(ad.A.data, again.adapters[name].A.data)

    @pytest.mark.parametrize("alpha", [float("nan"), float("inf"), -float("inf"),
                                       pytest.param(10**400, id="int-beyond-float")])
    def test_non_finite_alpha_rejected(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            init_adapter(8, 8, 2, alpha, 0.0, seed=0)
        with pytest.raises(ValueError, match="alpha"):
            inject(build_model(tiny_test_config(), seed=0), r=2, alpha=alpha)

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


class TestFrozenBaseOffTheTape:
    def test_lora_loss_tape_reaches_only_what_trains(self):
        model = build_model(tiny_test_config(), seed=0)
        peft = inject(model, r=2, alpha=4.0, dropout_p=0.1, seed=1)
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(size=(2, 3, 32, 32)).astype(np.float32))
        logits = peft_forward(peft, x, train_mode=True, rng=rng)
        loss = T.softmax_cross_entropy(logits, np.array([0, 3]))
        frozen = {id(t) for t in peft.base.params.values() if not t.requires_grad}
        assert len(frozen) == len(model.params) - 2
        seen, stack, leaves = set(), [loss], set()
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            assert len(node._parents) == len(node._vjps)
            for parent in node._parents:
                assert parent.requires_grad and id(parent) not in frozen
                stack.append(parent)
            if not node._parents:
                leaves.add(id(node))
        assert leaves == {id(t) for t in peft.trainable_params().values()}


class TestStepMemory:
    def test_tiny_lora_step_peak(self):
        # one step of the tiny config at 32 px, batch 32, r=4, dropout 0.1:
        # the backward frees the tape as it walks it, so the step peaks at
        # about the forward's tape (3.4 MB traced); keeping every node's
        # output and gradient until the walk ends peaked at 10.3 MB
        model = build_model(tiny_test_config(6, 32), seed=0)
        peft = inject(model, r=4, alpha=8.0, dropout_p=0.1, seed=0)
        rng = np.random.default_rng(0)
        x = Tensor(rng.normal(size=(32, 3, 32, 32)).astype(np.float32))
        labels = rng.integers(0, 6, size=32)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            logits = peft_forward(peft, x, train_mode=True, rng=np.random.default_rng(1))
            T.softmax_cross_entropy(logits, labels).backward()
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert all(t.grad is not None for t in peft.trainable_params().values())
        assert peak < 5e6


class TestWithTrainables:
    """One builder for every partly frozen model: named arrays are taken over
    as trainable leaves, every other tensor is a read-only view."""

    def _check_frozen(self, t, src):
        assert not t.requires_grad and t is not src
        assert np.shares_memory(t.data, src.data) and np.array_equal(t.data, src.data)
        with pytest.raises(ValueError):
            t.data[...] = 0.0

    def test_model(self):
        model = build_model(tiny_test_config(), seed=0)
        arrays = {"stem.conv.bias": np.ones(8, dtype=np.float32),
                  "head.weight": np.zeros((9, 64), dtype=np.float32)}
        config = ModelConfig(**{**model.config.to_dict(), "num_classes": 9})
        out = with_trainables(model, arrays, config=config, class_names=list("abcdefghi"))
        assert out.config.num_classes == 9 and out.class_names == list("abcdefghi")
        assert model.config.num_classes == 4 and model.class_names is None
        assert list(out.params) == list(model.params)
        for name, t in out.params.items():
            if name in arrays:
                assert t.requires_grad and t.data is arrays[name]
            else:
                self._check_frozen(t, model.params[name])
        assert all(t.requires_grad and t.data.flags.writeable
                   for t in model.params.values())

    @pytest.mark.parametrize("names", ["all", "head"])
    def test_peft_model(self, names):
        model = build_model(tiny_test_config(), seed=0)
        peft = inject(model, r=2, alpha=4.0, dropout_p=0.1, seed=1)
        arrays = {n: t.data.copy() for n, t in peft.trainable_params().items()
                  if names == "all" or n.startswith("head.")}
        out = with_trainables(peft, arrays)
        sources = peft.trainable_params()
        for name, t in out.trainable_params().items():
            if name in arrays:
                assert t.requires_grad and t.data is arrays[name]
            else:
                self._check_frozen(t, sources[name])
        for name, t in out.base.params.items():
            if not name.startswith("head."):
                self._check_frozen(t, peft.base.params[name])
        for name, ad in out.adapters.items():
            src = peft.adapters[name]
            assert (ad.rank, ad.alpha, ad.dropout_p, ad.target) == (
                src.rank, src.alpha, src.dropout_p, src.target)
        assert all(t.requires_grad and t.data.flags.writeable
                   for t in sources.values())
