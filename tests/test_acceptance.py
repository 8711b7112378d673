"""Contract acceptance suite.

One test per acceptance criterion, each enforced at its stated tolerance.
Every test ends by printing a single ``[PASS] criterion N`` line (visible
with ``pytest -s``); a failed assertion surfaces as an ordinary pytest
failure for that criterion.

The slow criteria (6 and 7) train real models on the synthetic shifted
domains; the whole module runs in well under the stated budgets on a
laptop-class CPU.
"""

import statistics
import time

import numpy as np
import pytest
from _oracles import closed_form_backbone_count, oracle_metrics

from convlora import data as D
from convlora import metrics as M
from convlora import persist
from convlora import tensor as T
from convlora.backbone import (base_config, block_forward, build_model,
                               forward, param_shapes, tiny_test_config)
from convlora.data import AugmentConfig
from convlora.lora import (adapter_param_count, count_params, head_only,
                           inject, model_forward, peft_forward)
from convlora.persist import CheckpointError
from convlora.tensor import Tensor
from convlora.training import TrainConfig, adamw_step, cross_eval, evaluate, train

NUM_CLASSES = 6
PER_CLASS = 200
IMAGE_SIZE = 32
PLAIN_AUG = AugmentConfig(hflip_prob=0.0, rotation_max_deg=0.0, resize=IMAGE_SIZE)
TRAIN_AUG = AugmentConfig(resize=IMAGE_SIZE)


def _report(n: int, text: str) -> None:
    print(f"\n[PASS] criterion {n}: {text}")


@pytest.fixture(scope="module")
def domains(tmp_path_factory):
    root = tmp_path_factory.mktemp("domains")
    a = D.synth_domain(root / "domA", NUM_CLASSES, PER_CLASS, IMAGE_SIZE,
                       palette_shift=0.0, texture_shift=0.0, seed=101)
    b = D.synth_domain(root / "domB", NUM_CLASSES, PER_CLASS, IMAGE_SIZE,
                       palette_shift=0.8, texture_shift=0.8, seed=202)
    return D.split(a, seed=1), D.split(b, seed=2)


@pytest.fixture(scope="module")
def full_size_model():
    return build_model(base_config(num_classes=1000), seed=0)


def _t64(rng, *shape):
    return Tensor(rng.normal(size=shape), requires_grad=True)


def test_criterion_01_gradient_correctness():
    start = time.monotonic()

    # spec'd tight cases
    rng = np.random.default_rng(0)
    assert T.grad_check(lambda *a: T.tsum(T.linear(*a)),
                        [_t64(rng, 3, 3), _t64(rng, 3, 3), _t64(rng, 3)]) < 1e-7
    assert T.grad_check(lambda a: T.tsum(T.gelu(a)),
                        [Tensor(np.array([0.5]), requires_grad=True)]) < 1e-7

    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        checks = [
            (lambda *a: T.tsum(T.linear(*a)),
             [_t64(rng, 2, 5), _t64(rng, 4, 5), _t64(rng, 4)]),
            (lambda a, k: T.tsum(T.conv2d(a, k, stride=1, pad=1)),
             [_t64(rng, 1, 2, 5, 5), _t64(rng, 3, 2, 3, 3)]),
            (lambda a, k: T.tsum(T.conv2d(a, k, stride=2, pad=0)),
             [_t64(rng, 1, 2, 6, 6), _t64(rng, 2, 2, 2, 2)]),
            (lambda a, k: T.tsum(T.depthwise_conv2d(a, k, pad=1)),
             [_t64(rng, 1, 3, 5, 5), _t64(rng, 3, 1, 3, 3)]),
            (lambda *a: T.tsum(T.layer_norm(*a)),
             [_t64(rng, 3, 6), _t64(rng, 6), _t64(rng, 6)]),
            (lambda a: T.tsum(T.gelu(a)), [_t64(rng, 2, 7)]),
            (lambda *a: T.tsum(T.grn(*a)),
             [_t64(rng, 2, 3, 3, 4), _t64(rng, 4), _t64(rng, 4)]),
            (lambda a: T.tsum(T.global_avg_pool(a)), [_t64(rng, 2, 3, 4, 4)]),
        ]
        for f, inputs in checks:
            assert T.grad_check(f, inputs) < 1e-5
        labels = rng.integers(0, 4, size=3)
        assert T.grad_check(lambda a: T.softmax_cross_entropy(a, labels),
                            [_t64(rng, 3, 4)]) < 1e-5

        # one full residual block, all parameters sampled
        c = 8
        params = {
            "dwconv.weight": _t64(rng, c, 1, 7, 7),
            "dwconv.bias": _t64(rng, c),
            "norm.gamma": _t64(rng, c),
            "norm.beta": _t64(rng, c),
            "fc1.weight": _t64(rng, 4 * c, c),
            "fc1.bias": _t64(rng, 4 * c),
            "grn.gamma": _t64(rng, 4 * c),
            "grn.beta": _t64(rng, 4 * c),
            "fc2.weight": _t64(rng, c, 4 * c),
            "fc2.bias": _t64(rng, c),
        }
        x = _t64(rng, 1, 4, 4, c)

        def block_f(*ts):
            return T.tsum(block_forward(params, "", ts[0],
                                        lambda n, a, w, b: T.linear(a, w, b)))

        err = T.grad_check(block_f, [x] + list(params.values()),
                           max_coords_per_input=8,
                           rng=np.random.default_rng(2000 + seed))
        assert err < 1e-5

    # end-to-end toy model, every parameter tensor sampled, 20 seeds
    model64 = build_model(tiny_test_config(), seed=0).astype(np.float64)
    tensors = list(model64.params.values())
    for seed in range(20):
        rng = np.random.default_rng(3000 + seed)
        x = Tensor(rng.normal(size=(1, 3, 32, 32)), requires_grad=True)
        labels = rng.integers(0, 4, size=1)

        def f(*ts):
            return T.softmax_cross_entropy(forward(model64, ts[0]), labels)

        err = T.grad_check(f, [x] + tensors, max_coords_per_input=1,
                           rng=np.random.default_rng(4000 + seed))
        assert err < 1e-4

    elapsed = time.monotonic() - start
    assert elapsed < 120.0, f"gradient checks took {elapsed:.0f}s"
    _report(1, f"all primitive and end-to-end gradients match central "
               f"differences over 20 seeds ({elapsed:.0f}s)")


def test_criterion_02_zero_init_equivalence():
    rng = np.random.default_rng(11)
    model = build_model(tiny_test_config(), seed=5)
    peft = inject(model, r=4, alpha=8.0, dropout_p=0.1, seed=6)

    model64 = model.astype(np.float64)
    peft64 = peft.astype(np.float64)
    x64 = Tensor(rng.normal(size=(100, 3, 32, 32)))
    with T.no_grad():
        exact_base = forward(model64, x64).data
        exact_peft = peft_forward(peft64, x64).data
    assert np.array_equal(exact_base, exact_peft)

    x32 = Tensor(x64.data.astype(np.float32))
    with T.no_grad():
        diff = np.abs(forward(model, x32).data
                      - peft_forward(peft, x32).data).max()
    assert diff <= 1e-6
    _report(2, "freshly injected adapters leave eval outputs unchanged on "
               "100 inputs (exact in 64-bit, <=1e-6 in 32-bit)")


def test_criterion_03_merge_parity():
    from convlora.lora import merged_model
    model = build_model(tiny_test_config(), seed=7)
    peft = inject(model, r=4, alpha=8.0, dropout_p=0.0, seed=8)
    rng = np.random.default_rng(9)
    assert len(peft.adapters) == 2 * sum(model.config.depths)
    for ad in peft.adapters.values():
        ad.B.data[:] = rng.normal(scale=0.1, size=ad.B.shape).astype(np.float32)
    plain = merged_model(peft)
    with T.no_grad():
        x = Tensor(rng.normal(size=(20, 3, 32, 32)).astype(np.float32))
        diff = np.abs(peft_forward(peft, x).data - forward(plain, x).data).max()
    assert diff <= 1e-5
    _report(3, f"adapted and merged-weight forwards agree within 1e-5 "
               f"across all {len(peft.adapters)} adapted layers (max {diff:.2e})")


def test_criterion_04_parameter_accounting(full_size_model):
    start = time.monotonic()
    cfg = full_size_model.config

    closed_form = adapter_param_count(cfg, r=16)
    assert closed_form == 2_887_680

    peft = inject(full_size_model, r=16, alpha=32.0, dropout_p=0.1, seed=1)
    walked = sum(ad.A.data.size + ad.B.data.size for ad in peft.adapters.values())
    assert walked == 2_887_680
    assert count_params(peft)["adapter"] == 2_887_680

    total = sum(t.data.size for t in full_size_model.params.values())
    assert abs(total - 89_000_000) / 89_000_000 < 0.02
    assert total == closed_form_backbone_count((3, 3, 27, 3),
                                               (128, 256, 512, 1024), 1000)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _report(4, f"adapter parameters = 2,887,680 by walk and closed form; "
               f"backbone total {total:,} within 2% of 89M ({elapsed:.0f}s)")


def test_criterion_05_freeze_discipline(domains):
    domain_a, _ = domains
    model = build_model(tiny_test_config(num_classes=NUM_CLASSES), seed=12,
                        class_names=domain_a.class_names)
    peft = inject(model, r=4, alpha=8.0, dropout_p=0.1, seed=13)
    frozen_before = {n: t.data.copy() for n, t in peft.base.params.items()
                     if not t.requires_grad}
    params = peft.trainable_params()
    trainable_before = {n: t.data.copy() for n, t in params.items()}

    cfg = TrainConfig(lr=2e-3, batch_size=8, seed=14)
    idx = domain_a.indices_for("train")
    state: dict = {}
    for step in range(1, 51):
        batch = idx[(step * 8) % (len(idx) - 8):][:8]
        x, y = D.load_batch(domain_a, "train", batch, TRAIN_AUG,
                            train_mode=True, seed=14, epoch=step)
        rng = np.random.default_rng(step)
        logits = model_forward(peft, Tensor(x), train_mode=True, rng=rng)
        loss = T.softmax_cross_entropy(logits, y)
        for p in params.values():
            p.zero_grad()
        loss.backward()
        adamw_step(params, {n: p.grad for n, p in params.items()}, state,
                   step, cfg)

    for name, before in frozen_before.items():
        assert np.array_equal(peft.base.params[name].data, before), name
    changed = [n for n, t in params.items()
               if not np.array_equal(t.data, trainable_before[n])]
    assert set(changed) == set(params)
    _report(5, f"after 50 steps, all {len(frozen_before)} frozen tensors are "
               f"bitwise unchanged; only adapters and head moved")


def _finetune_trial(domain_a, domain_b, trial: int):
    pre_cfg = TrainConfig(lr=2e-3, max_epochs=8, batch_size=32, patience=8,
                          seed=30 + trial)
    model = build_model(tiny_test_config(num_classes=NUM_CLASSES),
                        seed=40 + trial, class_names=domain_a.class_names)
    model, _ = train(model, domain_a, pre_cfg, PLAIN_AUG)

    ft_cfg = TrainConfig(lr=3e-3, max_epochs=22, batch_size=32, patience=10,
                         seed=50 + trial)
    peft = inject(model, r=4, alpha=8.0, dropout_p=0.0, seed=60 + trial)
    peft.base.class_names = domain_b.class_names
    peft_best, _ = train(peft, domain_b, ft_cfg, TRAIN_AUG)
    lora_acc = evaluate(peft_best, domain_b, "test", TRAIN_AUG).accuracy

    baseline = head_only(model, seed=60 + trial)
    baseline.base.class_names = domain_b.class_names
    base_best, _ = train(baseline, domain_b, ft_cfg, TRAIN_AUG)
    head_acc = evaluate(base_best, domain_b, "test", TRAIN_AUG).accuracy
    return lora_acc, head_acc


@pytest.mark.slow
def test_criterion_06_finetuning_efficacy(domains):
    start = time.monotonic()
    domain_a, domain_b = domains
    lora_accs, margins = [], []
    for trial in range(3):
        lora_acc, head_acc = _finetune_trial(domain_a, domain_b, trial)
        lora_accs.append(lora_acc)
        margins.append(lora_acc - head_acc)
    med_lora = statistics.median(lora_accs)
    med_margin = statistics.median(margins)
    elapsed = time.monotonic() - start
    assert med_lora >= 0.90, f"median adapted accuracy {med_lora:.3f} < 0.90"
    assert med_margin >= 0.05, f"median margin {med_margin * 100:.1f} < 5 points"
    assert elapsed < 900.0, f"took {elapsed:.0f}s"
    _report(6, f"adapter fine-tune median {med_lora:.3f} on shifted domain, "
               f"median margin over head-only {med_margin * 100:.1f} points "
               f"({elapsed:.0f}s, 3 seeds)")


@pytest.mark.slow
def test_criterion_07_cross_domain_pattern(domains):
    start = time.monotonic()
    domain_a, domain_b = domains
    models = []
    for manifest, model_seed, train_seed in ((domain_a, 80, 81),
                                             (domain_b, 90, 91)):
        m = build_model(tiny_test_config(num_classes=NUM_CLASSES),
                        seed=model_seed, class_names=manifest.class_names)
        m, _ = train(m, manifest,
                     TrainConfig(lr=3e-3, max_epochs=12, batch_size=32,
                                 patience=6, seed=train_seed), TRAIN_AUG)
        models.append(m)
    matrix = cross_eval(models, [domain_a, domain_b], augment=TRAIN_AUG)
    for i in range(2):
        for j in range(2):
            if i != j:
                gap = matrix[i, i] - matrix[i, j]
                assert gap >= 0.20, (f"row {i}: diagonal {matrix[i, i]:.3f} vs "
                                     f"off-diagonal {matrix[i, j]:.3f}")
    elapsed = time.monotonic() - start
    assert elapsed < 1200.0
    _report(7, f"cross-domain matrix diag >> off-diag: "
               f"[[{matrix[0, 0]:.2f}, {matrix[0, 1]:.2f}], "
               f"[{matrix[1, 0]:.2f}, {matrix[1, 1]:.2f}]] ({elapsed:.0f}s)")


def test_criterion_08_metrics_oracle():
    rng = np.random.default_rng(21)
    trials = 0
    for k in (2, 11, 20):
        for _ in range(334):
            n = int(rng.integers(1, 400))
            preds = rng.integers(0, k, size=n)
            labels = rng.integers(0, k, size=n)
            cm = M.confusion(preds, labels, k)
            for mode in M.AVERAGING_MODES:
                report = M.MetricsReport.from_confusion(cm, mode)
                acc, p, r, f1, mcc = oracle_metrics(preds.tolist(),
                                                    labels.tolist(), k, mode)
                assert report.accuracy == acc
                assert report.precision == p
                assert report.recall == r
                assert report.f1 == f1
                assert report.mcc == mcc
            if k == 2:
                assert abs(M.mcc_multiclass(cm) - M.mcc_binary(cm)) <= 1e-12
            micro_p, micro_r, _ = M.prf1(cm, "micro")
            _, weighted_r, _ = M.prf1(cm, "weighted")
            assert micro_p == micro_r == M.accuracy(cm)
            assert weighted_r == M.accuracy(cm)
            trials += 1
    assert trials >= 1000
    _report(8, f"{trials} random prediction sets (K in {{2, 11, 20}}) match "
               f"the brute-force oracle exactly in all averaging modes")


def test_criterion_09_early_stopping(domains):
    domain_a, _ = domains
    seq = [0.5, 0.6, 0.6, 0.6, 0.6, 0.6, 0.6, 0.6, 0.6, 0.6]
    cfg = TrainConfig(lr=1e-4, max_epochs=30, batch_size=32, patience=5, seed=15)
    model = build_model(tiny_test_config(num_classes=NUM_CLASSES), seed=15,
                        class_names=domain_a.class_names)
    _, history = train(model, domain_a, cfg, PLAIN_AUG,
                       val_metric_fn=lambda epoch: seq[epoch - 1])
    assert len(history.epochs) == 7
    assert history.best_epoch == 2

    # real validation path: the returned weights reproduce the recorded best
    cfg2 = TrainConfig(lr=2e-3, max_epochs=3, batch_size=32, patience=5, seed=16)
    model2 = build_model(tiny_test_config(num_classes=NUM_CLASSES), seed=16,
                         class_names=domain_a.class_names)
    best, hist = train(model2, domain_a, cfg2, PLAIN_AUG)
    recorded = hist.epochs[hist.best_epoch - 1].val_accuracy
    assert evaluate(best, domain_a, "val", PLAIN_AUG).accuracy == recorded
    _report(9, "patience-5 halt lands on the contractual epoch and the "
               "returned weights reproduce the recorded best val accuracy")


def test_criterion_10_persistence(full_size_model, tmp_path):
    toy = build_model(tiny_test_config(), seed=17, class_names=list("abcd"))
    p1, p2 = tmp_path / "toy1.ckpt", tmp_path / "toy2.ckpt"
    persist.save(toy, p1)
    reloaded = persist.load(p1)
    for name, t in toy.params.items():
        assert np.array_equal(reloaded.params[name].data, t.data)
    persist.save(reloaded, p2)
    assert p1.read_bytes() == p2.read_bytes()

    blob = bytearray(p1.read_bytes())
    blob[len(blob) // 2] ^= 0x40
    p1.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError):
        persist.load(p1)

    base_path = tmp_path / "base.ckpt"
    adapter_path = tmp_path / "adapter.ckpt"
    persist.save(full_size_model, base_path)
    peft = inject(full_size_model, r=16, alpha=32.0, dropout_p=0.1, seed=18)
    persist.save(peft, adapter_path)
    ratio = adapter_path.stat().st_size / base_path.stat().st_size
    assert ratio < 0.05, f"adapter/base size ratio {ratio:.3f}"
    _report(10, f"round-trip bitwise, corruption detected, adapter file is "
                f"{100 * ratio:.1f}% of the full checkpoint")
