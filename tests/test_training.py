"""Tests for the optimizer, early stopping, evaluation, and cross-domain eval."""

import weakref
from dataclasses import replace

import numpy as np
import pytest

from convlora import data as D
from convlora import tensor as T
from convlora.backbone import build_model, tiny_test_config
from convlora.data import AugmentConfig
from convlora.errors import CompatibilityError, TrainingDiverged
from convlora.lora import inject
from convlora.metrics import MetricsReport
from convlora.training import (TrainConfig, _evaluate_with_loss, adamw_step, cross_eval,
                               evaluate, predict, train, trainable_params)
from convlora.tensor import Tensor


def _p(arr):
    return Tensor(np.asarray(arr, dtype=np.float32), requires_grad=True)


class TestConfigValidation:
    @pytest.mark.parametrize("field", [
        {"lr": 0.0}, {"lr": float("nan")}, {"eps": 0.0}, {"weight_decay": -0.1},
        {"betas": (0.9,)}, {"betas": (0.9, 1.0)}, {"seed": -1},
        {"patience": 0}, {"batch_size": 0}])
    def test_train_config_rejects(self, field):
        with pytest.raises(ValueError):
            TrainConfig(**field).validate()

    @pytest.mark.parametrize("field", [
        {"normalize_mean": (0.5,)}, {"normalize_std": (0.2, 0.2, 0.2, 0.2)},
        {"normalize_std": (0.2, 0.0, 0.2)}, {"rotation_max_deg": float("nan")},
        {"hflip_prob": 1.5}, {"resize": 2}, {"rotation_max_deg": float("inf")},
        {"rotation_max_deg": 1e308}, {"rotation_max_deg": 10**400}])
    def test_augment_config_rejects(self, field):
        with pytest.raises(ValueError):
            AugmentConfig(**field).validate()

    def test_defaults_are_valid(self):
        TrainConfig().validate()
        AugmentConfig().validate()


class TestAdamwStep:
    def test_zero_grad_no_decay_unchanged(self):
        cfg = TrainConfig(lr=0.1, weight_decay=0.0)
        p = _p([1.0, -2.0])
        before = p.data.copy()
        adamw_step({"w.weight": p}, {"w.weight": np.zeros(2, dtype=np.float32)},
                   {}, 1, cfg)
        np.testing.assert_array_equal(p.data, before)

    def test_pure_decay_scales_by_point_nine(self):
        cfg = TrainConfig(lr=1.0, weight_decay=0.1)
        p = _p([2.0, -4.0])
        adamw_step({"w.weight": p}, {"w.weight": np.zeros(2, dtype=np.float32)},
                   {}, 1, cfg)
        np.testing.assert_allclose(p.data, [1.8, -3.6], rtol=1e-6)

    def test_first_step_is_signed_lr(self):
        cfg = TrainConfig(lr=0.01, weight_decay=0.0)
        p = _p([1.0, 1.0, 1.0])
        g = np.array([0.5, -2.0, 3.0], dtype=np.float32)
        adamw_step({"w.weight": p}, {"w.weight": g}, {}, 1, cfg)
        np.testing.assert_allclose(p.data, 1.0 - 0.01 * np.sign(g), atol=1e-5)

    def test_decay_skips_bias_and_norm(self):
        cfg = TrainConfig(lr=1.0, weight_decay=0.5)
        bias = _p([1.0])
        gamma = _p([1.0])
        adamw_step({"head.bias": bias, "final_norm.gamma": gamma},
                   {"head.bias": np.zeros(1, dtype=np.float32),
                    "final_norm.gamma": np.zeros(1, dtype=np.float32)},
                   {}, 1, cfg)
        assert bias.data[0] == 1.0
        assert gamma.data[0] == 1.0

    def test_nonfinite_grad_raises(self):
        cfg = TrainConfig()
        p = _p([1.0])
        with pytest.raises(TrainingDiverged):
            adamw_step({"w.weight": p},
                       {"w.weight": np.array([np.nan], dtype=np.float32)},
                       {}, 1, cfg)

    def test_moment_accumulation_matches_reference(self):
        # two steps against a by-hand AdamW recurrence
        cfg = TrainConfig(lr=0.1, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.0)
        p = _p([1.0])
        state = {}
        g1, g2 = 0.3, -0.7
        adamw_step({"x.weight": p}, {"x.weight": np.array([g1], dtype=np.float32)},
                   state, 1, cfg)
        adamw_step({"x.weight": p}, {"x.weight": np.array([g2], dtype=np.float32)},
                   state, 2, cfg)
        m = 0.9 * (0.1 * g1) + 0.1 * g2
        v = 0.999 * (0.001 * g1 * g1) + 0.001 * g2 * g2
        m1 = 0.1 * g1
        v1 = 0.001 * g1 * g1
        x = 1.0 - 0.1 * (m1 / (1 - 0.9)) / (np.sqrt(v1 / (1 - 0.999)) + 1e-8)
        x = x - 0.1 * (m / (1 - 0.9 ** 2)) / (np.sqrt(v / (1 - 0.999 ** 2)) + 1e-8)
        np.testing.assert_allclose(p.data, [x], rtol=1e-5)


@pytest.fixture(scope="module")
def toy_task(tmp_path_factory):
    root = tmp_path_factory.mktemp("toy")
    manifest = D.synth_domain(root, num_classes=4, samples_per_class=24,
                              image_size=32, seed=33)
    return D.split(manifest, ratios=(0.7, 0.15, 0.15), seed=0)


AUG = AugmentConfig(hflip_prob=0.0, rotation_max_deg=0.0, resize=32)


class TestEarlyStopping:
    def test_injected_sequence_contract(self, toy_task):
        seq = [0.5, 0.6, 0.6, 0.6, 0.6, 0.6, 0.6, 0.6, 0.6]
        cfg = TrainConfig(lr=1e-4, max_epochs=30, batch_size=16, patience=5, seed=0)
        model = build_model(tiny_test_config(), seed=0)
        best, history = train(model, toy_task, cfg, AUG,
                              val_metric_fn=lambda epoch: seq[epoch - 1])
        assert len(history.epochs) == 7      # stops after epoch 7
        assert history.best_epoch == 2

    def test_no_improvement_with_large_patience_runs_all(self, toy_task):
        cfg = TrainConfig(lr=1e-4, max_epochs=4, batch_size=16, patience=10, seed=0)
        model = build_model(tiny_test_config(), seed=0)
        _, history = train(model, toy_task, cfg, AUG,
                           val_metric_fn=lambda epoch: 0.5)
        assert len(history.epochs) == 4
        assert history.best_epoch == 1       # earliest tie wins

    def test_never_exceeds_best_plus_patience(self, toy_task):
        seq = [0.3, 0.7, 0.5, 0.5, 0.5, 0.5, 0.9, 0.2, 0.2, 0.2, 0.2, 0.2]
        cfg = TrainConfig(lr=1e-4, max_epochs=12, batch_size=16, patience=3, seed=0)
        model = build_model(tiny_test_config(), seed=0)
        _, history = train(model, toy_task, cfg, AUG,
                           val_metric_fn=lambda epoch: seq[epoch - 1])
        assert len(history.epochs) == 5      # best at 2, stops at 2 + 3
        assert history.best_epoch == 2

    def test_best_epoch_weights_returned(self, toy_task):
        # force "best" at epoch 1: later epochs keep training but report worse
        cfg = TrainConfig(lr=5e-3, max_epochs=3, batch_size=16, patience=5, seed=1)
        model = build_model(tiny_test_config(), seed=1)
        snapshots = {}

        def metric(epoch):
            snapshots[epoch] = {n: t.data.copy()
                                for n, t in trainable_params(model).items()}
            return 1.0 if epoch == 1 else 0.0

        best, history = train(model, toy_task, cfg, AUG, val_metric_fn=metric)
        assert history.best_epoch == 1
        for name, t in trainable_params(best).items():
            np.testing.assert_array_equal(t.data, snapshots[1][name])


class TestTrainLoop:
    def test_deterministic_history(self, toy_task):
        cfg = TrainConfig(lr=1e-3, max_epochs=2, batch_size=16, patience=5, seed=7)
        runs = []
        for _ in range(2):
            model = build_model(tiny_test_config(), seed=7)
            _, history = train(model, toy_task, cfg, AUG)
            runs.append([(e.train_loss, e.val_loss, e.val_accuracy)
                         for e in history.epochs])
        assert runs[0] == runs[1]

    def test_random_streams_are_disjoint(self, toy_task, monkeypatch):
        # the shuffle, every sample's augmentation and every step's dropout
        # draw from their own stream; SeedSequence pads keys with zeros, so
        # the keys are compared by the pools they seed
        seed_sequence, keys = np.random.SeedSequence, []

        class Recorded(seed_sequence):
            def __init__(self, entropy=None, **kwargs):
                keys.append(entropy)
                super().__init__(entropy, **kwargs)

        # sample 1 trains, so its augmentation key [seed, epoch, 1] is drawn
        manifest = replace(toy_task, samples=[replace(sample, split="train") if i == 1
                                              else sample
                                              for i, sample in enumerate(toy_task.samples)])
        model = inject(build_model(tiny_test_config(), seed=7), r=2, alpha=4.0,
                       dropout_p=0.1, seed=7)
        monkeypatch.setattr(np.random, "SeedSequence", Recorded)
        cfg = TrainConfig(lr=1e-3, max_epochs=2, batch_size=16, patience=5, seed=7)
        train(model, manifest, cfg, AugmentConfig(hflip_prob=0.5, rotation_max_deg=10.0,
                                                  resize=32))
        n = len(manifest.indices_for("train"))
        assert len(keys) == cfg.max_epochs * (1 + n + -(-n // cfg.batch_size))
        pools = {tuple(seed_sequence(key).generate_state(4)) for key in keys}
        assert len(pools) == len(keys)

    # training batch sizes at which validating in them scores the 16 val
    # images differently from eval's batches of 32
    @pytest.mark.parametrize("adapted, batch_size", [(False, 5), (True, 2)])
    def test_validation_scores_as_eval_does(self, toy_task, adapted, batch_size):
        # logits depend on the batch size in their last bits, and the
        # validation loss that picked the best epoch is eval's, to the bit
        cfg = TrainConfig(lr=1e-3, max_epochs=2, batch_size=batch_size, patience=5, seed=7)
        model = build_model(tiny_test_config(), seed=7)
        if adapted:
            model = inject(model, r=2, alpha=4.0, seed=7)
        best, history = train(model, toy_task, cfg, AUG)
        report, loss = _evaluate_with_loss(best, toy_task, "val", AUG, 32)
        chosen = history.epochs[history.best_epoch - 1]
        assert (chosen.val_loss, chosen.val_accuracy) == (loss, report.accuracy)

    def test_loss_decreases_on_fixed_batch(self, toy_task):
        # smoke property at the default learning rate, several seeds
        for seed in (0, 1, 2):
            model = build_model(tiny_test_config(), seed=seed)
            idx = toy_task.indices_for("train")[:16]
            x, y = D.load_batch(toy_task, "train", idx, AUG,
                                train_mode=False, seed=0)
            params = trainable_params(model)
            cfg = TrainConfig(lr=1e-4, weight_decay=0.0)
            state = {}
            losses = []
            from convlora.lora import model_forward
            for t_step in range(1, 11):
                logits = model_forward(model, Tensor(x), train_mode=True)
                loss = T.softmax_cross_entropy(logits, y)
                losses.append(loss.item())
                for p in params.values():
                    p.zero_grad()
                loss.backward()
                adamw_step(params, {n: p.grad for n, p in params.items()},
                           state, t_step, cfg)
            assert losses[-1] < losses[0]

    def test_step_graph_dies_before_next_batch(self, toy_task, monkeypatch):
        # the logits and loss arrays of step k are unreachable by the time
        # step k + 1 loads its batch: no graph outlives its training step
        from convlora import training
        refs = []
        alive_at_load = []
        load_batch, loss_fn = training.load_batch, T.softmax_cross_entropy

        def load(*args, **kwargs):
            alive_at_load.append(sum(r() is not None for r in refs))
            return load_batch(*args, **kwargs)

        def loss(logits, labels):
            out = loss_fn(logits, labels)
            refs.extend([weakref.ref(logits.data), weakref.ref(out.data)])
            return out

        monkeypatch.setattr(training, "load_batch", load)
        monkeypatch.setattr(T, "softmax_cross_entropy", loss)
        cfg = TrainConfig(lr=1e-3, max_epochs=2, batch_size=16, patience=5, seed=7)
        train(build_model(tiny_test_config(), seed=7), toy_task, cfg, AUG)
        assert len(refs) >= 8
        assert alive_at_load == [0] * len(alive_at_load)

    def test_freeze_discipline_end_to_end(self, toy_task):
        model = build_model(tiny_test_config(), seed=3)
        peft = inject(model, r=2, alpha=4.0, dropout_p=0.1, seed=4)
        peft.base.class_names = toy_task.class_names
        frozen_before = {n: t.data.copy() for n, t in peft.base.params.items()
                         if not t.requires_grad}
        cfg = TrainConfig(lr=5e-3, max_epochs=2, batch_size=16, patience=5, seed=5)
        train(peft, toy_task, cfg, AugmentConfig(resize=32))
        for name, before in frozen_before.items():
            assert np.array_equal(peft.base.params[name].data, before), name

    def test_trained_peft_shares_the_source_base(self, toy_task):
        model = build_model(tiny_test_config(), seed=3)
        peft = inject(model, r=2, alpha=4.0, dropout_p=0.1, seed=4)
        peft.base.class_names = toy_task.class_names
        cfg = TrainConfig(lr=5e-3, max_epochs=2, batch_size=16, patience=5, seed=5)
        best, _ = train(peft, toy_task, cfg, AugmentConfig(resize=32))
        for name, t in best.base.params.items():
            if name.startswith("head."):
                continue
            assert not t.requires_grad
            assert np.shares_memory(t.data, model.params[name].data), name
            with pytest.raises(ValueError):
                t.data[...] = 0.0
        live = trainable_params(peft)
        sources = list(model.params.values()) + list(live.values())
        for name, t in trainable_params(best).items():
            assert t.requires_grad and t.data.flags.writeable
            assert not any(np.shares_memory(t.data, s.data) for s in sources), name

    def test_trained_model_shares_nothing_with_its_input(self, toy_task):
        model = build_model(tiny_test_config(), seed=3)
        model.params["stem.conv.bias"].requires_grad = False
        cfg = TrainConfig(lr=5e-3, max_epochs=1, batch_size=16, patience=5, seed=5)
        best, _ = train(model, toy_task, cfg, AUG)
        for name, t in best.params.items():
            src = model.params[name]
            assert t.requires_grad == src.requires_grad
            if src.requires_grad:
                assert not np.shares_memory(t.data, src.data), name
            else:
                assert np.shares_memory(t.data, src.data)
                assert not t.data.flags.writeable and src.data.flags.writeable

    def test_empty_split_rejected(self, toy_task):
        bare = D.DatasetManifest(samples=[], class_names=["a", "b"])
        model = build_model(tiny_test_config(), seed=0)
        with pytest.raises(ValueError):
            train(model, bare, TrainConfig(), AUG)


class TestEvaluate:
    def test_oracle_model_scores_one(self, toy_task):
        model = build_model(tiny_test_config(), seed=0,
                            class_names=toy_task.class_names)
        idx, labels, preds, scores = predict(model, toy_task, "test", AUG)
        report = MetricsReport.from_predictions(preds, labels, 4)
        recomputed = evaluate(model, toy_task, "test", AUG)
        assert report.accuracy == recomputed.accuracy
        assert np.array_equal(report.confusion_matrix, recomputed.confusion_matrix)

    def test_constant_predictor_on_balanced_set(self, toy_task):
        model = build_model(tiny_test_config(), seed=0,
                            class_names=toy_task.class_names)
        # zero head makes every logit equal; argmax picks class 0 everywhere
        model.params["head.weight"].data[:] = 0.0
        model.params["head.bias"].data[:] = 0.0
        report = evaluate(model, toy_task, "test", AUG)
        support = [r["support"] for r in report.per_class]
        assert report.accuracy == pytest.approx(support[0] / sum(support))

    def test_metrics_recomputable_from_dump(self, toy_task, tmp_path):
        from convlora.training import write_prediction_dump
        model = build_model(tiny_test_config(), seed=2,
                            class_names=toy_task.class_names)
        idx, labels, preds, scores = predict(model, toy_task, "test", AUG)
        dump = tmp_path / "preds.tsv"
        write_prediction_dump(dump, toy_task, idx, labels, preds, scores)
        lines = dump.read_text().splitlines()
        name_to_id = {n: i for i, n in enumerate(toy_task.class_names)}
        parsed = [(name_to_id[r.split("\t")[2]], name_to_id[r.split("\t")[1]])
                  for r in lines[1:]]
        re_preds = [p for p, _ in parsed]
        re_labels = [l for _, l in parsed]
        direct = evaluate(model, toy_task, "test", AUG)
        redone = MetricsReport.from_predictions(re_preds, re_labels, 4)
        for field in ("accuracy", "precision", "recall", "f1", "mcc"):
            assert getattr(direct, field) == getattr(redone, field)


class TestCrossEval:
    def test_single_model_matches_evaluate(self, toy_task):
        model = build_model(tiny_test_config(), seed=1,
                            class_names=toy_task.class_names)
        matrix = cross_eval([model], [toy_task], augment=AUG)
        assert matrix.shape == (1, 1)
        assert matrix[0, 0] == pytest.approx(
            evaluate(model, toy_task, "test", AUG).accuracy)

    def test_vocabulary_mismatch(self, toy_task):
        model = build_model(tiny_test_config(), seed=1,
                            class_names=["x", "y", "z", "w"])
        with pytest.raises(CompatibilityError):
            cross_eval([model], [toy_task], augment=AUG)

    def test_name_remapping(self, toy_task):
        # same vocabulary listed in a different order must still line up
        model = build_model(tiny_test_config(), seed=1,
                            class_names=list(reversed(toy_task.class_names)))
        matrix = cross_eval([model], [toy_task], augment=AUG)
        assert 0.0 <= matrix[0, 0] <= 1.0
