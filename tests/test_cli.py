"""End-to-end CLI tests driving the real command entry point in-process."""

import json

import numpy as np
import pytest

from convlora import images as I
from convlora import persist
from convlora.cli import main


def run(argv):
    return main(argv)


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("ds") / "domA"
    code = run(["synth", "--out", str(root), "--classes", "3", "--per-class", "12",
                "--image-size", "32", "--seed", "5"])
    assert code == 0
    return root


def _toy_train_args(dataset, out_dir, extra=()):
    return ["train",
            "--data.root", str(dataset),
            "--output_dir", str(out_dir),
            "--model.depths", "1,1,1,1",
            "--model.dims", "8,16,32,64",
            "--model.image_size", "32",
            "--augment.resize", "32",
            "--train.max_epochs", "2",
            "--train.batch_size", "16",
            "--train.lr", "0.002",
            "--data.ratios", "0.7,0.15,0.15",
            *extra]


class TestSynth:
    def test_writes_expected_count(self, dataset):
        files = list(dataset.rglob("*.ppm"))
        assert len(files) == 36

    def test_deterministic_trees(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert run(["synth", "--out", str(out), "--classes", "2",
                        "--per-class", "4", "--image-size", "16",
                        "--seed", "9"]) == 0
        for fa in sorted(a.rglob("*.ppm")):
            fb = b / fa.relative_to(a)
            assert fa.read_bytes() == fb.read_bytes()

    def test_single_class_is_config_error(self, tmp_path, capsys):
        code = run(["synth", "--out", str(tmp_path / "x"), "--classes", "1"])
        assert code == 2
        assert "error" in capsys.readouterr().err


class TestTrain:
    def test_lora_train_outputs(self, dataset, tmp_path):
        out = tmp_path / "run"
        code = run(_toy_train_args(dataset, out,
                                   ["--lora.rank", "2", "--lora.alpha", "4",
                                    "--lora.dropout", "0.1"]))
        assert code == 0
        history = (out / "history.csv").read_text().splitlines()
        assert history[0] == "epoch,train_loss,val_loss,val_acc"
        assert 1 < len(history) <= 31
        resolved = json.loads((out / "config.json").read_text())
        assert resolved["lora"]["rank"] == 2
        assert resolved["lora"]["alpha"] == 4.0
        assert resolved["lora"]["dropout"] == 0.1
        assert (out / "adapter.ckpt").exists()
        assert (out / "metrics.tsv").exists()
        assert (out / "predictions.tsv").exists()
        assert (out / "manifest.tsv").read_text().startswith("path\tclass")

    def test_base_train_writes_base_checkpoint(self, dataset, tmp_path):
        out = tmp_path / "run"
        code = run(_toy_train_args(dataset, out, ["--lora.enabled", "false"]))
        assert code == 0
        loaded = persist.load(out / "model.ckpt")
        assert hasattr(loaded, "params")

    def test_missing_dataset_exits_2(self, tmp_path):
        code = run(_toy_train_args(tmp_path / "missing", tmp_path / "run"))
        assert code == 2

    def test_unknown_config_key_exits_2(self, dataset, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"lora": {"rnak": 4}}))
        code = run(["train", "--config", str(cfg),
                    "--data.root", str(dataset),
                    "--output_dir", str(tmp_path / "run")])
        assert code == 2

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_exits_3(self, dataset, tmp_path, capsys):
        code = run(_toy_train_args(dataset, tmp_path / "run",
                                   ["--train.lr", "1e12",
                                    "--lora.enabled", "false"]))
        assert code == 3
        assert "numeric" in capsys.readouterr().err

    def test_defaults_in_help(self, capsys):
        with pytest.raises(SystemExit):
            run(["train", "--help"])
        text = capsys.readouterr().out
        for token in ("0.0001", "30", "32", "5", "16", "0.1"):
            assert f"default: {token}" in text


@pytest.fixture(scope="module")
def trained(dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("trained")
    base_dir = out / "base"
    assert run(_toy_train_args(dataset, base_dir, ["--lora.enabled", "false"])) == 0
    lora_dir = out / "lora"
    assert run(_toy_train_args(
        dataset, lora_dir,
        ["--lora.rank", "2", "--lora.alpha", "4", "--lora.dropout", "0.0",
         "--init_from", str(base_dir / "model.ckpt")])) == 0
    return {"base": base_dir / "model.ckpt", "adapter": lora_dir / "adapter.ckpt"}


class TestEval:
    def test_eval_base(self, dataset, trained, tmp_path, capsys):
        out = tmp_path / "metrics.tsv"
        code = run(["eval", "--checkpoint", str(trained["base"]),
                    "--data", str(dataset), "--split", "test",
                    "--split-seed", "0", "--out", str(out)])
        assert code == 0
        assert out.read_text().startswith("metric\tvalue")
        assert "accuracy" in capsys.readouterr().out.lower() or out.exists()

    def test_eval_adapter_needs_base(self, dataset, trained):
        code = run(["eval", "--checkpoint", str(trained["adapter"]),
                    "--data", str(dataset)])
        assert code == 2

    def test_eval_adapter_with_base(self, dataset, trained):
        code = run(["eval", "--checkpoint", str(trained["adapter"]),
                    "--base", str(trained["base"]), "--data", str(dataset)])
        assert code == 0


    @pytest.mark.filterwarnings("ignore:class .* has only")
    @pytest.mark.parametrize("command", ["eval", "cross-eval"])
    def test_missing_split_exits_2(self, trained, tmp_path, capsys, command):
        tiny = tmp_path / "tiny"
        assert run(["synth", "--out", str(tiny), "--classes", "2",
                    "--per-class", "2", "--seed", "3"]) == 0
        capsys.readouterr()
        code = run([command, "--checkpoint", str(trained["base"]),
                    "--data", str(tiny), "--split", "test"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'test'" in err
        assert len(err.strip().splitlines()) == 1


class TestCrossEval:
    def test_matrix_layout(self, dataset, trained, tmp_path, capsys):
        out = tmp_path / "matrix.tsv"
        code = run(["cross-eval", "--checkpoint", str(trained["base"]),
                    "--data", str(dataset), "--data", str(dataset),
                    "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].split("\t") == ["train\\test", dataset.name, dataset.name]
        cells = lines[1].split("\t")
        assert len(cells) == 3
        assert cells[1] == cells[2]      # same dataset twice -> equal accuracy

    def test_single_entry_matches_eval(self, dataset, trained, tmp_path):
        out = tmp_path / "m.tsv"
        assert run(["cross-eval", "--checkpoint", str(trained["base"]),
                    "--data", str(dataset), "--out", str(out)]) == 0
        cell = float(out.read_text().splitlines()[1].split("\t")[1])
        assert 0.0 <= cell <= 100.0


class TestMerge:
    def test_merge_zero_adapter_equals_base(self, dataset, trained, tmp_path):
        # freshly injected adapters have B = 0, so merging changes nothing;
        # build one via a 0-epoch-ish run: reuse trained adapter but zero B
        ad = persist.load(trained["adapter"])
        for name in list(ad.tensors):
            if name.endswith(".B"):
                ad.tensors[name][:] = 0.0
        base = persist.load(trained["base"])
        peft = ad.attach(base)
        from convlora.lora import merged_model
        merged = merged_model(peft)
        for name, t in base.params.items():
            if name.startswith("head."):
                continue
            np.testing.assert_allclose(merged.params[name].data, t.data,
                                       atol=1e-7)

    def test_merge_cli_roundtrip(self, trained, tmp_path):
        out = tmp_path / "merged.ckpt"
        code = run(["merge", "--base", str(trained["base"]),
                    "--adapter", str(trained["adapter"]), "--out", str(out)])
        assert code == 0
        assert hasattr(persist.load(out), "params")

    def test_merged_metrics_match_adapter_mode(self, dataset, trained, tmp_path):
        from convlora import data as D
        from convlora.data import AugmentConfig
        from convlora.training import evaluate

        merged_path = tmp_path / "merged.ckpt"
        assert run(["merge", "--base", str(trained["base"]),
                    "--adapter", str(trained["adapter"]),
                    "--out", str(merged_path)]) == 0
        manifest = D.split(D.scan_dataset(dataset), seed=0)
        aug = AugmentConfig(resize=32)
        adapter_model = persist.load(trained["adapter"]).attach(
            persist.load(trained["base"]))
        merged = persist.load(merged_path)
        acc_adapter = evaluate(adapter_model, manifest, "test", aug).accuracy
        acc_merged = evaluate(merged, manifest, "test", aug).accuracy
        assert abs(acc_adapter - acc_merged) <= 1e-4

    def test_incompatible_exits_4(self, dataset, trained, tmp_path):
        other_dir = tmp_path / "other"
        assert run(["train", "--data.root", str(dataset),
                    "--output_dir", str(other_dir),
                    "--model.depths", "1,1,1,1", "--model.dims", "16,32,64,128",
                    "--model.image_size", "32", "--augment.resize", "32",
                    "--train.max_epochs", "1", "--train.batch_size", "16",
                    "--data.ratios", "0.7,0.15,0.15",
                    "--lora.enabled", "false"]) == 0
        code = run(["merge", "--base", str(other_dir / "model.ckpt"),
                    "--adapter", str(trained["adapter"]),
                    "--out", str(tmp_path / "x.ckpt")])
        assert code == 4


class TestSaliency:
    def test_pgm_output(self, dataset, trained, tmp_path):
        image = next(iter(sorted(dataset.rglob("*.ppm"))))
        out = tmp_path / "map.pgm"
        code = run(["saliency", "--checkpoint", str(trained["base"]),
                    "--image", str(image), "--out", str(out)])
        assert code == 0
        m = I.read_pgm(out)
        assert m.shape == (32, 32)
        assert m.max() == 255 or not m.any()

    def test_explicit_class(self, dataset, trained, tmp_path):
        image = next(iter(sorted(dataset.rglob("*.ppm"))))
        out = tmp_path / "map.pgm"
        assert run(["saliency", "--checkpoint", str(trained["base"]),
                    "--image", str(image), "--class-idx", "1",
                    "--out", str(out)]) == 0

    def test_map_matches_source_resolution(self, trained, tmp_path):
        rng = np.random.default_rng(0)
        big = rng.integers(0, 256, size=(48, 40, 3), dtype=np.uint8)
        src = tmp_path / "big.ppm"
        I.write_ppm(src, big)
        out = tmp_path / "map.pgm"
        assert run(["saliency", "--checkpoint", str(trained["base"]),
                    "--image", str(src), "--out", str(out)]) == 0
        assert I.read_pgm(out).shape == (48, 40)


class TestParams:
    def test_base_config_metadata_counts(self, capsys):
        code = run(["params", "--model.num_classes", "1000",
                    "--lora.enabled", "false"])
        assert code == 0
        out = capsys.readouterr().out
        total = int(out.splitlines()[0].split("\t")[1].replace(",", ""))
        assert abs(total - 89_000_000) / 89_000_000 < 0.02

    def test_lora_adapter_count(self, capsys):
        code = run(["params", "--model.num_classes", "1000"])
        assert code == 0
        out = dict(line.split("\t") for line in capsys.readouterr().out.splitlines())
        assert out["adapter"] == "2,887,680"

    def test_checkpoint_counts(self, trained, capsys):
        code = run(["params", "--checkpoint", str(trained["base"])])
        assert code == 0
        out = dict(line.split("\t") for line in capsys.readouterr().out.splitlines())
        assert out["total"] == out["trainable"]
