"""End-to-end CLI tests driving the real command entry point in-process,
plus a few through ``python -m convlora`` in a subprocess."""

import json
import os
import shlex
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_persist import (LAYOUT_BREAKS, _edit_header, _huge_rank, _rename,
                          _swap_class_names, _swap_names)

from convlora import images as I
from convlora import backbone, cli, data, lora, persist
from convlora.data import AugmentConfig
from convlora.tensor import Tensor
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
            "--train.max_epochs", "2",
            "--train.batch_size", "16",
            "--train.lr", "0.002",
            "--data.ratios", "0.7,0.15,0.15",
            *extra]


TINY_MODEL = ["--model.depths", "1,1,1,1", "--model.dims", "8,16,32,64",
              "--model.image_size", "32"]


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

    @pytest.mark.parametrize("size", ["0", "-3"])
    def test_image_size_below_one_exits_2_with_one_line(self, tmp_path, capsys, size):
        code = run(["synth", "--out", str(tmp_path / "x"), "--classes", "2",
                    "--image-size", size])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err
        assert not list(tmp_path.rglob("*.ppm"))


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

    # cross-eval matches classes by name, so only eval needs the vocabularies equal
    @pytest.mark.parametrize("command, vocabulary", [
        ("eval", "renamed-class"), ("cross-eval", "renamed-class"),
        ("eval", "extra-class"),
    ])
    def test_other_class_vocabulary_exits_4(self, dataset, trained, tmp_path,
                                            capsys, command, vocabulary):
        other = tmp_path / "other"
        if vocabulary == "renamed-class":
            shutil.copytree(dataset, other)
            first = min(other.iterdir())
            first.rename(first.with_name(first.name + "_renamed"))
        else:
            assert run(["synth", "--out", str(other), "--classes", "4",
                        "--per-class", "12", "--seed", "5"]) == 0
        capsys.readouterr()
        code = run([command, "--checkpoint", str(trained["base"]),
                    "--data", str(other)])
        assert code == 4
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("compatibility error: "), err


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


    def test_by_group_scores_the_group_atomic_split(self, dataset, trained, tmp_path,
                                                     monkeypatch, capsys):
        root = tmp_path / "grouped"
        shutil.copytree(dataset, root)
        frames = sorted(p.relative_to(root).as_posix() for p in root.rglob("*.ppm"))
        (root / "groups.tsv").write_text(
            "".join(f"{f}\tclip{i // 4}\n" for i, f in enumerate(frames)))
        manifests = []
        real_cross_eval = cli.cross_eval
        monkeypatch.setattr(cli, "cross_eval", lambda ms, ds, **k:
                            manifests.extend(ds) or real_cross_eval(ms, ds, **k))
        argv = ["cross-eval", "--checkpoint", str(trained["base"]), "--data", str(root)]
        # a stratified split puts frames of one clip into several partitions
        assert run(argv) == 2
        assert "groups split across partitions" in capsys.readouterr().err
        assert run(argv + ["--by-group", "--out", str(tmp_path / "m.tsv")]) == 0
        [grouped] = manifests
        want = data.split(data.scan_dataset(root), seed=0, by_group=True)
        assert [s.split for s in grouped.samples] == [s.split for s in want.samples]

        assert run(["eval", "--checkpoint", str(trained["base"]), "--data", str(root),
                    "--by-group", "--out", str(tmp_path / "e.tsv")]) == 0
        summary = (tmp_path / "e.tsv").read_text().split("\n\n")[0]
        metrics = dict(line.split("\t") for line in summary.splitlines()[1:])
        cell = float((tmp_path / "m.tsv").read_text().splitlines()[1].split("\t")[1])
        assert cell == pytest.approx(100.0 * float(metrics["accuracy"]), abs=0.005)

    def test_adapters_share_one_base(self, dataset, trained, tmp_path, monkeypatch):
        second = tmp_path / "second"
        assert run(_toy_train_args(
            dataset, second,
            ["--lora.rank", "2", "--lora.alpha", "4", "--lora.dropout", "0.0",
             "--model.seed", "3", "--init_from", str(trained["base"])])) == 0
        adapters = [str(trained["adapter"]), str(second / "adapter.ckpt")]
        base = str(trained["base"])

        def rows(checkpoints, out):
            argv = ["cross-eval", "--base", base, "--data", str(dataset),
                    "--data", str(dataset), "--out", str(out)]
            for c in checkpoints:
                argv += ["--checkpoint", c]
            assert run(argv) == 0
            return [line.split("\t")[1:] for line in out.read_text().splitlines()[1:]]

        alone = [rows([a], tmp_path / f"alone{i}.tsv")[0] for i, a in enumerate(adapters)]
        loads, models = [], []
        real_load, real_cross_eval = persist.load, cli.cross_eval
        monkeypatch.setattr(persist, "load",
                            lambda path: loads.append(str(path)) or real_load(path))
        monkeypatch.setattr(cli, "cross_eval", lambda ms, *a, **k:
                            models.extend(ms) or real_cross_eval(ms, *a, **k))
        assert rows(adapters, tmp_path / "both.tsv") == alone
        assert loads.count(base) == 1
        first, other = models
        for name, t in first.base.params.items():
            if not name.startswith("head."):
                assert np.shares_memory(t.data, other.base.params[name].data), name


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
                    "--model.image_size", "32",
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

    def test_one_forward_without_class_idx(self, dataset, trained, tmp_path,
                                           monkeypatch, capsys):
        image = next(iter(sorted(dataset.rglob("*.ppm"))))
        model = persist.load(trained["base"])
        aug = AugmentConfig(resize=32)
        x = I.normalize(I.read_image(image).astype(np.float32),
                        np.asarray(aug.normalize_mean, dtype=np.float32),
                        np.asarray(aug.normalize_std, dtype=np.float32))
        top = int(backbone.forward(model, Tensor(x.transpose(2, 0, 1)[None])).data.argmax())
        explicit = tmp_path / "explicit.pgm"
        assert run(["saliency", "--checkpoint", str(trained["base"]),
                    "--image", str(image), "--class-idx", str(top),
                    "--out", str(explicit)]) == 0
        capsys.readouterr()

        calls = []
        forward = backbone.forward
        monkeypatch.setattr(backbone, "forward",
                            lambda *a, **k: calls.append(1) or forward(*a, **k))
        out = tmp_path / "auto.pgm"
        assert run(["saliency", "--checkpoint", str(trained["base"]),
                    "--image", str(image), "--out", str(out)]) == 0
        assert len(calls) == 1
        assert capsys.readouterr().out == f"wrote {out} (class {top})\n"
        assert out.read_bytes() == explicit.read_bytes()

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

    def test_config_counts_match_trained_adapter(self, trained, capsys):
        assert run(["params", "--checkpoint", str(trained["adapter"]),
                    "--base", str(trained["base"])]) == 0
        from_checkpoint = capsys.readouterr().out
        assert run(["params", "--model.num_classes", "3", *TINY_MODEL,
                    "--lora.rank", "2"]) == 0
        assert capsys.readouterr().out == from_checkpoint


@pytest.mark.parametrize("kind, edit", [
    ("base", _rename("head.bias")),
    ("adapter", _rename("head.bias")),
    ("adapter", _rename("lora.stages.0.blocks.0.fc1.A")),
    ("base", lambda header: header.pop("kind")),
    ("adapter", lambda header: header.update(lora={"rank": 2})),
])
def test_inconsistent_checkpoint_header_exits_2_with_one_line(trained, tmp_path,
                                                              capsys, kind, edit):
    path = tmp_path / f"{kind}.ckpt"
    shutil.copy(trained[kind], path)
    _edit_header(path, edit)
    capsys.readouterr()
    assert run(["params", "--checkpoint", str(path), "--base", str(trained["base"])]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err


@pytest.mark.parametrize("breaks", LAYOUT_BREAKS)
def test_checkpoint_off_the_layout_exits_2_with_one_line(trained, tmp_path,
                                                        capsys, breaks):
    path = tmp_path / "base.ckpt"
    shutil.copy(trained["base"], path)
    breaks(path)
    capsys.readouterr()
    assert run(["params", "--checkpoint", str(path)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err


def test_swapped_tensor_names_exit_2_with_one_line(trained, tmp_path, capsys):
    # same shapes, so only the layout tells the two tensors apart
    path = tmp_path / "base.ckpt"
    shutil.copy(trained["base"], path)
    _edit_header(path, _swap_names("stem.norm.gamma", "stem.norm.beta"))
    capsys.readouterr()
    assert run(["params", "--checkpoint", str(path)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err


def test_huge_adapter_layout_exits_2_with_one_line(trained, tmp_path, capsys):
    path = tmp_path / "adapter.ckpt"
    shutil.copy(trained["adapter"], path)
    _edit_header(path, _huge_rank)
    capsys.readouterr()
    assert run(["params", "--checkpoint", str(path), "--base", str(trained["base"])]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err


def _os_error_argv(case, dataset, trained, tmp_path):
    (tmp_path / "dir").mkdir()
    (tmp_path / "file").write_bytes(b"")
    if case == "checkpoint-is-a-directory":
        return ["params", "--checkpoint", str(tmp_path / "dir")]
    if case == "synth-under-a-file":
        return ["synth", "--out", str(tmp_path / "file" / "x"), "--classes", "2",
                "--per-class", "1", "--image-size", "8"]
    if case == "output-dir-is-a-file":
        return _toy_train_args(dataset, tmp_path / "file", ["--lora.rank", "2"])
    if case == "output-dir-under-a-file":
        return _toy_train_args(dataset, tmp_path / "file" / "run", ["--lora.rank", "2"])
    return ["merge", "--base", str(trained["base"]), "--adapter", str(trained["adapter"]),
            "--out", str(tmp_path / "dir")]


@pytest.mark.parametrize("case", ["checkpoint-is-a-directory", "synth-under-a-file",
                                  "output-dir-is-a-file", "output-dir-under-a-file",
                                  "merge-onto-a-directory"])
def test_os_errors_exit_2_with_one_line(case, dataset, trained, tmp_path, capsys,
                                        monkeypatch):
    argv = _os_error_argv(case, dataset, trained, tmp_path)

    def train(*args, **kwargs):
        raise AssertionError("train ran on an output path it cannot create")
    # an output path that cannot be made fails before any training
    monkeypatch.setattr(cli, "train", train)
    capsys.readouterr()
    assert run(argv) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["dir", "file"]


# (command, extra flags); "config" runs params with the object as the config
# file, train runs also get _toy_train_args and saliency runs the trained
# 3-class base on one dataset image, so each fails on the one setting named here
MALFORMED = [
    pytest.param("params", ["--model.num_classes", "abc"], id="num_classes-text"),
    pytest.param("params", ["--model.num_classes", "0"], id="num_classes-zero"),
    pytest.param("params", ["--model.depths", "1,x,1,1"], id="depths-element"),
    pytest.param("params", ["--lora.enabled", "maybe"], id="bool-text"),
    pytest.param("params", ["--lora.rank", "0"], id="params-rank-0"),
    pytest.param("params", ["--lora.targets", "foo"], id="params-no-target"),
    pytest.param("params", ["--lora.dropout", "1.5"], id="params-dropout"),
    pytest.param("params", ["--lora.alpha", "nan"], id="params-alpha-nan"),
    pytest.param("params", ["--lora.alpha", "inf"], id="params-alpha-inf"),
    pytest.param("params", TINY_MODEL, id="params-rank-over-tiny-dims"),
    pytest.param("params", ["--train.eps", "0"], id="eps-zero"),
    pytest.param("params", ["--train.weight_decay", "-0.1"], id="decay-negative"),
    pytest.param("params", ["--train.lr", "nan"], id="lr-nan"),
    pytest.param("params", ["--train.betas", "0.9"], id="betas-one-entry"),
    pytest.param("params", ["--augment.normalize_mean", "0.5"], id="mean-one-entry"),
    pytest.param("params", ["--augment.normalize_std", "0.2,0,0.2"], id="std-zero"),
    pytest.param("config", {"train": {"lr": "x"}}, id="json-string-for-float"),
    pytest.param("config", {"model": {"depths": 3}}, id="json-value-for-list"),
    pytest.param("config", {"model": {"dims": [8, "16", 32, 64]}}, id="json-element"),
    pytest.param("config", {"lora": {"enabled": 1}}, id="json-int-for-bool"),
    pytest.param("config", {"lora": {"rank": True}}, id="json-bool-for-int"),
    pytest.param("config", {"lora": {"rank": 2.0}}, id="json-float-for-int"),
    pytest.param("config", {"train": {"lr": None}}, id="json-null-for-float"),
    pytest.param("config", {"train": {"lr": {"x": 1}}}, id="json-table-for-value"),
    pytest.param("config", {"train": 5}, id="json-value-for-table"),
    pytest.param("config", [1, 2], id="json-top-level-list"),
    pytest.param("config", {"lora": {"rnak": 4}}, id="json-unknown-key"),
    # train derives these, so they are not keys; an older config file may carry them
    pytest.param("config", {"augment": {"resize": 32}}, id="json-derived-resize"),
    pytest.param("config", {"model": {"in_channels": 3}}, id="json-derived-in-channels"),
    pytest.param("config", {"augment": {"rotation_max_deg": float("inf")}},
                 id="json-rotation-infinity"),
    pytest.param("train", ["--train.max_epochs", "abc"], id="max_epochs-text"),
    pytest.param("train", ["--lora.rank", "0"], id="train-rank-0"),
    pytest.param("train", ["--lora.targets", "foo"], id="train-no-target"),
    pytest.param("train", ["--lora.rank", "2", "--lora.dropout", "1.5"],
                 id="train-dropout"),
    pytest.param("train", [], id="train-rank-over-tiny-dims"),
    pytest.param("train", ["--lora.rank", "2", "--model.num_classes", "5"],
                 id="num-classes-above-dataset"),
    pytest.param("train", ["--lora.enabled", "false", "--model.num_classes", "2"],
                 id="num-classes-below-dataset"),
    pytest.param("train", ["--lora.rank", "2", "--train.seed", "-1"],
                 id="train-seed-negative"),
    pytest.param("train", ["--lora.rank", "2", "--model.seed", "-1"],
                 id="model-seed-negative"),
    pytest.param("train", ["--lora.rank", "2", "--data.ratios", "1.5,-0.25,-0.25"],
                 id="ratios-negative"),
    pytest.param("train", ["--lora.rank", "2", "--data.ratios", "0.5,nan,0.5"],
                 id="ratios-nan"),
    pytest.param("train", ["--lora.rank", "2", "--data.ratios", "inf,0,0"],
                 id="ratios-inf"),
    pytest.param("train", ["--lora.rank", "2", "--data.ratios", "0.9,0.1,0"],
                 id="no-test-split"),
    pytest.param("train", ["--lora.rank", "2", "--augment.rotation_max_deg", "inf"],
                 id="rotation-inf"),
    pytest.param("train", ["--lora.rank", "2", "--augment.rotation_max_deg", "1e308"],
                 id="rotation-overflows"),
    pytest.param("params", ["--augment.rotation_max_deg", "inf"], id="params-rotation-inf"),
    pytest.param("saliency", ["--class-idx", "7"], id="class-idx-above"),
    pytest.param("saliency", ["--class-idx", "-1"], id="class-idx-negative"),
    pytest.param("train", ["--lora.rank", "2", "--lora.alpha", "nan"],
                 id="train-alpha-nan"),
    pytest.param("train", ["--lora.rank", "2", "--lora.alpha", "inf"],
                 id="train-alpha-inf"),
    pytest.param("config", {"lora": {"alpha": 10**400}}, id="json-alpha-huge-int"),
    # a groups.tsv line that marks nothing, or a second key for one image
    pytest.param("groups", "c00_disk/img_00001.ppm\tvidA\n./c00_disk/img_00002.ppm\tvidA\n",
                 id="groups-dot-slash-path"),
    pytest.param("groups", "c00_disk/img_00099.ppm\tvidA\n", id="groups-unknown-image"),
    pytest.param("groups", "c00_disk/img_00003.ppm\tvidA\nc00_disk/img_00003.ppm\tvidC\n",
                 id="groups-two-keys"),
]


@pytest.mark.parametrize("command, extra", MALFORMED)
def test_malformed_invocation_exits_2_with_one_line(command, extra, dataset,
                                                    tmp_path, capsys, request):
    if command == "config":
        config = tmp_path / "config.json"
        config.write_text(json.dumps(extra))
        argv = ["params", "--config", str(config)]
    elif command == "train":
        argv = _toy_train_args(dataset, tmp_path / "run", extra)
    elif command == "groups":
        root = tmp_path / "grouped"
        shutil.copytree(dataset, root)
        (root / "groups.tsv").write_text(extra)
        argv = _toy_train_args(root, tmp_path / "run",
                               ["--lora.rank", "2", "--data.by_group", "true"])
    elif command == "saliency":
        argv = ["saliency", "--checkpoint", str(request.getfixturevalue("trained")["base"]),
                "--image", str(min(dataset.rglob("*.ppm"))),
                "--out", str(tmp_path / "map.pgm"), *extra]
    else:
        argv = [command, *extra]
    capsys.readouterr()
    assert run(argv) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    if command in ("train", "groups"):
        assert not (tmp_path / "run").exists()


@pytest.fixture(scope="module")
def gray_base(dataset, tmp_path_factory):
    # a tiny base checkpoint for 1-channel images, with the dataset's classes
    names = data.scan_dataset(dataset).class_names
    config = replace(backbone.tiny_test_config(num_classes=len(names)), in_channels=1)
    path = tmp_path_factory.mktemp("gray") / "model.ckpt"
    persist.save(backbone.build_model(config, seed=0, class_names=names), path)
    return path


@pytest.mark.parametrize("command", ["eval", "cross-eval", "saliency"])
def test_non_rgb_checkpoint_exits_4_with_one_line(command, dataset, gray_base, tmp_path,
                                                  capsys):
    if command == "saliency":
        extra = ["--image", str(min(dataset.rglob("*.ppm"))),
                 "--out", str(tmp_path / "map.pgm")]
    else:
        extra = ["--data", str(dataset)]
    assert run([command, "--checkpoint", str(gray_base), *extra]) == 4
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("compatibility error: "), err
    assert "1-channel" in err[0]
    assert run(["params", "--checkpoint", str(gray_base)]) == 0


@pytest.mark.parametrize("case", ["non-rgb-base", "head-off-the-classes"])
def test_init_from_a_base_that_does_not_fit_exits_4_with_one_line(case, dataset, trained,
                                                                  gray_base, tmp_path,
                                                                  capsys):
    if case == "non-rgb-base":
        root, extra = dataset, ["--lora.rank", "2", "--init_from", str(gray_base)]
    else:
        # a 3-class base trained in full on 4 classes; only inject fits a new head
        root = tmp_path / "four"
        assert run(["synth", "--out", str(root), "--classes", "4", "--per-class", "12",
                    "--image-size", "32", "--seed", "5"]) == 0
        extra = ["--lora.enabled", "false", "--init_from", str(trained["base"])]
    out = tmp_path / "run"
    capsys.readouterr()
    assert run(_toy_train_args(root, out, extra)) == 4
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("compatibility error: "), err
    assert not out.exists()


@pytest.mark.parametrize("key, value", [("depths", "1,1,2,1"), ("dims", "8,16,32,32"),
                                        ("image_size", "64"), ("mlp_ratio", "2")])
def test_init_from_with_another_architecture_exits_2_with_one_line(key, value, dataset,
                                                                   trained, tmp_path,
                                                                   capsys):
    # the toy flags repeat the base's architecture; the last flag asks for another
    out = tmp_path / "run"
    extra = ["--lora.rank", "2", "--init_from", str(trained["base"]),
             f"--model.{key}", value]
    capsys.readouterr()
    assert run(_toy_train_args(dataset, out, extra)) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert f"model.{key}" in err[0]
    assert not out.exists()


@pytest.mark.parametrize("extra", [
    pytest.param(["--model.dims", "1,2"], id="invalid-dims"),
    pytest.param(["--lora.rank", "4"], id="rank"),
    pytest.param(["--model.image_size", "32"], id="image-size-of-the-checkpoint"),
    pytest.param(["--config"], id="config-file"),
])
def test_params_checkpoint_with_config_flags_exits_2_with_one_line(extra, trained,
                                                                   tmp_path, capsys):
    if extra == ["--config"]:
        config = tmp_path / "config.json"
        config.write_text("{}")
        extra = ["--config", str(config)]
    capsys.readouterr()
    assert run(["params", "--checkpoint", str(trained["base"]), *extra]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert extra[0] in err[0]


@pytest.mark.parametrize("command, outputs, names", [
    pytest.param("cross-eval", 3, lambda names: names[:2], id="fewer-names"),
    pytest.param("eval", 4, lambda names: names, id="more-outputs"),
    pytest.param("cross-eval", 3, lambda names: [names[0], *names[:2]],
                 id="repeated-name"),
])
def test_class_names_not_one_per_output_exit_4_with_one_line(command, outputs, names,
                                                             dataset, tmp_path, capsys):
    dataset_names = data.scan_dataset(dataset).class_names
    model = backbone.build_model(backbone.tiny_test_config(num_classes=outputs), seed=0,
                                 class_names=dataset_names)
    model.params["head.bias"].data[2] = 100.0    # every prediction is output 2
    path = tmp_path / "model.ckpt"
    persist.save(model, path)
    _edit_header(path, lambda header: header.update(class_names=names(dataset_names)))
    assert run([command, "--checkpoint", str(path), "--data", str(dataset)]) == 4
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("compatibility error: "), err


def test_swapped_class_names_exit_2_with_one_line(dataset, tmp_path, capsys):
    # the checksum covers the header: the file would otherwise load and
    # misname every prediction
    names = data.scan_dataset(dataset).class_names
    path = tmp_path / "model.ckpt"
    persist.save(backbone.build_model(backbone.tiny_test_config(num_classes=len(names)),
                                      seed=0, class_names=names), path)
    _edit_header(path, _swap_class_names, sign=False)
    capsys.readouterr()
    assert run(["eval", "--checkpoint", str(path), "--data", str(dataset)]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "checksum" in err[0], err


@pytest.fixture(scope="module")
def four_classes(tmp_path_factory):
    root = tmp_path_factory.mktemp("ds") / "four"
    assert run(["synth", "--out", str(root), "--classes", "4", "--per-class", "12",
                "--image-size", "32", "--seed", "5"]) == 0
    return root


def test_a_head_for_another_class_count_is_not_misnamed(trained, four_classes, tmp_path,
                                                         capsys):
    # the 3-class base's names do not name a 4-output head, so the file
    # records none, and eval says so instead of naming outputs by them
    path = tmp_path / "head.ckpt"
    persist.save(lora.head_only(persist.load(trained["base"]), num_classes=4), path)
    assert persist.load(path).class_names is None
    capsys.readouterr()
    assert run(["eval", "--checkpoint", str(path), "--base", str(trained["base"]),
                "--data", str(four_classes)]) == 4
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and "no class vocabulary" in err[0], err


def test_init_from_another_class_count_names_the_new_head(trained, four_classes,
                                                          tmp_path):
    out = tmp_path / "run"
    assert run(_toy_train_args(four_classes, out, ["--lora.rank", "2", "--init_from",
                                                   str(trained["base"])])) == 0
    names = data.scan_dataset(four_classes).class_names
    assert len(names) == 4 and persist.load(out / "adapter.ckpt").class_names == names
    assert run(["eval", "--checkpoint", str(out / "adapter.ckpt"), "--base",
                str(trained["base"]), "--data", str(four_classes)]) == 0


def test_init_from_run_echoes_the_base_architecture(dataset, trained, tmp_path):
    out = tmp_path / "run"
    assert run(["train", "--data.root", str(dataset), "--output_dir", str(out),
                "--init_from", str(trained["base"]), "--lora.rank", "2",
                "--train.max_epochs", "1", "--train.batch_size", "16",
                "--data.ratios", "0.7,0.15,0.15"]) == 0

    def model_section(run_dir):
        section = json.loads((run_dir / "config.json").read_text())["model"]
        del section["num_classes"]
        return section

    assert model_section(out) == model_section(trained["base"].parent)


@pytest.mark.parametrize("config", [
    {"train": {"lr": 1}, "lora": {"alpha": 8}},
    {"model": {"num_classes": None}, "init_from": None},
    {"model": {"num_classes": 5}, "augment": {"normalize_std": [1, 1, 1]}},
])
def test_config_file_accepts_ints_for_floats_and_null_defaults(config, tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert run(["params", "--config", str(path)]) == 0


def test_config_json_replays_to_the_same_config(trained):
    for checkpoint in trained.values():
        path = checkpoint.parent / "config.json"
        args = cli.build_parser().parse_args(["train", "--config", str(path)])
        resolved = cli.resolve_config(args)
        assert json.dumps(resolved, indent=2, sort_keys=True) + "\n" == path.read_text()


TYPED_FLAGS = sorted(path for path, default in cli._leaves(cli.DEFAULT_CONFIG)
                     if not isinstance(default, str) and path not in
                     ("data.root", "init_from", "output_dir"))


@settings(max_examples=300, deadline=None)
@given(path=st.sampled_from(TYPED_FLAGS),
       text=st.one_of(st.text(),
                      st.from_regex(r"-?[0-9]{0,3}(\.[0-9]{0,2})?(,-?[0-9]{0,3}){0,5}",
                                    fullmatch=True),
                      st.sampled_from(["nan", "inf", "-inf", "1e999", "true",
                                       "fc1", "fc1,fc2,head", "1,1,1,1"])))
def test_params_flag_text_exits_0_or_2(path, text):
    assert run(["params", f"--{path}={text}"]) in (0, 2)


def test_readme_walkthrough_commands_parse():
    # the README's commands go through the parser and the config resolution,
    # so a flag that leaves the CLI cannot stay in the docs
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI walkthrough", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line, comments=True)[1:]
                for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("convlora ")]
    assert sum(argv[0] in ("train", "params") for argv in commands) >= 3
    for argv in commands:
        args = cli.build_parser().parse_args(argv)
        if argv[0] in ("train", "params"):
            cli.resolve_config(args)


SRC = Path(cli.__file__).resolve().parents[1]


def run_module(*argv):
    """``python -m convlora ARGV`` from a checkout, in a fresh process."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, "-m", "convlora", *argv], env=env,
                          capture_output=True, text=True, timeout=120)


class TestModuleEntryPoint:
    def test_python_m_runs_the_cli(self):
        proc = run_module("params", "--model.num_classes", "1000",
                          "--lora.enabled", "false")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[0].startswith("total\t")

    def test_imports_load_no_scipy(self):
        code = ("import sys, convlora, convlora.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        proc = subprocess.run([sys.executable, "-c", code],
                              env={**os.environ, "PYTHONPATH": str(SRC)},
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_huge_depth_exits_2_with_one_line(self):
        # used to build one list entry per parameter before printing
        proc = run_module("params", "--model.depths", "1,1,1000000,1")
        assert proc.returncode == 2
        err = proc.stderr.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: "), err
