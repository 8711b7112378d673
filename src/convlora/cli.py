"""Command-line interface.

Subcommands: synth, train, eval, cross-eval, merge, saliency, params.
Run configuration is a JSON file whose keys mirror the library configs;
every leaf is overridable with a flag named after its key path
(``--train.lr 0.001``). The fully resolved config is echoed into the output
directory so any run can be replayed exactly.

Exit codes: 0 success, 2 configuration/input error, 3 numeric failure,
4 compatibility error.
"""

from __future__ import annotations

import argparse
import copy
import json
import sys
from pathlib import Path

import numpy as np

from . import data as data_mod
from . import images, persist, training
from .backbone import Model, ModelConfig, build_model, param_shapes, saliency
from .data import AugmentConfig, DatasetManifest
from .errors import CompatibilityError, ConfigError, TrainingDiverged
from .lora import (adapter_param_count, count_params, inject, merged_model,
                   model_forward)
from .metrics import MetricsReport
from .tensor import NumericsError, Tensor
from .training import TrainConfig, cross_eval, evaluate, predict, train

DEFAULT_CONFIG: dict = {
    "model": {
        "depths": [3, 3, 27, 3],
        "dims": [128, 256, 512, 1024],
        "num_classes": None,
        "in_channels": 3,
        "image_size": 224,
        "mlp_ratio": 4,
        "seed": 0,
    },
    "train": {
        "lr": 1e-4,
        "betas": [0.9, 0.999],
        "eps": 1e-8,
        "weight_decay": 0.05,
        "max_epochs": 30,
        "batch_size": 32,
        "patience": 5,
        "seed": 0,
    },
    "augment": {
        "hflip_prob": 0.5,
        "rotation_max_deg": 15.0,
        "resize": 224,
        "normalize_mean": [0.485, 0.456, 0.406],
        "normalize_std": [0.229, 0.224, 0.225],
    },
    "lora": {
        "enabled": True,
        "rank": 16,
        "alpha": 32.0,
        "dropout": 0.1,
        "targets": ["fc1", "fc2"],
    },
    "data": {
        "root": None,
        "ratios": [0.8, 0.1, 0.1],
        "by_group": False,
        "split_seed": 0,
    },
    "init_from": None,
    "output_dir": None,
}

# leaves whose default is None still need a declared flag type
_NONE_LEAF_TYPES = {
    "model.num_classes": int,
    "data.root": str,
    "init_from": str,
    "output_dir": str,
}


def _leaves(tree: dict, prefix: str = ""):
    for key, value in tree.items():
        path = f"{prefix}.{key}" if prefix else key
        if isinstance(value, dict):
            yield from _leaves(value, path)
        else:
            yield path, value


def _parse_flag_value(path: str, raw: str, default):
    if default is None:
        kind = _NONE_LEAF_TYPES[path]
        return kind(raw)
    if isinstance(default, bool):
        if raw.lower() in ("true", "1", "yes"):
            return True
        if raw.lower() in ("false", "0", "no"):
            return False
        raise ConfigError(f"--{path}: expected true/false, got {raw!r}")
    if isinstance(default, int):
        return int(raw)
    if isinstance(default, float):
        return float(raw)
    if isinstance(default, list):
        element = default[0] if default else ""
        items = [part for part in raw.split(",") if part != ""]
        if isinstance(element, float):
            return [float(p) for p in items]
        if isinstance(element, int):
            return [int(p) for p in items]
        return items
    return raw


def add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="FILE", default=None,
                        help="JSON run config; flags below override its keys")
    for path, default in _leaves(DEFAULT_CONFIG):
        parser.add_argument(f"--{path}", metavar="V", default=None,
                            dest=path, help=f"override (default: {default})")


def _set_path(tree: dict, path: str, value) -> None:
    keys = path.split(".")
    node = tree
    for k in keys[:-1]:
        node = node[k]
    node[keys[-1]] = value


def _check_unknown(user: dict, schema: dict, prefix: str = "") -> None:
    for key, value in user.items():
        path = f"{prefix}.{key}" if prefix else key
        if key not in schema:
            raise ConfigError(f"unknown config key: {path}")
        if isinstance(value, dict):
            if not isinstance(schema[key], dict):
                raise ConfigError(f"config key {path} should be a value, not a table")
            _check_unknown(value, schema[key], path)


def _merge(base: dict, override: dict) -> None:
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(base.get(key), dict):
            _merge(base[key], value)
        else:
            base[key] = value


def resolve_config(args: argparse.Namespace) -> dict:
    """defaults <- config file <- CLI flags, rejecting unknown file keys."""
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if args.config is not None:
        try:
            user = json.loads(Path(args.config).read_text())
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {args.config}") from None
        except json.JSONDecodeError as e:
            raise ConfigError(f"config file {args.config}: {e}") from None
        _check_unknown(user, DEFAULT_CONFIG)
        _merge(cfg, user)
    for path, default in _leaves(DEFAULT_CONFIG):
        raw = getattr(args, path, None)
        if raw is not None:
            _set_path(cfg, path, _parse_flag_value(path, raw, default))
    return cfg


def _model_config(cfg: dict, num_classes: int) -> ModelConfig:
    m = cfg["model"]
    try:
        mc = ModelConfig(depths=tuple(m["depths"]), dims=tuple(m["dims"]),
                         num_classes=num_classes, in_channels=m["in_channels"],
                         image_size=m["image_size"], mlp_ratio=m["mlp_ratio"])
        mc.validate()
    except ValueError as e:
        raise ConfigError(f"invalid model config: {e}") from e
    return mc


def _augment_config(cfg: dict) -> AugmentConfig:
    a = cfg["augment"]
    ac = AugmentConfig(hflip_prob=a["hflip_prob"],
                       rotation_max_deg=a["rotation_max_deg"],
                       resize=a["resize"],
                       normalize_mean=tuple(a["normalize_mean"]),
                       normalize_std=tuple(a["normalize_std"]))
    try:
        ac.validate()
    except ValueError as e:
        raise ConfigError(f"invalid augment config: {e}") from e
    return ac


def _train_config(cfg: dict) -> TrainConfig:
    t = cfg["train"]
    tc = TrainConfig(lr=t["lr"], betas=tuple(t["betas"]), eps=t["eps"],
                     weight_decay=t["weight_decay"], max_epochs=t["max_epochs"],
                     batch_size=t["batch_size"], patience=t["patience"],
                     seed=t["seed"])
    try:
        tc.validate()
    except ValueError as e:
        raise ConfigError(f"invalid train config: {e}") from e
    return tc


def _scan_and_split(root: str, **split_args) -> DatasetManifest:
    try:
        return data_mod.split(data_mod.scan_dataset(root), **split_args)
    except (FileNotFoundError, ValueError) as e:
        raise ConfigError(str(e)) from e


def _load_split_dataset(cfg: dict) -> DatasetManifest:
    root = cfg["data"]["root"]
    if not root:
        raise ConfigError("data.root is required")
    return _scan_and_split(root, ratios=tuple(cfg["data"]["ratios"]),
                           seed=cfg["data"]["split_seed"],
                           by_group=cfg["data"]["by_group"])


def _eval_dataset(root: str, split_name: str, seed: int,
                  by_group: bool = False) -> DatasetManifest:
    manifest = _scan_and_split(root, seed=seed, by_group=by_group)
    if not manifest.indices_for(split_name):
        raise ConfigError(f"dataset {root} has no {split_name!r} split "
                          f"({len(manifest.samples)} images are too few)")
    return manifest


def _load_base(path: str, option: str = "--base") -> Model:
    base = persist.load(path)
    if not isinstance(base, Model):
        raise ConfigError(f"{option} {path} is not a base checkpoint")
    return base


def _load_models_for_eval(ckpt_paths: list[str], base_path: str | None) -> list:
    """Load every checkpoint; adapter checkpoints attach to one base, read
    from ``base_path`` at most once and shared by all of them."""
    base = None
    models = []
    for ckpt_path in ckpt_paths:
        loaded = persist.load(ckpt_path)
        if isinstance(loaded, persist.AdapterCheckpoint):
            if base_path is None:
                raise ConfigError(
                    f"{ckpt_path} is an adapter checkpoint; pass --base")
            if base is None:
                base = _load_base(base_path)
            loaded = loaded.attach(base)
        models.append(loaded)
    return models


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_synth(args) -> int:
    palette = args.palette_shift if args.palette_shift is not None else args.shift
    texture = args.texture_shift if args.texture_shift is not None else args.shift
    try:
        manifest = data_mod.synth_domain(
            args.out, num_classes=args.classes, samples_per_class=args.per_class,
            image_size=args.image_size, palette_shift=palette,
            texture_shift=texture, seed=args.seed)
    except ValueError as e:
        raise ConfigError(str(e)) from e
    print(f"wrote {len(manifest.samples)} images under {args.out}")
    for name, count in zip(manifest.class_names, manifest.class_counts()):
        print(f"  {name}\t{count}")
    return 0


def cmd_train(args) -> int:
    cfg = resolve_config(args)
    out_dir = cfg["output_dir"]
    if not out_dir:
        raise ConfigError("output_dir is required")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    manifest = _load_split_dataset(cfg)
    num_classes = cfg["model"]["num_classes"] or manifest.num_classes
    model_config = _model_config(cfg, num_classes)
    augment = _augment_config(cfg)
    train_cfg = _train_config(cfg)

    if cfg["init_from"]:
        base = _load_base(cfg["init_from"], "init_from")
    else:
        base = build_model(model_config, seed=cfg["model"]["seed"],
                           class_names=manifest.class_names)

    lora_cfg = cfg["lora"]
    if lora_cfg["enabled"]:
        model = inject(base, targets=tuple(lora_cfg["targets"]),
                       r=lora_cfg["rank"], alpha=lora_cfg["alpha"],
                       dropout_p=lora_cfg["dropout"], seed=cfg["model"]["seed"],
                       num_classes=num_classes)
        model.base.class_names = manifest.class_names
    else:
        model = base
        model.class_names = manifest.class_names

    best, history = train(model, manifest, train_cfg, augment)

    (out_dir / "config.json").write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n")
    data_mod.write_manifest_tsv(manifest, out_dir / "manifest.tsv")
    history.to_csv(out_dir / "history.csv")
    ckpt_path = out_dir / ("adapter.ckpt" if lora_cfg["enabled"] else "model.ckpt")
    persist.save(best, ckpt_path)

    idx, labels, preds, scores = predict(best, manifest, "test", augment,
                                         train_cfg.batch_size)
    report = MetricsReport.from_predictions(preds, labels, num_classes,
                                            class_names=manifest.class_names)
    (out_dir / "metrics.tsv").write_text(report.to_tsv())
    training.write_prediction_dump(out_dir / "predictions.tsv", manifest,
                                   idx, labels, preds, scores)
    print(f"best epoch {history.best_epoch}, "
          f"val acc {history.epochs[history.best_epoch - 1].val_accuracy:.4f}")
    print(f"test accuracy {report.accuracy:.4f}")
    print(f"wrote {ckpt_path}")
    return 0


def cmd_eval(args) -> int:
    model = _load_models_for_eval([args.checkpoint], args.base)[0]
    manifest = _eval_dataset(args.data, args.split, args.split_seed, args.by_group)
    augment = AugmentConfig(resize=model.config.image_size)
    report = evaluate(model, manifest, args.split, augment)
    print(report.format_table())
    if args.out:
        Path(args.out).write_text(report.to_tsv())
        print(f"wrote {args.out}")
    return 0


def cmd_cross_eval(args) -> int:
    models = _load_models_for_eval(args.checkpoint, args.base)
    datasets = [_eval_dataset(d, args.split, args.split_seed) for d in args.data]
    names = [Path(d).name for d in args.data]
    matrix = cross_eval(models, datasets, split_name=args.split)
    lines = ["train\\test\t" + "\t".join(names)]
    for i, ckpt in enumerate(args.checkpoint):
        row = "\t".join(f"{100.0 * v:.2f}" for v in matrix[i])
        lines.append(f"{Path(ckpt).stem}\t{row}")
    text = "\n".join(lines) + "\n"
    print(text, end="")
    if args.out:
        Path(args.out).write_text(text)
    return 0


def cmd_merge(args) -> int:
    base = _load_base(args.base)
    adapter = persist.load(args.adapter)
    if not isinstance(adapter, persist.AdapterCheckpoint):
        raise CompatibilityError(f"{args.adapter} is not an adapter checkpoint")
    peft = adapter.attach(base)
    persist.save(merged_model(peft), args.out)
    print(f"wrote {args.out}")
    return 0


def cmd_saliency(args) -> int:
    model = _load_models_for_eval([args.checkpoint], args.base)[0]
    raw = images.read_image(args.image).astype(np.float32)
    size = model.config.image_size
    img = images.resize_bilinear(raw, size, size)
    augment = AugmentConfig(resize=size)
    mean = np.asarray(augment.normalize_mean, dtype=np.float32)
    std = np.asarray(augment.normalize_std, dtype=np.float32)
    x = images.normalize(img, mean, std).transpose(2, 0, 1)

    class_idx = args.class_idx
    if class_idx is None:
        logits = model_forward(model, Tensor(x[None])).data
        class_idx = int(logits.argmax())
    m = saliency(lambda t: model_forward(model, t), x, class_idx)
    if m.shape != raw.shape[:2]:
        # map back to the source image's resolution
        m = np.clip(images.resize_bilinear(m[..., None], raw.shape[0],
                                           raw.shape[1])[..., 0], 0.0, 1.0)
    images.write_pgm(args.out, np.round(m * 255.0).astype(np.uint8))
    print(f"wrote {args.out} (class {class_idx})")
    return 0


def cmd_params(args) -> int:
    if args.checkpoint:
        loaded = _load_models_for_eval([args.checkpoint], args.base)[0]
        counts = count_params(loaded)
    else:
        cfg = resolve_config(args)
        num_classes = cfg["model"]["num_classes"] or 2
        model_config = _model_config(cfg, num_classes)
        shapes = param_shapes(model_config)
        total = sum(int(np.prod(s)) for _, s, _ in shapes)
        counts = {"total": total, "trainable": total}
        if cfg["lora"]["enabled"]:
            adapter = adapter_param_count(model_config, cfg["lora"]["rank"],
                                          tuple(cfg["lora"]["targets"]))
            head = num_classes * model_config.dims[3] + num_classes
            counts = {"total": total + adapter, "trainable": adapter + head,
                      "adapter": adapter, "head": head,
                      "frozen": total - head}
    for key, value in counts.items():
        print(f"{key}\t{value:,}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="convlora",
        description="Low-rank adapter fine-tuning for a convolutional "
                    "backbone: data synthesis, training, evaluation, "
                    "cross-domain matrices, adapter merging, saliency maps.")
    sub = parser.add_subparsers(dest="command", required=True)
    fmt = argparse.ArgumentDefaultsHelpFormatter

    p = sub.add_parser("synth", formatter_class=fmt,
                       help="generate a synthetic folder-per-class dataset")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--classes", type=int, default=6, help="number of classes")
    p.add_argument("--per-class", type=int, default=200, help="images per class")
    p.add_argument("--image-size", type=int, default=32, help="square image size")
    p.add_argument("--shift", type=float, default=0.0,
                   help="sets both palette and texture shift")
    p.add_argument("--palette-shift", type=float, default=None,
                   help="hue rotation/compression strength")
    p.add_argument("--texture-shift", type=float, default=None,
                   help="noise and grating strength")
    p.add_argument("--seed", type=int, default=0, help="generator seed")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train",
                       help="train a model or adapter set on a dataset")
    add_config_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", formatter_class=fmt,
                       help="evaluate a checkpoint on a dataset split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--base", default=None,
                   help="base checkpoint (required for adapter checkpoints)")
    p.add_argument("--data", required=True, help="dataset root")
    p.add_argument("--split", default="test", choices=("train", "val", "test"))
    p.add_argument("--split-seed", type=int, default=0)
    p.add_argument("--by-group", action="store_true")
    p.add_argument("--out", default=None, help="metrics TSV path")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("cross-eval", formatter_class=fmt,
                       help="accuracy matrix of checkpoints x datasets")
    p.add_argument("--checkpoint", action="append", required=True,
                   help="repeatable; row order")
    p.add_argument("--base", default=None)
    p.add_argument("--data", action="append", required=True,
                   help="repeatable; column order")
    p.add_argument("--split", default="test")
    p.add_argument("--split-seed", type=int, default=0)
    p.add_argument("--out", default=None, help="matrix TSV path")
    p.set_defaults(func=cmd_cross_eval)

    p = sub.add_parser("merge", formatter_class=fmt,
                       help="fold an adapter checkpoint into its base weights")
    p.add_argument("--base", required=True)
    p.add_argument("--adapter", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_merge)

    p = sub.add_parser("saliency", formatter_class=fmt,
                       help="write an input-gradient saliency map as PGM")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--base", default=None)
    p.add_argument("--image", required=True)
    p.add_argument("--class-idx", type=int, default=None,
                   help="defaults to the predicted class")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_saliency)

    p = sub.add_parser("params",
                       help="parameter accounting for a config or checkpoint")
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--base", default=None)
    add_config_flags(p)
    p.set_defaults(func=cmd_params)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (FileNotFoundError, persist.CheckpointError,
            images.ImageFormatError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (TrainingDiverged, NumericsError) as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 3
    except CompatibilityError as e:
        print(f"compatibility error: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
