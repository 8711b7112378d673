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
import math
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import data as data_mod
from . import images, persist, training
from .backbone import (Model, ModelConfig, base_config, build_model,
                       param_shapes, saliency)
from .data import AugmentConfig, DatasetManifest
from .errors import CompatibilityError, ConfigError, TrainingDiverged
from .lora import (DEFAULT_TARGETS, adapted_layers, adapter_param_count,
                   count_params, inject, merged_model, model_forward)
from .metrics import MetricsReport
from .tensor import NumericsError, Tensor
from .training import TrainConfig, cross_eval, evaluate, predict, train


def _section(cls) -> dict:
    """A config section holding a dataclass's fields and defaults, tuples as lists."""
    return {f.name: list(f.default) if isinstance(f.default, tuple) else f.default
            for f in fields(cls)}


DEFAULT_CONFIG: dict = {
    "model": {**base_config(num_classes=None).to_dict(), "seed": 0},
    "train": _section(TrainConfig),
    "augment": _section(AugmentConfig),
    # no library dataclass holds these two sections
    "lora": {"enabled": True, "rank": 16, "alpha": 32.0, "dropout": 0.1,
             "targets": list(DEFAULT_TARGETS)},
    "data": {"root": None, "ratios": [0.8, 0.1, 0.1], "by_group": False,
             "split_seed": 0},
    "init_from": None,
    "output_dir": None,
}

# leaves whose default is None still need a declared type
_NONE_LEAF_TYPES = {"model.num_classes": int, "data.root": str,
                    "init_from": str, "output_dir": str}
_BOOLS = {"true": True, "1": True, "yes": True,
          "false": False, "0": False, "no": False}


def _leaves(tree: dict, prefix: str = ""):
    for key, value in tree.items():
        path = f"{prefix}.{key}" if prefix else key
        if isinstance(value, dict):
            yield from _leaves(value, path)
        else:
            yield path, value


def _is_a(value, kind: type) -> bool:
    """JSON typing: a bool is no number, and an int serves as a float."""
    if isinstance(value, bool):
        return kind is bool
    return isinstance(value, (int, float) if kind is float else kind)


def _typed(path: str, value, default, from_flag: bool = False):
    """``value`` for the leaf ``path`` in the type of its default: a flag
    string is parsed (lists comma-separated), a JSON value is checked (lists
    element by element). A mismatch is a ConfigError."""
    kind = _NONE_LEAF_TYPES.get(path, type(default))
    element = type(default[0]) if kind is list else kind
    if from_flag:
        parts = [p for p in value.split(",") if p != ""] if kind is list else [value]
        try:
            items = [_BOOLS[p.lower()] if element is bool else element(p)
                     for p in parts]
            return items if kind is list else items[0]
        except (KeyError, ValueError):
            pass
    elif kind is list:
        if isinstance(value, list) and all(_is_a(v, element) for v in value):
            return value
    elif _is_a(value, kind) or (value is None and default is None):
        return value
    expected = f"a list of {element.__name__}" if kind is list else kind.__name__
    if from_flag:
        raise ConfigError(f"--{path}: expected {expected}, got {value!r}")
    raise ConfigError(f"config key {path}: expected {expected}, "
                      f"got {json.dumps(value)}")


def add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="FILE", default=None,
                        help="JSON run config; flags below override its keys")
    for path, default in _leaves(DEFAULT_CONFIG):
        parser.add_argument(f"--{path}", metavar="V", default=None,
                            dest=path, help=f"override (default: {default})")


def _merge_file(cfg: dict, user, prefix: str = "") -> None:
    """Merge a config file's table into the defaults ``cfg``, rejecting
    unknown keys and values of the wrong type or shape."""
    if not isinstance(user, dict):
        where = f"config key {prefix}" if prefix else "config file top level"
        raise ConfigError(f"{where}: expected a table, got {json.dumps(user)}")
    for key, value in user.items():
        path = f"{prefix}.{key}" if prefix else key
        if key not in cfg:
            raise ConfigError(f"unknown config key: {path}")
        if isinstance(cfg[key], dict):
            _merge_file(cfg[key], value, path)
        else:
            cfg[key] = _typed(path, value, cfg[key])


def resolve_config(args: argparse.Namespace) -> dict:
    """defaults <- config file <- CLI flags, each value checked against the
    type of its default."""
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if args.config is not None:
        try:
            user = json.loads(Path(args.config).read_text())
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {args.config}") from None
        except json.JSONDecodeError as e:
            raise ConfigError(f"config file {args.config}: {e}") from None
        _merge_file(cfg, user)
    for path, default in _leaves(DEFAULT_CONFIG):
        raw = getattr(args, path, None)
        if raw is not None:
            *parents, key = path.split(".")
            node = cfg
            for k in parents:
                node = node[k]
            node[key] = _typed(path, raw, default, from_flag=True)
    return cfg


def _build(cls, name: str, section: dict):
    """The validated ``cls`` made from the section's entries for its fields."""
    values = {f.name: section[f.name] for f in fields(cls)}
    try:
        built = cls(**{k: tuple(v) if isinstance(v, list) else v
                       for k, v in values.items()})
        built.validate()
    except (TypeError, ValueError) as e:
        raise ConfigError(f"invalid {name} config: {e}") from e
    return built


def _run_configs(cfg: dict, dataset_classes: int):
    """The model, train and augment configs of a resolved run config; a null
    model.num_classes takes ``dataset_classes``."""
    model = cfg["model"]
    if model["seed"] < 0:
        raise ConfigError("invalid model config: seed must be >= 0")
    if model["num_classes"] is None:
        model = {**model, "num_classes": dataset_classes}
    return (_build(ModelConfig, "model", model),
            _build(TrainConfig, "train", cfg["train"]),
            _build(AugmentConfig, "augment", cfg["augment"]))


def _lora_settings(cfg: dict, config: ModelConfig) -> dict:
    """``inject``'s adapter arguments from the lora section, checked against
    the layers of ``config``."""
    lc = cfg["lora"]
    try:
        adapted_layers(config, tuple(lc["targets"]), lc["rank"], lc["dropout"])
    except ValueError as e:
        raise ConfigError(f"invalid lora config: {e}") from e
    return {"targets": tuple(lc["targets"]), "r": lc["rank"],
            "alpha": lc["alpha"], "dropout_p": lc["dropout"]}


def _split_dataset(root: str, splits, **split_args) -> DatasetManifest:
    """Scan and split ``root``; every split named in ``splits`` must get images."""
    try:
        manifest = data_mod.split(data_mod.scan_dataset(root), **split_args)
    except (FileNotFoundError, ValueError) as e:
        raise ConfigError(str(e)) from e
    for name in splits:
        if not manifest.indices_for(name):
            raise ConfigError(f"dataset {root} has no {name!r} split "
                              f"({len(manifest.samples)} images are too few "
                              f"for the split ratios)")
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

    data = cfg["data"]
    if not data["root"]:
        raise ConfigError("data.root is required")
    # training needs train and val; the run ends by predicting on test
    manifest = _split_dataset(data["root"], data_mod.SPLITS,
                              ratios=tuple(data["ratios"]),
                              seed=data["split_seed"], by_group=data["by_group"])
    model_config, train_cfg, augment = _run_configs(cfg, manifest.num_classes)
    num_classes = model_config.num_classes

    if cfg["init_from"]:
        base = _load_base(cfg["init_from"], "init_from")
    else:
        base = build_model(model_config, seed=cfg["model"]["seed"])
    base.class_names = manifest.class_names
    # the data path decodes RGB and resizes every image to augment.resize
    if base.config.in_channels != 3:
        raise ConfigError(f"model.in_channels is {base.config.in_channels}, "
                          f"but images are decoded as RGB (3 channels)")
    if base.config.image_size != augment.resize:
        raise ConfigError(f"augment.resize {augment.resize} does not match "
                          f"the model's image_size {base.config.image_size}")

    lora_cfg = cfg["lora"]
    model = base
    if lora_cfg["enabled"]:
        model = inject(base, **_lora_settings(cfg, base.config),
                       seed=cfg["model"]["seed"], num_classes=num_classes)

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
    manifest = _split_dataset(args.data, [args.split], seed=args.split_seed,
                              by_group=args.by_group)
    report = evaluate(model, manifest, args.split)
    print(report.format_table())
    if args.out:
        Path(args.out).write_text(report.to_tsv())
        print(f"wrote {args.out}")
    return 0


def cmd_cross_eval(args) -> int:
    models = _load_models_for_eval(args.checkpoint, args.base)
    datasets = [_split_dataset(d, [args.split], seed=args.split_seed)
                for d in args.data]
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
        model_config, _, _ = _run_configs(cfg, 2)
        sizes = {name: math.prod(shape)
                 for name, shape, _ in param_shapes(model_config)}
        total = sum(sizes.values())
        counts = {"total": total, "trainable": total}
        if cfg["lora"]["enabled"]:
            lora = _lora_settings(cfg, model_config)
            adapter = adapter_param_count(model_config, lora["r"], lora["targets"])
            head = sum(n for name, n in sizes.items() if name.startswith("head."))
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
