"""Decoupled-weight-decay Adam, the training loop, and evaluation.

The loop trains whatever parameters carry the trainable flag, stops early
after ``patience`` epochs without a validation-accuracy improvement, and
returns the weights of the best epoch (earliest on ties), not the last.
Every random draw derives from the config seed, so a rerun with the same
seed reproduces the same history.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import tensor as T
from .data import AugmentConfig, DatasetManifest, load_batch
from .errors import CompatibilityError, TrainingDiverged
from .lora import PeftModel, model_forward, with_trainables
from .metrics import MetricsReport
from .tensor import Tensor


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 1e-4
    betas: tuple[float, float] = (0.9, 0.999)
    eps: float = 1e-8
    weight_decay: float = 0.05
    max_epochs: int = 30
    batch_size: int = 32
    patience: int = 5
    seed: int = 0

    def validate(self) -> None:
        # written so that NaN fails every range check
        if not self.lr > 0:
            raise ValueError("lr must be positive")
        if len(self.betas) != 2 or not all(0 <= b < 1 for b in self.betas):
            raise ValueError("betas must be two values in [0, 1)")
        if not self.eps > 0:
            raise ValueError("eps must be positive")
        if not self.weight_decay >= 0:
            raise ValueError("weight_decay must be >= 0")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if self.max_epochs < 1 or self.batch_size < 1:
            raise ValueError("max_epochs and batch_size must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    val_loss: float
    val_accuracy: float
    wall_time: float


@dataclass
class TrainHistory:
    epochs: list[EpochStats] = field(default_factory=list)
    best_epoch: int = 0

    def to_csv(self, path: str | Path) -> None:
        lines = ["epoch,train_loss,val_loss,val_acc"]
        for e in self.epochs:
            lines.append(f"{e.epoch},{e.train_loss:.6f},{e.val_loss:.6f},"
                         f"{e.val_accuracy:.6f}")
        Path(path).write_text("\n".join(lines) + "\n")


def decay_applies(name: str) -> bool:
    """Weight matrices and adapter factors decay; biases and norm affines
    are excluded."""
    return name.endswith((".weight", ".A", ".B"))


def adamw_step(params: dict[str, Tensor], grads: dict[str, np.ndarray],
               state: dict[str, tuple[np.ndarray, np.ndarray]], t: int,
               cfg: TrainConfig) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """One update: decoupled weight decay, then bias-corrected moment step.

    Parameters update in place; the (first, second) moment state is keyed by
    parameter name and returned for the next call. ``t`` counts steps from 1.
    """
    if t < 1:
        raise ValueError("step counter t starts at 1")
    b1, b2 = cfg.betas
    for name, p in params.items():
        g = grads[name]
        if g is None or not np.all(np.isfinite(g)):
            raise TrainingDiverged(f"non-finite gradient for {name}")
        if cfg.weight_decay and decay_applies(name):
            p.data *= 1.0 - cfg.lr * cfg.weight_decay
        if name not in state:
            state[name] = (np.zeros_like(p.data), np.zeros_like(p.data))
        m, v = state[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        mhat = m / (1.0 - b1 ** t)
        vhat = v / (1.0 - b2 ** t)
        p.data -= cfg.lr * mhat / (np.sqrt(vhat) + cfg.eps)
    return state


def trainable_params(model) -> dict[str, Tensor]:
    if isinstance(model, PeftModel):
        return model.trainable_params()
    return {n: t for n, t in model.params.items() if t.requires_grad}


def _snapshot(params: dict[str, Tensor]) -> dict[str, np.ndarray]:
    return {n: t.data.copy() for n, t in params.items()}


def train(model, manifest: DatasetManifest, cfg: TrainConfig,
          augment: AugmentConfig, val_metric_fn=None):
    """Fit the model's trainable parameters; returns (best_model, history).

    ``val_metric_fn(epoch) -> float`` replaces the real validation-accuracy
    computation when given; tests use it to drive the early-stopping
    contract with a scripted sequence.
    """
    cfg.validate()
    augment.validate()
    train_idx = np.array(manifest.indices_for("train"))
    val_idx = manifest.indices_for("val")
    if len(train_idx) == 0:
        raise ValueError("manifest has no train split")
    if len(val_idx) == 0 and val_metric_fn is None:
        raise ValueError("manifest has no val split")

    params = trainable_params(model)
    state: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    history = TrainHistory()
    best_acc = -math.inf
    best_epoch = 0
    best_weights = _snapshot(params)
    t_step = 0

    for epoch in range(1, cfg.max_epochs + 1):
        tic = time.monotonic()
        order = train_idx.copy()
        np.random.default_rng(np.random.SeedSequence([cfg.seed, epoch, 1])).shuffle(order)
        losses = []
        for step in range(0, len(order), cfg.batch_size):
            batch = order[step : step + cfg.batch_size]
            x, y = load_batch(manifest, "train", batch, augment,
                              train_mode=True, seed=cfg.seed, epoch=epoch)
            drop_rng = np.random.default_rng(
                np.random.SeedSequence([cfg.seed, epoch, step, 2]))
            try:
                logits = model_forward(model, Tensor(x), train_mode=True, rng=drop_rng)
                loss = T.softmax_cross_entropy(logits, y)
            except T.NumericsError as e:
                raise TrainingDiverged(str(e)) from e
            for p in params.values():
                p.zero_grad()
            loss.backward()
            t_step += 1
            adamw_step(params, {n: p.grad for n, p in params.items()},
                       state, t_step, cfg)
            losses.append(loss.item())
            # backward has freed the graph; the logits and loss die here too,
            # not after the next batch has loaded and run its forward
            del logits, loss

        if val_metric_fn is not None:
            val_acc = float(val_metric_fn(epoch))
            val_loss = float("nan")
        else:
            val_report, val_loss = _evaluate_with_loss(model, manifest, "val",
                                                       augment, cfg.batch_size)
            val_acc = val_report.accuracy
        history.epochs.append(EpochStats(
            epoch=epoch, train_loss=float(np.mean(losses)), val_loss=val_loss,
            val_accuracy=val_acc, wall_time=time.monotonic() - tic))

        if val_acc > best_acc:
            best_acc = val_acc
            best_epoch = epoch
            best_weights = _snapshot(params)
        elif epoch - best_epoch >= cfg.patience:
            break

    history.best_epoch = best_epoch
    return with_trainables(model, best_weights), history


def predict(model, manifest: DatasetManifest, split_name: str,
            augment: AugmentConfig | None = None, batch_size: int = 32):
    """Eval-mode predictions: (sample indices, labels, argmax preds, scores)."""
    if augment is None:
        augment = AugmentConfig(resize=model.config.image_size)
    idx = manifest.indices_for(split_name)
    if not idx:
        raise ValueError(f"manifest has no {split_name!r} split")
    labels = np.empty(len(idx), dtype=np.int64)
    preds = np.empty(len(idx), dtype=np.int64)
    scores = np.empty((len(idx), model.config.num_classes), dtype=np.float32)
    with T.no_grad():
        for start in range(0, len(idx), batch_size):
            batch = idx[start : start + batch_size]
            x, y = load_batch(manifest, split_name, batch, augment,
                              train_mode=False, seed=0)
            logits = model_forward(model, Tensor(x), train_mode=False).data
            labels[start : start + len(batch)] = y
            preds[start : start + len(batch)] = logits.argmax(axis=1)
            scores[start : start + len(batch)] = T.softmax(logits)
    return idx, labels, preds, scores


def _evaluate_with_loss(model, manifest, split_name, augment, batch_size):
    idx, labels, preds, scores = predict(model, manifest, split_name,
                                         augment, batch_size)
    eps = np.finfo(np.float32).tiny
    nll = -np.log(np.maximum(scores[np.arange(len(labels)), labels], eps))
    report = MetricsReport.from_predictions(
        preds, labels, model.config.num_classes,
        class_names=model.class_names or manifest.class_names)
    return report, float(nll.mean())


def evaluate(model, manifest: DatasetManifest, split_name: str = "test",
             augment: AugmentConfig | None = None,
             batch_size: int = 32) -> MetricsReport:
    """Eval-mode forward over a split, reduced to a full metrics report."""
    report, _ = _evaluate_with_loss(model, manifest, split_name, augment, batch_size)
    return report


def write_prediction_dump(path: str | Path, manifest: DatasetManifest,
                          idx, labels, preds, scores) -> None:
    """TSV rows of (sample path, true, predicted, per-class scores)."""
    names = manifest.class_names
    header = "path\ttrue\tpredicted\t" + "\t".join(f"score_{n}" for n in names)
    lines = [header]
    for row, i in enumerate(idx):
        s = manifest.samples[int(i)]
        score_cols = "\t".join(f"{v:.6f}" for v in scores[row])
        lines.append(f"{s.path}\t{names[labels[row]]}\t{names[preds[row]]}"
                     f"\t{score_cols}")
    Path(path).write_text("\n".join(lines) + "\n")


def class_mapping(model, dataset_names: list[str]) -> np.ndarray:
    """Model prediction index -> dataset class id, matched by class name;
    the model's class names must name each of its outputs once."""
    model_names = model.class_names
    if model_names is None:
        raise CompatibilityError("model has no class vocabulary recorded")
    if len(model_names) != model.config.num_classes:
        raise CompatibilityError(f"model has {len(model_names)} class names for "
                                 f"{model.config.num_classes} outputs")
    if len(set(model_names)) != len(model_names):
        raise CompatibilityError(f"model class names {model_names} repeat a name")
    mapping = np.empty(len(model_names), dtype=np.int64)
    for i, name in enumerate(model_names):
        try:
            mapping[i] = dataset_names.index(name)
        except ValueError:
            raise CompatibilityError(
                f"model class {name!r} missing from dataset vocabulary") from None
    return mapping


def cross_eval(models, datasets: list[DatasetManifest],
               split_name: str = "test", augment: AugmentConfig | None = None,
               batch_size: int = 32) -> np.ndarray:
    """Accuracy matrix: entry (i, j) is model i evaluated on dataset j.

    Model and dataset vocabularies are aligned by class name; a name missing
    from a dataset is a compatibility error.
    """
    out = np.zeros((len(models), len(datasets)))
    for i, model in enumerate(models):
        for j, manifest in enumerate(datasets):
            mapping = class_mapping(model, manifest.class_names)
            _, labels, preds, _ = predict(model, manifest, split_name,
                                          augment, batch_size)
            out[i, j] = float((mapping[preds] == labels).mean())
    return out
