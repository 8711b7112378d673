"""Output checks made apart from the library.

Each check recomputes a result from first principles (numpy over predicted
labels, the checkpoint bytes read with an independent parser, closed-form
parameter counts) or tests a property the method must have. None compares
against a stored copy of earlier output. Every check returns a
(name, passed, detail) triple.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

MAGIC = b"CVLORA01"


def checkpoint_tensors(path: Path):
    """Yield (name, float32 array) from a checkpoint, one tensor at a time,
    parsing the documented layout directly: magic, uint32 header length,
    JSON header, little-endian float32 payload."""
    with open(path, "rb") as f:
        if f.read(len(MAGIC)) != MAGIC:
            raise ValueError(f"{path}: bad magic")
        header_len = int.from_bytes(f.read(4), "little")
        header = json.loads(f.read(header_len))
        payload_start = len(MAGIC) + 4 + header_len
        for entry in header["tensors"]:
            count = math.prod(entry["shape"])
            f.seek(payload_start + entry["offset"])
            arr = np.frombuffer(f.read(4 * count), dtype="<f4")
            yield entry["name"], arr.reshape(entry["shape"])


def checkpoint_header_bytes(path: Path) -> int:
    with open(path, "rb") as f:
        f.seek(len(MAGIC))
        return len(MAGIC) + 4 + int.from_bytes(f.read(4), "little")


def _bitwise_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def adapter_count_closed_form(depths, dims, mlp_ratio: int, r: int) -> int:
    """sum over fc1 ([m*c, c]) and fc2 ([c, m*c]) of every block of r*(d+k)."""
    return sum(depth * 2 * r * (c + mlp_ratio * c) for depth, c in zip(depths, dims))


def history_finite(history) -> tuple:
    values = [v for e in history.epochs for v in (e.train_loss, e.val_loss)]
    return ("loss_finite", all(math.isfinite(v) for v in values),
            f"{len(values)} losses")


def history_length(history, epochs: int) -> tuple:
    return ("ran_all_epochs", len(history.epochs) == epochs,
            f"{len(history.epochs)} of {epochs} epochs")


def accuracy_matches(report, preds: np.ndarray, labels: np.ndarray) -> tuple:
    acc = float(np.mean(preds == labels))
    return ("report_accuracy", acc == report.accuracy,
            f"numpy {acc!r} vs report {report.accuracy!r}")


def labels_match_paths(manifest, split_name: str, labels: np.ndarray) -> tuple:
    """Labels from ``predict`` equal the class directory of each file."""
    names = sorted({Path(s.path).parent.name for s in manifest.samples})
    want = np.array([names.index(Path(s.path).parent.name)
                     for s in manifest.samples if s.split == split_name])
    return ("labels_from_paths", np.array_equal(want, labels),
            f"{len(want)} {split_name} labels")


def above_chance(name: str, acc: float, num_classes: int, floor: float) -> tuple:
    return (name, acc >= floor, f"{acc:.3f} (chance {1 / num_classes:.3f}, "
                                f"floor {floor})")


def cross_eval_matches(name: str, matrix: np.ndarray, row: int, col: int,
                       preds: np.ndarray, labels: np.ndarray) -> tuple:
    acc = float(np.mean(preds == labels))
    return (f"{name}[{row},{col}]", acc == float(matrix[row, col]),
            f"numpy {acc!r} vs cross_eval {float(matrix[row, col])!r}")


def frozen_base_unchanged(peft, base_path: Path) -> tuple:
    """Every base tensor except the head is bitwise what the base file holds."""
    checked = 0
    for name, want in checkpoint_tensors(base_path):
        if name.startswith("head."):
            continue
        if not _bitwise_equal(peft.base.params[name].data, want):
            return ("frozen_base_bitwise", False, f"{name} changed")
        checked += 1
    return ("frozen_base_bitwise", True, f"{checked} tensors")


def only_trainables_moved(before: dict, peft) -> tuple:
    """Every adapter factor and the head moved; nothing else is trainable."""
    after = peft.trainable_params()
    still = [n for n, t in after.items() if np.array_equal(before[n], t.data)]
    extra = [n for n, t in peft.base.params.items()
             if t.requires_grad and not n.startswith("head.")]
    ok = set(after) == set(before) and not still and not extra
    return ("only_adapters_and_head_moved", ok,
            f"{len(after)} trainable tensors, unmoved {still[:3]}, "
            f"other trainable {extra[:3]}")


def every_param_moved(before: dict, model) -> tuple:
    still = [n for n, t in model.params.items() if np.array_equal(before[n], t.data)]
    return ("every_param_moved", not still and len(before) == len(model.params),
            f"{len(model.params)} tensors, unmoved {still[:3]}")


def adapter_count(peft, count_params: dict, r: int) -> tuple:
    cfg = peft.config
    want = adapter_count_closed_form(cfg.depths, cfg.dims, cfg.mlp_ratio, r)
    actual = sum(ad.A.data.size + ad.B.data.size for ad in peft.adapters.values())
    return ("adapter_count", want == actual == count_params["adapter"],
            f"closed form {want}, tensors {actual}, "
            f"count_params {count_params['adapter']}")


def logits_close(name: str, a: np.ndarray, b: np.ndarray) -> tuple:
    """Agreement to float32 rounding: 1e-4 of the logit scale."""
    scale = max(1.0, float(np.abs(a).max()))
    diff = float(np.abs(a - b).max())
    return (name, diff <= 1e-4 * scale, f"max diff {diff:.2e}, scale {scale:.2e}")


def logits_identical(name: str, a: np.ndarray, b: np.ndarray) -> tuple:
    return (name, _bitwise_equal(a, b), f"{a.shape} logits")


def adapter_file_holds_only_adapters(adapter_path: Path, peft) -> tuple:
    """Header plus float32 adapters and head, nothing more."""
    n = sum(t.data.size for t in peft.trainable_params().values())
    want = checkpoint_header_bytes(adapter_path) + 4 * n
    got = adapter_path.stat().st_size
    return ("adapter_file_size", got == want, f"{got} bytes, expected {want}")


def adapter_file_small(adapter_path: Path, base_path: Path, share: float) -> tuple:
    ratio = adapter_path.stat().st_size / base_path.stat().st_size
    return ("adapter_under_5pct_of_base", ratio < share, f"{100 * ratio:.2f}%")
