"""Dataset ingestion, deterministic splitting, batching, and synthesis.

Datasets are folder-per-class image trees (``root/<class>/<file>.ppm``). An
optional ``root/groups.tsv`` (relative path TAB group key) marks samples
that must never be separated across splits, e.g. frames of one source
video. ``synth_domain`` writes such trees with a controllable distribution
shift between domains for desk-scale cross-domain experiments.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import images

SPLITS = ("train", "val", "test")


@dataclass
class Sample:
    path: str
    class_id: int
    group_key: str | None = None
    split: str | None = None


@dataclass
class DatasetManifest:
    """Ordered sample index with class names and optional split assignment."""

    samples: list[Sample]
    class_names: list[str]
    root: str | None = None

    @property
    def num_classes(self) -> int:
        return len(self.class_names)

    def indices_for(self, split: str) -> list[int]:
        return [i for i, s in enumerate(self.samples) if s.split == split]

    def class_counts(self) -> list[int]:
        counts = [0] * self.num_classes
        for s in self.samples:
            counts[s.class_id] += 1
        return counts

    def validate(self) -> None:
        ids = {s.class_id for s in self.samples}
        if ids and (min(ids) < 0 or max(ids) >= self.num_classes):
            raise ValueError("class ids must be dense in [0, num_classes)")
        by_group: dict[str, set[str]] = {}
        for s in self.samples:
            if s.group_key is not None and s.split is not None:
                by_group.setdefault(s.group_key, set()).add(s.split)
        leaking = [g for g, ss in by_group.items() if len(ss) > 1]
        if leaking:
            raise ValueError(f"groups split across partitions: {leaking[:5]}")


@dataclass(frozen=True)
class AugmentConfig:
    """Training-time augmentation and the deterministic eval transform."""

    hflip_prob: float = 0.5
    rotation_max_deg: float = 15.0
    resize: int = 224
    normalize_mean: tuple[float, float, float] = (0.485, 0.456, 0.406)
    normalize_std: tuple[float, float, float] = (0.229, 0.224, 0.225)

    def validate(self) -> None:
        # written so that NaN fails every range check
        if not self.rotation_max_deg >= 0:
            raise ValueError("rotation_max_deg must be >= 0")
        if self.resize < 4:
            raise ValueError("resize must be >= 4")
        if not 0.0 <= self.hflip_prob <= 1.0:
            raise ValueError("hflip_prob must be in [0, 1]")
        if len(self.normalize_mean) != 3 or len(self.normalize_std) != 3:
            raise ValueError("normalize_mean and normalize_std need one entry "
                             "per RGB channel")
        if not all(s > 0 for s in self.normalize_std):
            raise ValueError("normalize_std entries must be positive")


def scan_dataset(root: str | Path) -> DatasetManifest:
    """Index a folder-per-class tree; deterministic lexicographic ordering."""
    root = Path(root)
    if not root.is_dir():
        raise FileNotFoundError(f"dataset root {root} does not exist")
    class_dirs = sorted(d for d in root.iterdir() if d.is_dir())
    if not class_dirs:
        raise ValueError(f"dataset root {root} contains no class directories")

    groups: dict[str, str] = {}
    groups_file = root / "groups.tsv"
    if groups_file.is_file():
        for line in groups_file.read_text().splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            rel, _, key = line.partition("\t")
            if not key:
                raise ValueError(f"groups.tsv line without a group key: {line!r}")
            groups[rel] = key

    class_names = [d.name for d in class_dirs]
    samples: list[Sample] = []
    for class_id, d in enumerate(class_dirs):
        files = sorted(p for p in d.iterdir() if p.is_file())
        for p in files:
            if p.suffix.lower() not in (".ppm", ".png"):
                raise images.ImageFormatError(
                    f"unsupported file in dataset tree: {p}")
            rel = f"{d.name}/{p.name}"
            samples.append(Sample(path=str(p), class_id=class_id,
                                  group_key=groups.get(rel)))
    if not samples:
        raise ValueError(f"dataset root {root} contains no images")
    return DatasetManifest(samples=samples, class_names=class_names, root=str(root))


def _apportion(n: int, ratios: tuple[float, ...]) -> list[int]:
    # largest-remainder rounding; earlier splits win ties
    raw = [n * r for r in ratios]
    counts = [math.floor(x) for x in raw]
    order = sorted(range(len(ratios)), key=lambda i: (-(raw[i] - counts[i]), i))
    for i in order[: n - sum(counts)]:
        counts[i] += 1
    return counts


def split(manifest: DatasetManifest, ratios: tuple[float, float, float] = (0.8, 0.1, 0.1),
          seed: int = 0, by_group: bool = False) -> DatasetManifest:
    """Assign train/val/test deterministically.

    Stratified per class by default; with ``by_group`` every group is kept
    inside a single split (group-atomic).
    """
    if len(ratios) != 3:
        raise ValueError("ratios must have three entries (train, val, test)")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"ratios must sum to 1, got {sum(ratios)}")
    out = [replace(s) for s in manifest.samples]
    rng = np.random.default_rng(seed)

    if by_group:
        group_members: dict[str, list[int]] = {}
        for i, s in enumerate(out):
            key = s.group_key if s.group_key is not None else f"__solo_{i}"
            group_members.setdefault(key, []).append(i)
        keys = sorted(group_members)
        rng.shuffle(keys)
        total = len(out)
        targets = [total * r for r in ratios]
        filled = [0, 0, 0]
        for key in keys:
            members = group_members[key]
            deficits = [targets[j] - filled[j] for j in range(3)]
            j = max(range(3), key=lambda jj: (deficits[jj], -jj))
            for i in members:
                out[i].split = SPLITS[j]
            filled[j] += len(members)
    else:
        for class_id in range(manifest.num_classes):
            idx = [i for i, s in enumerate(out) if s.class_id == class_id]
            if not idx:
                continue
            if len(idx) < len(SPLITS):
                warnings.warn(
                    f"class {manifest.class_names[class_id]!r} has only "
                    f"{len(idx)} samples; placing all in train")
                for i in idx:
                    out[i].split = "train"
                continue
            idx = np.array(idx)
            rng.shuffle(idx)
            counts = _apportion(len(idx), ratios)
            pos = 0
            for split_name, n in zip(SPLITS, counts):
                for i in idx[pos : pos + n]:
                    out[int(i)].split = split_name
                pos += n

    result = DatasetManifest(samples=out, class_names=list(manifest.class_names),
                             root=manifest.root)
    result.validate()
    return result


def write_manifest_tsv(manifest: DatasetManifest, path: str | Path) -> None:
    lines = ["path\tclass\tgroup\tsplit"]
    for s in manifest.samples:
        lines.append(f"{s.path}\t{manifest.class_names[s.class_id]}"
                     f"\t{s.group_key or ''}\t{s.split or ''}")
    Path(path).write_text("\n".join(lines) + "\n")


def load_batch(manifest: DatasetManifest, split_name: str, indices,
               augment: AugmentConfig, train_mode: bool, seed: int,
               epoch: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Decode, resize, augment (train mode only) and normalize a batch.

    Augmentation randomness depends only on (seed, epoch, sample index), so
    the pixels delivered for a sample are independent of batch composition
    or loading order.
    """
    augment.validate()
    mean = np.asarray(augment.normalize_mean, dtype=np.float32)
    std = np.asarray(augment.normalize_std, dtype=np.float32)
    xs = np.empty((len(indices), 3, augment.resize, augment.resize), dtype=np.float32)
    ys = np.empty(len(indices), dtype=np.int64)
    for row, i in enumerate(indices):
        sample = manifest.samples[int(i)]
        if sample.split != split_name:
            raise ValueError(f"sample {i} belongs to split {sample.split!r}, "
                             f"not {split_name!r}")
        try:
            img = images.read_image(sample.path).astype(np.float32)
        except (OSError, images.ImageFormatError) as e:
            raise images.ImageFormatError(f"failed to decode {sample.path}: {e}") from e
        img = images.resize_bilinear(img, augment.resize, augment.resize)
        if train_mode:
            rng = np.random.default_rng(np.random.SeedSequence([seed, epoch, int(i)]))
            if augment.hflip_prob > 0 and rng.random() < augment.hflip_prob:
                img = images.hflip(img)
            if augment.rotation_max_deg > 0:
                angle = rng.uniform(-augment.rotation_max_deg, augment.rotation_max_deg)
                img = images.rotate_bilinear(img, angle)
        img = images.normalize(img, mean, std)
        xs[row] = img.transpose(2, 0, 1)
        ys[row] = sample.class_id
    return xs, ys


# ---------------------------------------------------------------------------
# synthetic shifted domains
# ---------------------------------------------------------------------------

SHAPE_NAMES = ("disk", "square", "hbars", "ring", "cross", "checker",
               "triangle", "vbars")

# a full palette_shift of 1.0 rotates every hue this far around the circle
# and collapses the per-class hue spread by _HUE_COMPRESSION, so color cues
# learned on the unshifted domain both mislead and lose their resolution
_HUE_ROTATION = 0.45
_HUE_COMPRESSION = 0.9


def _hsv_to_rgb(h: float, s: float, v: float) -> np.ndarray:
    h = h % 1.0
    i = int(h * 6.0) % 6
    f = h * 6.0 - int(h * 6.0)
    p, q, t = v * (1 - s), v * (1 - f * s), v * (1 - (1 - f) * s)
    rgb = [(v, t, p), (q, v, p), (p, v, t), (p, q, v), (t, p, v), (v, p, q)][i]
    return np.array(rgb, dtype=np.float32)


def _shape_mask(kind: str, size: int, rng: np.random.Generator) -> np.ndarray:
    cy = size / 2 + rng.uniform(-0.12, 0.12) * size
    cx = size / 2 + rng.uniform(-0.12, 0.12) * size
    r = rng.uniform(0.28, 0.40) * size
    yy, xx = np.ogrid[:size, :size]
    dy, dx = yy - cy, xx - cx
    dist2 = dy * dy + dx * dx
    box = (np.abs(dy) < r) & (np.abs(dx) < r)
    if kind == "disk":
        return dist2 < r * r
    if kind == "square":
        return box
    if kind == "hbars":
        bar = max(2, int(r / 2))
        return box & ((((yy - int(cy - r)) // bar) % 2) == 0)
    if kind == "ring":
        return (dist2 < r * r) & (dist2 > (0.55 * r) ** 2)
    if kind == "cross":
        t = max(2, int(0.35 * r))
        return ((np.abs(dy) < t) | (np.abs(dx) < t)) & box
    if kind == "checker":
        cell = max(2, int(r / 2))
        return box & ((((yy // cell) + (xx // cell)) % 2) == 0)
    if kind == "triangle":
        return (dy > -r) & (dy < r) & (np.abs(dx) < (dy + r) / 2)
    if kind == "vbars":
        bar = max(2, int(r / 2))
        return box & ((((xx - int(cx - r)) // bar) % 2) == 0)
    raise ValueError(f"unknown shape kind {kind!r}")


def synth_sample(class_idx: int, num_classes: int, image_size: int,
                 palette_shift: float, texture_shift: float,
                 rng: np.random.Generator) -> np.ndarray:
    """One uint8 [S, S, 3] image: a class-specific shape and hue drawn over a
    domain-colored background, with domain-controlled texture statistics."""
    hue_rot = _HUE_ROTATION * palette_shift
    spread = 1.0 - _HUE_COMPRESSION * palette_shift
    fg_hue = (spread * class_idx / num_classes + hue_rot
              + rng.uniform(-0.04, 0.04)) % 1.0
    bg_hue = (0.62 + hue_rot + rng.uniform(-0.05, 0.05)) % 1.0
    fg = _hsv_to_rgb(fg_hue, 0.9, rng.uniform(0.8, 0.95)) * 255.0
    bg = _hsv_to_rgb(bg_hue, 0.3, rng.uniform(0.3, 0.45)) * 255.0

    kind = SHAPE_NAMES[class_idx % len(SHAPE_NAMES)]
    mask = _shape_mask(kind, image_size, rng)
    img = np.where(mask[..., None], fg, bg)

    if texture_shift > 0:
        # structured interference: a strong sinusoidal grating with random
        # phase and orientation, the dominant appearance statistic of a
        # shifted domain
        freq = 2.0 + 6.0 * texture_shift
        phase = rng.uniform(0, 2 * math.pi)
        axis = np.arange(image_size) / image_size
        yy, xx = np.meshgrid(axis, axis, indexing="ij")
        u, v = [(0.0, 1.0), (1.0, 0.0), (0.7071, 0.7071), (0.7071, -0.7071)][
            rng.integers(0, 4)]
        wave = np.sin(2 * math.pi * freq * (u * yy + v * xx) + phase)
        img = img + (40.0 * texture_shift) * wave[..., None]
    noise_std = 4.0 + 32.0 * texture_shift
    img = img + rng.normal(0.0, noise_std, size=img.shape)
    return np.clip(img, 0, 255).astype(np.uint8)


def synth_domain(out_root: str | Path, num_classes: int, samples_per_class: int,
                 image_size: int = 32, palette_shift: float = 0.0,
                 texture_shift: float = 0.0, seed: int = 0) -> DatasetManifest:
    """Materialize a folder-per-class PPM tree; bitwise deterministic per
    (spec, seed). Class names are stable across domains so cross-domain
    vocabularies line up."""
    if num_classes < 2:
        raise ValueError("num_classes must be >= 2")
    if samples_per_class < 1:
        raise ValueError("samples_per_class must be >= 1")
    out_root = Path(out_root)
    out_root.mkdir(parents=True, exist_ok=True)
    for ci in range(num_classes):
        name = f"c{ci:02d}_{SHAPE_NAMES[ci % len(SHAPE_NAMES)]}"
        class_dir = out_root / name
        class_dir.mkdir(exist_ok=True)
        for si in range(samples_per_class):
            rng = np.random.default_rng(np.random.SeedSequence([seed, ci, si]))
            img = synth_sample(ci, num_classes, image_size,
                               palette_shift, texture_shift, rng)
            images.write_ppm(class_dir / f"img_{si:05d}.ppm", img)
    return scan_dataset(out_root)
