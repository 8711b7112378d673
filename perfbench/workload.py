"""The three benchmark workloads, run through convlora's public API.

    python3 perfbench/workload.py prepare --workload NAME --seed N --work DIR [--short]
    python3 perfbench/workload.py measure --workload NAME --work DIR --seconds S
                                          [--rounds K] [--trace] [--short]

``prepare`` writes the workload's inputs (synthetic domains, base
checkpoints) into DIR; it is not timed. ``measure`` runs whole rounds of
the workload until the next round would end after S seconds (at least one,
or exactly K with ``--rounds``), checks the first round's outputs, holds
every later round to the first one's fingerprint and prints one JSON object
as its last line. ``run.py`` drives both, each in a fresh
process, so that peak memory belongs to one workload alone.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import statistics
import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from convlora import backbone, data, lora, metrics, persist, tensor, training
from convlora.data import AugmentConfig
from convlora.training import TrainConfig

import checks

NUM_CLASSES = 6
IMAGE_SIZE = 32
PLAIN_AUG = AugmentConfig(hflip_prob=0.0, rotation_max_deg=0.0, resize=IMAGE_SIZE)
TRAIN_AUG = AugmentConfig(hflip_prob=0.5, rotation_max_deg=15.0, resize=IMAGE_SIZE)
DOMAINS = ("A", "B")        # B is A shifted in palette and texture by SHIFT_B
SHIFT_B = 0.8
ABOVE_CHANCE = 0.5          # tiny workloads: three times chance (1/6)
ADAPTER_SHARE = 0.05        # adapter file / base file, base scale only


@dataclass(frozen=True)
class Workload:
    name: str
    model: str                      # "tiny" or "base"
    per_class: int                  # images per class in each domain
    ratios: tuple[float, float, float]
    rank: int | None                # None trains every parameter
    alpha: float
    augment: AugmentConfig
    train: TrainConfig
    setup_repeats: int
    pretrain_epochs: int = 0        # tiny base pretrained on domain A

    @property
    def train_domain(self) -> str:
        return "A" if self.rank is None else "B"


def _tiny_train(epochs: int, lr: float, seed: int) -> TrainConfig:
    # patience equal to the epoch count: no run stops early
    return TrainConfig(lr=lr, max_epochs=epochs, batch_size=32, patience=epochs,
                       seed=seed)


WORKLOADS = {
    w.name: w for w in (
        Workload("lora-tiny-aug", "tiny", 200, (0.8, 0.1, 0.1), 4, 8.0, TRAIN_AUG,
                 _tiny_train(2, 3e-3, 50), setup_repeats=20, pretrain_epochs=2),
        Workload("full-tiny-plain", "tiny", 200, (0.8, 0.1, 0.1), None, 0.0,
                 PLAIN_AUG, _tiny_train(2, 2e-3, 30), setup_repeats=20),
        Workload("lora-base-xdomain", "base", 5, (0.4, 0.2, 0.4), 16, 32.0,
                 TRAIN_AUG, TrainConfig(lr=1e-3, max_epochs=3, batch_size=4,
                                        patience=3, seed=70), setup_repeats=3),
    )
}


def short_mode(w: Workload) -> Workload:
    """A quick version of a workload for the harness self-test: one set-up
    and one epoch."""
    if w.model == "base":
        return replace(w, setup_repeats=1,
                       train=replace(w.train, max_epochs=1, patience=1))
    return replace(w, setup_repeats=1, pretrain_epochs=min(w.pretrain_epochs, 1),
                   train=_tiny_train(1, w.train.lr, w.train.seed))


def domain_seeds(seed: int) -> dict[str, int]:
    return {"A": 1000 * seed + 101, "B": 1000 * seed + 202, "model": 1000 * seed + 303}


def model_config(w: Workload) -> backbone.ModelConfig:
    if w.model == "base":
        return backbone.base_config(NUM_CLASSES, image_size=IMAGE_SIZE)
    return backbone.tiny_test_config(NUM_CLASSES, image_size=IMAGE_SIZE)


# ---------------------------------------------------------------------------
# preparation (untimed)
# ---------------------------------------------------------------------------

def _random_base(config: backbone.ModelConfig, seed: int, class_names) -> backbone.Model:
    """Base-config weights drawn in float32 at the library's init scale; a
    stand-in for pretrained weights that is quick to generate."""
    rng = np.random.default_rng(seed)
    params = {}
    for name, shape, kind in backbone.param_shapes(config):
        if kind == "trunc_normal":
            arr = rng.standard_normal(shape, dtype=np.float32)
            arr *= backbone.INIT_STD
        else:
            arr = np.full(shape, 1.0 if kind == "ones" else 0.0, dtype=np.float32)
        params[name] = tensor.Tensor(arr, requires_grad=True)
    return backbone.Model(config, params, list(class_names))


def prepare(w: Workload, seed: int, work: Path) -> None:
    seeds = domain_seeds(seed)
    work.mkdir(parents=True, exist_ok=True)
    manifests = {}
    for dom in DOMAINS:
        shift = 0.0 if dom == "A" else SHIFT_B
        manifests[dom] = data.synth_domain(work / f"dom{dom}", NUM_CLASSES, w.per_class,
                                           IMAGE_SIZE, palette_shift=shift,
                                           texture_shift=shift, seed=seeds[dom])
    if w.rank is None:
        return
    names = manifests["A"].class_names
    if w.model == "base":
        base = _random_base(model_config(w), seeds["model"], names)
    else:
        base = backbone.build_model(model_config(w), seed=seeds["model"],
                                    class_names=names)
        base, _ = training.train(base, data.split(manifests["A"], seed=seeds["A"]),
                                 _tiny_train(w.pretrain_epochs, 2e-3, seeds["model"]),
                                 PLAIN_AUG)
    persist.save(base, work / "base.ckpt")
    _sync(work / "base.ckpt")


def _sync(path: Path) -> None:
    """Flush a freshly written input to disk, so that writeback does not
    overlap the timed rounds."""
    with open(path, "rb") as f:
        os.fsync(f.fileno())


# ---------------------------------------------------------------------------
# one round
# ---------------------------------------------------------------------------

class StepClock:
    """Timestamps every optimizer step by wrapping ``training.adamw_step``;
    the only probe an untraced run installs."""

    def __init__(self):
        self.stamps: list[float] = []
        inner = training.adamw_step

        def stamped(*args, **kwargs):
            out = inner(*args, **kwargs)
            self.stamps.append(time.perf_counter())
            return out
        training.adamw_step = stamped


def _setup(w: Workload, work: Path, seed: int):
    """Scan and split every domain, then load the base and inject adapters,
    or build a fresh model."""
    seeds = domain_seeds(seed)
    manifests = {dom: data.split(data.scan_dataset(work / f"dom{dom}"), w.ratios,
                                 seed=seeds[dom])
                 for dom in DOMAINS}
    if w.rank is None:
        model = backbone.build_model(model_config(w), seed=seeds["model"],
                                     class_names=manifests["A"].class_names)
        return manifests, None, model
    base = persist.load(work / "base.ckpt")
    peft = lora.inject(base, r=w.rank, alpha=w.alpha, dropout_p=0.1,
                       seed=seeds["model"])
    peft.base.class_names = manifests[w.train_domain].class_names
    return manifests, base, peft


def _logits(model, manifest) -> np.ndarray:
    """Eval-mode logits of the first four test images."""
    idx = manifest.indices_for("test")[:4]
    x, _ = data.load_batch(manifest, "test", idx, PLAIN_AUG, train_mode=False, seed=0)
    with tensor.no_grad():
        return lora.model_forward(model, tensor.Tensor(x)).data


def _fingerprint(history, files: list[Path], matrices: dict) -> str:
    """Digest of everything a round computes: history, files, eval results."""
    h = hashlib.sha256()
    for e in history.epochs:
        h.update(repr((e.epoch, e.train_loss, e.val_loss, e.val_accuracy)).encode())
    h.update(repr(history.best_epoch).encode())
    for matrix in matrices.values():
        h.update(matrix.tobytes())
    for f in files:
        h.update(hashlib.sha256(f.read_bytes()).digest())
    return h.hexdigest()


def run_round(w: Workload, work: Path, seed: int, clock: StepClock, quiet,
              check: bool) -> dict:
    """Set up ``w.setup_repeats`` times, then train, save, reload, evaluate
    and (LoRA) merge once; with ``check``, check the outputs. ``quiet()`` is
    a context in which a tracer records nothing: the earlier set-ups and the
    checks."""
    out_dir = work / "out"
    out_dir.mkdir(exist_ok=True)
    setups = []
    manifests = base = model = None
    for i in range(w.setup_repeats):
        manifests = base = model = None
        with quiet() if i < w.setup_repeats - 1 else contextlib.nullcontext():
            start = time.perf_counter()
            manifests, base, model = _setup(w, work, seed)
            setups.append(time.perf_counter() - start)
    wall_start = start
    before = {n: t.data.copy() for n, t in training.trainable_params(model).items()}
    train_m = manifests[w.train_domain]
    n_train = len(train_m.indices_for("train"))

    first_stamp = len(clock.stamps)
    t0 = time.perf_counter()
    best, history = training.train(model, train_m, w.train, w.augment)
    train_s = time.perf_counter() - t0
    stamps = clock.stamps[first_stamp:]
    model = None

    # the saved result is read back and evaluated, as a user would
    if w.rank is None:
        written = [out_dir / "model.ckpt"]
        persist.save(best, written[0])
        final = persist.load(written[0])
    else:
        written = [out_dir / "adapter.ckpt", out_dir / "merged.ckpt"]
        persist.save(best, written[0])
        final = persist.load(written[0]).attach(base)

    # on the tiny model the train splits too, so that timing covers ~2k images
    splits = ("test", "train") if w.model == "tiny" else ("test",)
    datasets = [manifests[d] for d in DOMAINS]
    t0 = time.perf_counter()
    matrices = {s: training.cross_eval([final], datasets, s, PLAIN_AUG) for s in splits}
    eval_s = time.perf_counter() - t0
    eval_images = sum(len(m.indices_for(s)) for s in splits for m in datasets)

    merged = None
    if w.rank is not None:
        merged = lora.merged_model(final)
        persist.save(merged, written[1])
    wall_s = time.perf_counter() - wall_start

    results = []
    if check:
        with quiet():
            results = _check(w, work, history, manifests, matrices, before,
                             best, final, merged, out_dir)
    reads = (w.setup_repeats if w.rank is not None else 0) + 1
    return {
        "setup_s": setups,
        "train_img_per_s": w.train.max_epochs * n_train / train_s,
        "step_intervals_s": list(np.diff(stamps)),
        "eval_img_per_s": eval_images / eval_s,
        "wall_s": wall_s,
        "ops": {"train_steps": len(stamps), "eval_images": eval_images,
                "checkpoint_reads": reads, "checkpoint_writes": len(written)},
        "expected_steps": w.train.max_epochs * math.ceil(n_train / w.train.batch_size),
        "checks": results,
        "fingerprint": _fingerprint(history, written, matrices),
        "accuracy": float(matrices["test"][0, DOMAINS.index(w.train_domain)]),
    }


def _check(w: Workload, work: Path, history, manifests, matrices, before,
           best, final, merged, out_dir: Path) -> list[tuple]:
    """Every output check of one round (see checks.py)."""
    train_col = DOMAINS.index(w.train_domain)
    train_m = manifests[w.train_domain]
    results = [checks.history_finite(history),
               checks.history_length(history, w.train.max_epochs)]
    for split_name, matrix in matrices.items():
        for col, dom in enumerate(DOMAINS):
            m = manifests[dom]
            _, labels, preds, _ = training.predict(final, m, split_name, PLAIN_AUG)
            results.append(checks.labels_match_paths(m, split_name, labels))
            results.append(checks.cross_eval_matches(f"cross_eval_{split_name}", matrix,
                                                     0, col, preds, labels))
            rep = metrics.MetricsReport.from_predictions(preds, labels, NUM_CLASSES)
            results.append(checks.accuracy_matches(rep, preds, labels))
        if w.model == "tiny":
            results.append(checks.above_chance(f"{split_name}_accuracy_above_chance",
                                               float(matrix[0, train_col]),
                                               NUM_CLASSES, ABOVE_CHANCE))
    ref = _logits(best, train_m)
    results.append(checks.logits_identical("reloaded_logits_exact",
                                           _logits(final, train_m), ref))
    if w.rank is None:
        results.append(checks.every_param_moved(before, best))
    else:
        base_path = work / "base.ckpt"
        adapter_path = out_dir / "adapter.ckpt"
        results += [checks.frozen_base_unchanged(best, base_path),
                    checks.only_trainables_moved(before, best),
                    checks.adapter_count(best, lora.count_params(best), w.rank),
                    checks.logits_close("merged_logits_close",
                                        _logits(merged, train_m), ref),
                    checks.adapter_file_holds_only_adapters(adapter_path, best)]
        if w.model == "base":
            results.append(checks.adapter_file_small(adapter_path, base_path,
                                                     ADAPTER_SHARE))
    return results


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def peak_rss_mb() -> float:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024 / 1e6
    raise RuntimeError("VmHWM not found in /proc/self/status")


def measure(w: Workload, work: Path, seed: int, seconds: float, rounds: int | None,
            trace: bool) -> dict:
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    clock = StepClock()
    quiet = tracer.paused if tracer is not None else contextlib.nullcontext
    start = time.perf_counter()
    done = []
    while True:
        # later rounds are held to the first round's outputs by fingerprint
        done.append(run_round(w, work, seed, clock, quiet, check=not done))
        elapsed = time.perf_counter() - start
        if rounds is not None:
            if len(done) == rounds:
                break
        elif elapsed + elapsed / len(done) > seconds:
            break
    if tracer is not None:
        tracer.uninstall()

    intervals = [s for r in done for s in r["step_intervals_s"]]
    metrics = {
        "setup_s": statistics.median(s for r in done for s in r["setup_s"]),
        "train_img_per_s": statistics.median(r["train_img_per_s"] for r in done),
        "step_ms_p50": 1e3 * statistics.median(intervals),
        "eval_img_per_s": statistics.median(r["eval_img_per_s"] for r in done),
        "peak_rss_mb": peak_rss_mb(),
        "wall_s": statistics.median(r["wall_s"] for r in done),
    }
    detail = {"rounds": len(done), "step_intervals": len(intervals),
              "wall_s_per_round": [r["wall_s"] for r in done],
              "accuracy": [r["accuracy"] for r in done]}
    if len(intervals) >= 100:
        detail["step_ms_p90"] = 1e3 * statistics.quantiles(intervals, n=10)[-1]

    failed_checks = [f"{name}: {info}" for r in done for name, ok, info in r["checks"]
                     if not ok]
    wrong_steps = [r["ops"]["train_steps"] for r in done
                   if r["ops"]["train_steps"] != r["expected_steps"]]
    if wrong_steps:
        failed_checks.append(f"train steps {wrong_steps}, expected "
                             f"{done[0]['expected_steps']}")
    prints = sorted({r["fingerprint"] for r in done})
    if len(prints) != 1:
        failed_checks.append(f"rounds disagree: {len(prints)} fingerprints")
    ops = {k: sum(r["ops"][k] for r in done) for k in done[0]["ops"]}
    result = {"metrics": metrics, "ops": ops, "failed_checks": failed_checks,
              "checks_run": sum(len(r["checks"]) for r in done),
              "fingerprint": done[0]["fingerprint"], "detail": detail}
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        own = tracer.self_times()
        result["self_times"] = dict(sorted(own.items(), key=lambda kv: -kv[1]))
        result["spans"] = len(tracer.spans)
        _write_spans(tracer, work / "spans.tsv")
    return result


def _write_spans(tracer, path: Path) -> None:
    with open(path, "w") as f:
        f.write("index\tname\tstart_s\tend_s\tparent\n")
        for i, (name, start, end, parent) in enumerate(tracer.spans):
            f.write(f"{i}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("action", choices=("prepare", "measure"))
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--rounds", type=int)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--short", action="store_true")
    args = ap.parse_args(argv)
    w = WORKLOADS[args.workload]
    if args.short:
        w = short_mode(w)
    if args.action == "prepare":
        prepare(w, args.seed, args.work)
        return 0
    result = measure(w, args.work, args.seed, args.seconds, args.rounds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
