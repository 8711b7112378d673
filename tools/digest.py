"""SHA-256 digests of seeded training runs, checkpoints and gradients.

    PYTHONPATH=src python tools/digest.py

Run it on two checkouts to show that a change keeps results byte-identical
under the same seeds: every printed digest must match. It runs with one
BLAS thread and takes under a minute on two CPUs. It prints one line per
digest:

- ``full``: history and checkpoint of a 3-epoch full run of the tiny
  config, with flips and rotations;
- ``lora``: history and adapter checkpoint of a 3-epoch LoRA r=4 run of
  that model on a shifted domain;
- ``merged``: the checkpoint of the re-attached adapter merged into its base;
- ``headonly``: a ``lora.head_only`` adapter checkpoint of that base (no
  adapters, header ``lora: null``) with a fresh 4-class head, and the
  checkpoint its load, attach and save write;
- ``grads32``, ``grads96``: every trainable gradient of one base-config
  LoRA r=16 train step (fc1/fc2, dropout 0.1) at 32 px, batch 4, and at
  96 px, batch 2;
- ``saliency``: ``backbone.saliency`` maps of a tiny Model and of a tiny
  PeftModel (r=4, with a nonzero B), explaining the top class and class 2;
- ``pixels``: ``load_batch`` outputs from 32-px sources in train and eval
  mode, with flips and rotations (up to 15 and 180 degrees) on and off, at
  ``resize`` 32, 24 and 48.

Digests depend on the numpy/BLAS build (README, Numerics), so they compare
checkouts on one machine; they are not fixed constants.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import hashlib
import tempfile
from pathlib import Path

import numpy as np

from convlora import backbone, data, lora, persist, tensor as T, training
from convlora.data import AugmentConfig
from convlora.training import TrainConfig

CLASSES = 6
PER_CLASS = 40
AUGMENT = AugmentConfig(hflip_prob=0.5, rotation_max_deg=15.0, resize=32)
TRAIN = TrainConfig(lr=2e-3, max_epochs=3, batch_size=32, patience=3, seed=0)


def _sha(*blobs: bytes) -> str:
    h = hashlib.sha256()
    for blob in blobs:
        h.update(blob)
    return h.hexdigest()


def _run_digest(model, manifest, ckpt: Path) -> str:
    best, history = training.train(model, manifest, TRAIN, AUGMENT)
    history.to_csv(ckpt.with_suffix(".csv"))
    persist.save(best, ckpt)
    return _sha(ckpt.with_suffix(".csv").read_bytes(), ckpt.read_bytes())


def _grads_digest(size: int, batch: int) -> str:
    model = backbone.build_model(backbone.base_config(CLASSES, image_size=size), seed=0)
    peft = lora.inject(model, targets=("fc1", "fc2"), r=16, alpha=32.0,
                       dropout_p=0.1, seed=0)
    rng = np.random.default_rng(size)
    x = T.Tensor(rng.normal(size=(batch, 3, size, size)).astype(np.float32))
    labels = rng.integers(0, CLASSES, size=batch)
    logits = lora.model_forward(peft, x, train_mode=True,
                                rng=np.random.default_rng(1))
    T.softmax_cross_entropy(logits, labels).backward()
    params = training.trainable_params(peft)
    return _sha(*(name.encode() + params[name].grad.tobytes()
                  for name in sorted(params)))


def _saliency_digest() -> str:
    model = backbone.build_model(backbone.tiny_test_config(CLASSES), seed=0)
    peft = lora.inject(model, r=4, alpha=8.0, seed=1)
    rng = np.random.default_rng(5)
    for ad in peft.adapters.values():
        ad.B.data[:] = rng.normal(scale=0.1, size=ad.B.shape)
    image = rng.normal(size=(3, 32, 32)).astype(np.float32)
    adapted = lambda x: lora.model_forward(peft, x)
    return _sha(*(backbone.saliency(m, image, c).tobytes()
                  for m in (model, adapted) for c in (None, 2)))


def _pixels_digest(root: Path) -> str:
    manifest = data.split(data.synth_domain(root, CLASSES, 8, seed=1), (1.0, 0.0, 0.0))
    idx = manifest.indices_for("train")
    blobs = []
    for resize in (32, 24, 48):
        for hflip, rotation in ((0.0, 0.0), (0.5, 0.0), (0.0, 15.0), (0.5, 15.0),
                                (1.0, 180.0)):
            augment = AugmentConfig(hflip_prob=hflip, rotation_max_deg=rotation,
                                    resize=resize)
            for train_mode in (True, False):
                x, y = data.load_batch(manifest, "train", idx, augment,
                                       train_mode, seed=3, epoch=1)
                blobs += [x.tobytes(), y.tobytes()]
    return _sha(*blobs)


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        domains = [data.split(data.synth_domain(tmp / name, CLASSES, PER_CLASS,
                                                palette_shift=shift,
                                                texture_shift=shift, seed=0))
                   for name, shift in (("A", 0.0), ("B", 0.8))]

        model = backbone.build_model(backbone.tiny_test_config(CLASSES), seed=0)
        print("full   ", _run_digest(model, domains[0], tmp / "full.ckpt"))

        base = persist.load(tmp / "full.ckpt")
        peft = lora.inject(base, r=4, alpha=8.0, seed=1)
        print("lora   ", _run_digest(peft, domains[1], tmp / "adapter.ckpt"))

        adapter = persist.load(tmp / "adapter.ckpt")
        persist.save(lora.merged_model(adapter.attach(base)), tmp / "merged.ckpt")
        print("merged ", _sha((tmp / "merged.ckpt").read_bytes()))

        persist.save(lora.head_only(base, seed=2, num_classes=4), tmp / "head.ckpt")
        persist.save(persist.load(tmp / "head.ckpt").attach(base), tmp / "head2.ckpt")
        print("headonly", _sha((tmp / "head.ckpt").read_bytes(),
                               (tmp / "head2.ckpt").read_bytes()))

    print("grads32", _grads_digest(32, 4))
    print("grads96", _grads_digest(96, 2))
    print("saliency", _saliency_digest())
    with tempfile.TemporaryDirectory() as tmp:
        print("pixels ", _pixels_digest(Path(tmp)))


if __name__ == "__main__":
    main()
