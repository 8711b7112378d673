"""The benchmark's traced mode against the library.

``perfbench/tracer.py`` rebinds library functions and methods by name from
outside, and wraps the VJPs each primitive records. A library change that
renames or deletes one of those names, or stops recording VJPs where the
tracer looks for them, breaks the traced benchmark; this test finds that in
seconds. It also holds the tracer to its promise that a traced run computes
the same numbers as an untraced one.
"""

import importlib.util
from pathlib import Path

from convlora import backbone, data, lora, persist, training
from convlora.data import AugmentConfig
from convlora.training import TrainConfig

ROOT = Path(__file__).resolve().parents[1]


def _tracer_module():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _round(manifest, out: Path) -> dict[str, bytes]:
    """One tiny LoRA epoch, then save, load and attach: the history and the
    checkpoint bytes. Calls go through module attributes, where the tracer
    rebinds them."""
    base = backbone.build_model(backbone.tiny_test_config(num_classes=3), seed=0,
                                class_names=manifest.class_names)
    peft = lora.inject(base, r=2, alpha=4.0, dropout_p=0.1, seed=1)
    best, history = training.train(
        peft, manifest, TrainConfig(lr=3e-3, max_epochs=1, batch_size=8, seed=2),
        AugmentConfig(hflip_prob=0.5, rotation_max_deg=10.0, resize=32))
    out.mkdir()
    history.to_csv(out / "history.csv")
    persist.save(best, out / "adapter.ckpt")
    attached = persist.load(out / "adapter.ckpt").attach(base)
    persist.save(attached, out / "attached.ckpt")
    return {f.name: f.read_bytes() for f in sorted(out.iterdir())}


def test_traced_round_records_vjps_and_changes_no_output(tmp_path):
    manifest = data.split(data.synth_domain(tmp_path / "domain", 3, 8, image_size=32,
                                            seed=3), (0.5, 0.25, 0.25), seed=0)
    untraced = _round(manifest, tmp_path / "untraced")
    original_train = training.train
    tracer = _tracer_module().Tracer()
    try:
        tracer.install()
        assert training.train is not original_train
        traced = _round(manifest, tmp_path / "traced")
    finally:
        tracer.uninstall()
    assert training.train is original_train

    assert traced == untraced
    names = {span[0] for span in tracer.spans}
    assert {"tensor.linear.vjp", "tensor.layer_norm.vjp", "tensor.backward",
            "training.train", "persist.attach"} <= names
    metrics = tracer.layer_metrics()
    assert metrics["tensor.linear.bwd_s"] > 0 and metrics["training.steps"] >= 1
