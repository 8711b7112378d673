"""Checkpoint round-trip, determinism, and corruption-detection tests."""

import json
import tracemalloc

import numpy as np
import pytest

from convlora import persist
from convlora.backbone import ModelConfig, build_model, forward, tiny_test_config
from convlora.errors import CompatibilityError
from convlora.lora import inject, peft_forward
from convlora.persist import CheckpointError
from convlora.tensor import Tensor


@pytest.fixture
def toy_model():
    return build_model(tiny_test_config(), seed=0, class_names=list("abcd"))


class TestBaseCheckpoint:
    def test_round_trip_bitwise(self, toy_model, tmp_path):
        path = tmp_path / "m.ckpt"
        persist.save(toy_model, path)
        loaded = persist.load(path)
        assert loaded.class_names == ["a", "b", "c", "d"]
        assert loaded.config == toy_model.config
        for name, t in toy_model.params.items():
            assert np.array_equal(loaded.params[name].data, t.data), name

    def test_save_load_save_identical_bytes(self, toy_model, tmp_path):
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        persist.save(toy_model, p1)
        persist.save(persist.load(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_forward_parity_after_reload(self, toy_model, tmp_path):
        path = tmp_path / "m.ckpt"
        persist.save(toy_model, path)
        loaded = persist.load(path)
        x = Tensor(np.random.default_rng(0).normal(size=(2, 3, 32, 32))
                   .astype(np.float32))
        assert np.array_equal(forward(toy_model, x).data, forward(loaded, x).data)

    def test_single_byte_corruption_detected(self, toy_model, tmp_path):
        path = tmp_path / "m.ckpt"
        persist.save(toy_model, path)
        blob = bytearray(path.read_bytes())
        blob[-7] ^= 0x01           # flip one payload bit
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError):
            persist.load(path)

    def test_truncated_file_detected(self, toy_model, tmp_path):
        path = tmp_path / "m.ckpt"
        persist.save(toy_model, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 100])
        with pytest.raises(CheckpointError):
            persist.load(path)

    def test_not_a_checkpoint(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"hello world, definitely not a checkpoint")
        with pytest.raises(CheckpointError):
            persist.load(path)

    def test_trailing_bytes_detected(self, toy_model, tmp_path):
        path = tmp_path / "m.ckpt"
        persist.save(toy_model, path)
        path.write_bytes(path.read_bytes() + b"\x00\x00\x00\x00")
        with pytest.raises(CheckpointError, match="trailing"):
            persist.load(path)

    def test_short_payload_detected(self, toy_model, tmp_path):
        path = tmp_path / "m.ckpt"
        persist.save(toy_model, path)
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(CheckpointError, match="truncated payload"):
            persist.load(path)

    def test_unaligned_offset_rejected(self, toy_model, tmp_path):
        # the checksum covers only the payload, so this header edit passes it
        path = tmp_path / "m.ckpt"
        persist.save(toy_model, path)
        blob = path.read_bytes()
        header_len = int.from_bytes(blob[8:12], "little")
        header = json.loads(blob[12:12 + header_len])
        header["tensors"][1]["offset"] += 2
        raw = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
        path.write_bytes(blob[:8] + len(raw).to_bytes(4, "little") + raw
                         + blob[12 + header_len:])
        with pytest.raises(CheckpointError, match="offset"):
            persist.load(path)

    def test_one_copy_of_the_payload(self, toy_model, tmp_path):
        path = tmp_path / "m.ckpt"
        persist.save(toy_model, path)
        payload_bytes = sum(t.data.size * 4 for t in toy_model.params.values())
        tracemalloc.start()
        try:
            loaded = persist.load(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * payload_bytes
        buffers = {id(t.data.base) for t in loaded.params.values()}
        assert len(buffers) == 1 and loaded.params["head.bias"].data.base is not None

    def test_explicit_kind_mismatch(self, toy_model, tmp_path):
        with pytest.raises(ValueError):
            persist.save(toy_model, tmp_path / "m.ckpt", kind="adapter")


class TestAdapterCheckpoint:
    def test_round_trip_and_attach_parity(self, toy_model, tmp_path):
        peft = inject(toy_model, r=2, alpha=4.0, dropout_p=0.1, seed=1)
        peft.base.class_names = list("abcd")
        rng = np.random.default_rng(2)
        for ad in peft.adapters.values():
            ad.B.data[:] = rng.normal(scale=0.05, size=ad.B.shape).astype(np.float32)
        path = tmp_path / "ad.ckpt"
        persist.save(peft, path)
        loaded = persist.load(path)
        assert isinstance(loaded, persist.AdapterCheckpoint)
        rebuilt = loaded.attach(toy_model)
        x = Tensor(rng.normal(size=(2, 3, 32, 32)).astype(np.float32))
        assert np.array_equal(peft_forward(peft, x).data,
                              peft_forward(rebuilt, x).data)

    def test_adapter_only_contents(self, toy_model, tmp_path):
        peft = inject(toy_model, r=2, alpha=4.0, dropout_p=0.0, seed=1)
        path = tmp_path / "ad.ckpt"
        persist.save(peft, path)
        loaded = persist.load(path)
        names = set(loaded.tensors)
        assert "head.weight" in names and "head.bias" in names
        lora_names = names - {"head.weight", "head.bias"}
        assert lora_names == {f"lora.{n}.{m}" for n in peft.adapters
                              for m in ("A", "B")}

    def test_incompatible_base_rejected(self, toy_model, tmp_path):
        peft = inject(toy_model, r=2, alpha=4.0, dropout_p=0.0, seed=1)
        path = tmp_path / "ad.ckpt"
        persist.save(peft, path)
        other = build_model(ModelConfig(depths=(1, 1, 1, 1), dims=(16, 32, 64, 128),
                                        num_classes=4, image_size=32), seed=0)
        with pytest.raises(CompatibilityError):
            persist.load(path).attach(other)

    def test_adapter_much_smaller_than_base(self, toy_model, tmp_path):
        peft = inject(toy_model, r=2, alpha=4.0, dropout_p=0.0, seed=1)
        base_path = tmp_path / "base.ckpt"
        ad_path = tmp_path / "ad.ckpt"
        persist.save(toy_model, base_path)
        persist.save(peft, ad_path)
        assert ad_path.stat().st_size < base_path.stat().st_size
