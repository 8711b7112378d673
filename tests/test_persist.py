"""Checkpoint round-trip, determinism, and corruption-detection tests."""

import errno
import hashlib
import json
import math
import sys
import threading
import time
import tracemalloc
import types

import numpy as np
import pytest
from _oracles import checkpoint_v2_bytes, save_v1
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from convlora import persist
from convlora.backbone import (ModelConfig, build_model, forward, param_shapes,
                               tiny_test_config)
from convlora.errors import CompatibilityError
from convlora.lora import head_only, inject, peft_forward
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
        # re-signed, so that only the index check can reject it
        path = tmp_path / "m.ckpt"
        persist.save(toy_model, path)
        _edit_header(path, lambda header: header["tensors"][1].__setitem__(
            "offset", header["tensors"][1]["offset"] + 2))
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

    def test_payload_is_the_little_endian_float32_bytes(self, toy_model, tmp_path):
        # float64, non-contiguous and read-only tensors are all written as
        # the bytes of their contiguous little-endian float32 values
        model = toy_model.astype(np.float64)
        w = model.params["head.weight"]
        w.data = np.asfortranarray(w.data)
        ro = model.params["stem.conv.weight"].data
        ro.flags.writeable = False
        path = tmp_path / "m.ckpt"
        persist.save(model, path)
        want = b"".join(np.ascontiguousarray(model.params[n].data, dtype="<f4").tobytes()
                        for n, _, _ in param_shapes(model.config))
        blob = path.read_bytes()
        assert blob.endswith(want)
        persist.save(toy_model, tmp_path / "f32.ckpt")
        assert (tmp_path / "f32.ckpt").read_bytes() == blob


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

    def test_attach_shares_the_base_and_copies_what_trains(self, toy_model, tmp_path):
        peft = inject(toy_model, r=2, alpha=4.0, dropout_p=0.0, seed=1, num_classes=6)
        path = tmp_path / "ad.ckpt"
        persist.save(peft, path)
        ckpt = persist.load(path)
        values = {n: t.data.copy() for n, t in toy_model.params.items()}
        first, second = ckpt.attach(toy_model), ckpt.attach(toy_model)
        for name, t in toy_model.params.items():
            assert t.requires_grad and t.data.flags.writeable
            assert np.array_equal(t.data, values[name]), name
            if name.startswith("head."):
                continue
            for attached in (first, second):
                frozen = attached.base.params[name]
                assert not frozen.requires_grad
                assert np.shares_memory(frozen.data, t.data), name
                with pytest.raises(ValueError):
                    frozen.data[...] = 0.0
        sources = list(toy_model.params.values()) + [
            Tensor(a) for a in ckpt.tensors.values()]
        for name, t in first.trainable_params().items():
            assert not any(np.shares_memory(t.data, s.data) for s in sources), name
            assert not np.shares_memory(t.data, second.trainable_params()[name].data)

    def test_head_only_lays_out_the_head_alone(self, toy_model, tmp_path):
        peft = head_only(toy_model, seed=2, num_classes=5)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        persist.save(peft, p1)
        loaded = persist.load(p1)
        assert loaded.lora is None and list(loaded.tensors) == ["head.weight", "head.bias"]
        persist.save(loaded.attach(toy_model), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_saving_a_shared_base_writes_the_same_bytes(self, toy_model, tmp_path):
        peft = inject(toy_model, r=2, alpha=4.0, dropout_p=0.0, seed=1)
        persist.save(toy_model, tmp_path / "source.ckpt")
        persist.save(peft.base, tmp_path / "shared.ckpt")
        assert ((tmp_path / "source.ckpt").read_bytes()
                == (tmp_path / "shared.ckpt").read_bytes())


def _edit_header(path, edit, sign=True):
    """Rewrite a checkpoint's JSON header in place. With ``sign``, re-sign
    it, so that the file still passes the checksum and reaches the check an
    edit targets; an edit of the checksum field itself is written as it
    stands."""
    blob = path.read_bytes()
    n = int.from_bytes(blob[8:12], "little")
    header, payload = json.loads(blob[12:12 + n]), blob[12 + n:]
    saved = json.loads(blob[12:12 + n])
    edit(header)
    if sign and header.get(persist.CHECKSUM) == saved[persist.CHECKSUM]:
        path.write_bytes(checkpoint_v2_bytes(header, payload, saved["tensors"]))
        return
    raw = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    path.write_bytes(blob[:8] + len(raw).to_bytes(4, "little") + raw + payload)


def _pad_payload(path, before):
    """Insert four zero bytes into the payload before tensor ``before`` (at
    the end for None), and shift the later offsets, ``payload_nbytes`` and
    the checksum to match: the file then differs from ``save``'s layout only
    by unused bytes."""
    blob = path.read_bytes()
    n = int.from_bytes(blob[8:12], "little")
    header, payload = json.loads(blob[12:12 + n]), blob[12 + n:]
    entries = header["tensors"]
    i = next((i for i, e in enumerate(entries) if e["name"] == before), len(entries))
    at = entries[i]["offset"] if i < len(entries) else len(payload)
    for e in entries[i:]:
        e["offset"] += 4
    payload = payload[:at] + bytes(4) + payload[at:]
    header["payload_nbytes"] = len(payload)
    path.write_bytes(checkpoint_v2_bytes(header, payload, entries))


def _overlap_head_bias(path):
    def edit(header):
        entries = {e["name"]: e for e in header["tensors"]}
        entries["head.bias"]["offset"] = entries["head.weight"]["offset"]
    _edit_header(path, edit)


# checkpoints whose header passes every other check and whose payload
# passes the checksum, but whose tensors do not follow save's layout
LAYOUT_BREAKS = [
    pytest.param(_overlap_head_bias, id="overlap"),
    pytest.param(lambda path: _pad_payload(path, "head.bias"), id="gap"),
    pytest.param(lambda path: _pad_payload(path, None), id="payload-longer"),
]


def _rename(name):
    def edit(header):
        entry = next(e for e in header["tensors"] if e["name"] == name)
        entry["name"] = name + "_renamed"
    return edit


def _set(key, value):
    def edit(header):
        header[key] = value
    return edit


def _drop(key):
    def edit(header):
        del header[key]
    return edit


def _set_lora(key, value):
    def edit(header):
        header["lora"][key] = value
    return edit


def _huge_rank(header):
    """An adapter header that is consistent with itself, for a rank far too
    large for the file (and for memory)."""
    header["lora"]["rank"] = 10**13
    config = ModelConfig.from_dict(header["model_config"])
    header["tensors"] = persist._layout("adapter", config, header["lora"])
    header["payload_nbytes"] = sum(4 * math.prod(e["shape"]) for e in header["tensors"])


@pytest.fixture
def checkpoints(toy_model, tmp_path):
    peft = inject(toy_model, r=2, alpha=4.0, dropout_p=0.1, seed=1)
    paths = {"base": tmp_path / "base.ckpt", "adapter": tmp_path / "ad.ckpt"}
    persist.save(toy_model, paths["base"])
    persist.save(peft, paths["adapter"])
    return paths


class TestHeaderValidation:
    """A header that passes the checksum but does not describe the tensors
    its config implies ends in CheckpointError, never a KeyError."""

    @pytest.mark.parametrize("kind, edit", [
        ("base", _rename("head.bias")),
        ("base", _rename("stages.2.blocks.0.fc1.weight")),
        ("adapter", _rename("head.bias")),
        ("adapter", _rename("lora.stages.0.blocks.0.fc1.A")),
        ("adapter", _set_lora("targets", ["stages.0.blocks.0.fc1"])),
        ("adapter", _set_lora("rank", 3)),
    ])
    def test_index_must_match_the_config(self, checkpoints, kind, edit):
        _edit_header(checkpoints[kind], edit)
        with pytest.raises(CheckpointError):
            persist.load(checkpoints[kind])

    def test_shape_must_match_the_config(self, checkpoints):
        def edit(header):
            header["tensors"][0]["shape"] = [2, 3, 4, 4]
        _edit_header(checkpoints["base"], edit)
        with pytest.raises(CheckpointError, match="shape"):
            persist.load(checkpoints["base"])

    @pytest.mark.parametrize("edit", [
        _drop("kind"), _drop("model_config"), _drop("payload_nbytes"),
        _drop("tensors"), _drop(persist.CHECKSUM), _drop("class_names"),
        _set("kind", 1), _set("kind", "delta"), _set("model_config", [1]),
        _set("model_config", {"dims": [8, 16, 32, 64]}), _set("tensors", {}),
        _set("tensors", [1]), _set("payload_nbytes", "800"),
        _set(persist.CHECKSUM, None), _set("class_names", "abcd"),
        _set("class_names", [1, 2, 3, 4]), _set("format_version", 1),
        _set("format_version", 3), _set("format_version", 2.0),
        _set("format_version", True),
    ])
    def test_missing_or_ill_typed_header_key(self, checkpoints, edit):
        _edit_header(checkpoints["base"], edit)
        with pytest.raises(CheckpointError):
            persist.load(checkpoints["base"])

    @pytest.mark.parametrize("edit", [
        _set("lora", "r2"), _set_lora("rank", "2"), _set_lora("rank", True),
        _set_lora("rank", 0), _set_lora("alpha", None), _set_lora("dropout_p", 1.0),
        _set_lora("targets", "fc1"), _set_lora("targets", [7]),
        _set_lora("alpha", float("nan")), _set_lora("alpha", float("inf")),
        _set_lora("alpha", 10**400),
    ])
    def test_ill_typed_adapter_settings(self, checkpoints, edit):
        _edit_header(checkpoints["adapter"], edit)
        with pytest.raises(CheckpointError):
            persist.load(checkpoints["adapter"])

    def test_a_huge_layout_fails_before_allocating(self, checkpoints):
        _edit_header(checkpoints["adapter"], _huge_rank)
        with pytest.raises(CheckpointError, match="truncated payload"):
            persist.load(checkpoints["adapter"])

    def test_header_edits_that_keep_it_consistent_still_load(self, checkpoints, toy_model):
        _edit_header(checkpoints["base"], _set("created_by", "someone else"))
        loaded = persist.load(checkpoints["base"])
        for name, t in toy_model.params.items():
            assert np.array_equal(loaded.params[name].data, t.data), name

    @pytest.mark.parametrize("kind", ["base", "adapter"])
    @pytest.mark.parametrize("breaks", LAYOUT_BREAKS)
    def test_tensors_must_follow_the_layout(self, checkpoints, kind, breaks):
        breaks(checkpoints[kind])
        with pytest.raises(CheckpointError, match="offset|payload_nbytes"):
            persist.load(checkpoints[kind])


def _swap_names(a, b):
    def edit(header):
        entries = {e["name"]: e for e in header["tensors"]}
        entries[a]["name"], entries[b]["name"] = b, a
    return edit


def _map_entry(name, key, f):
    def edit(header):
        entry = next(e for e in header["tensors"] if e["name"] == name)
        entry[key] = f(entry.get(key))
    return edit


def _swap_entries(i, j):
    """Exchange index entries i and j and recompute every offset, so the
    index still lays the tensors out contiguously."""
    def edit(header):
        entries = header["tensors"]
        entries[i], entries[j] = entries[j], entries[i]
        offset = 0
        for e in entries:
            e["offset"] = offset
            offset += 4 * math.prod(e["shape"])
    return edit


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """The bytes of a base and an adapter checkpoint, by kind."""
    model = build_model(tiny_test_config(), seed=0, class_names=list("abcd"))
    out = {}
    for kind, obj in (("base", model), ("adapter", inject(model, r=2, alpha=4.0, seed=1))):
        path = tmp_path_factory.mktemp("saved") / f"{kind}.ckpt"
        persist.save(obj, path)
        out[kind] = path.read_bytes()
    return out


class TestLayout:
    """The index must equal save's layout, entry for entry and value for
    value. Every edit here keeps the header well typed and the checksum
    valid."""

    @pytest.mark.parametrize("kind, edit", [
        pytest.param("base", _swap_names("stem.norm.gamma", "stem.norm.beta"),
                     id="base-name-swap"),
        pytest.param("base", _map_entry("head.bias", "dtype", lambda _: "float16"),
                     id="base-float16"),
        pytest.param("adapter", _map_entry("head.bias", "dtype", lambda _: "float16"),
                     id="adapter-float16"),
        pytest.param("base", _map_entry("head.bias", "stride", lambda _: 4),
                     id="base-extra-key"),
        pytest.param("adapter", _map_entry("lora.stages.0.blocks.0.fc1.A", "stride",
                                           lambda _: 4), id="adapter-extra-key"),
        # values Python compares equal to the layout's: 8.0 == 8, True == 1
        pytest.param("base", _map_entry("head.bias", "offset", float),
                     id="base-float-offset"),
        pytest.param("base", _map_entry("stages.0.blocks.0.dwconv.weight", "shape",
                                        lambda s: [s[0], True, *s[2:]]),
                     id="base-bool-dimension"),
        pytest.param("adapter", _map_entry("head.weight", "shape",
                                           lambda s: [float(n) for n in s]),
                     id="adapter-float-shape"),
        pytest.param("base", _swap_entries(0, 1), id="base-reordered"),
        pytest.param("adapter", _swap_entries(0, 1), id="adapter-reordered"),
    ])
    def test_index_must_equal_the_layout(self, checkpoints, kind, edit):
        _edit_header(checkpoints[kind], edit)
        with pytest.raises(CheckpointError, match="the layout has"):
            persist.load(checkpoints[kind])

    @pytest.mark.parametrize("kind", ["base", "adapter"])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_any_changed_index_field_is_rejected(self, saved, tmp_path_factory,
                                                 kind, data):
        blob = saved[kind]
        entries = json.loads(blob[12:12 + int.from_bytes(blob[8:12], "little")])["tensors"]
        i = data.draw(st.integers(0, len(entries) - 1), label="entry")
        entry = entries[i]
        field = data.draw(st.sampled_from(["name", "shape", "dtype", "offset"]),
                          label="field")
        # near misses: another tensor's name or one edited by a character,
        # a shape with a dimension changed, added or dropped, a neighbour's
        # dtype, an offset moved by a few bytes, and values that Python
        # compares equal (8.0 == 8, True == 1)
        near = {
            "name": st.sampled_from([e["name"] for e in entries]
                                    + [entry["name"] + "x", entry["name"][:-1]]),
            "shape": st.sampled_from([entry["shape"][:-1], entry["shape"] + [1],
                                      [n + 1 for n in entry["shape"]],
                                      [float(n) for n in entry["shape"]]]),
            "dtype": st.sampled_from(["float16", "float64", "<f4", "int32", "FLOAT32"]),
            "offset": st.sampled_from([entry["offset"] + d for d in (-4, -1, 1, 4)]
                                      + [float(entry["offset"]), bool(entry["offset"])]),
        }[field]
        value = data.draw(st.one_of(near, st.none() | st.integers() | st.text(max_size=8)
                                    | st.lists(st.integers(0, 64), max_size=4)),
                          label="value")
        assume(json.dumps(value) != json.dumps(entry[field]))
        path = tmp_path_factory.getbasetemp() / f"any-field-{kind}.ckpt"
        path.write_bytes(blob)
        _edit_header(path, lambda header: header["tensors"][i].__setitem__(field, value))
        with pytest.raises(CheckpointError):
            persist.load(path)

    def test_a_repeated_adapter_target_is_rejected(self, checkpoints):
        # the index, payload and checksum agree with the repeated target
        path = checkpoints["adapter"]
        blob = path.read_bytes()
        n = int.from_bytes(blob[8:12], "little")
        header, payload = json.loads(blob[12:12 + n]), blob[12 + n:]
        lora = header["lora"]
        lora["targets"].insert(0, lora["targets"][0])
        header["tensors"] = persist._layout(
            "adapter", ModelConfig.from_dict(header["model_config"]), lora)
        payload = payload[:header["tensors"][2]["offset"]] + payload
        header["payload_nbytes"] = len(payload)
        path.write_bytes(checkpoint_v2_bytes(header, payload, header["tensors"]))
        with pytest.raises(CheckpointError, match="distinct"):
            persist.load(path)

    def test_a_failed_save_leaves_no_temp_file(self, toy_model, tmp_path):
        (tmp_path / "m.ckpt").mkdir()
        with pytest.raises(IsADirectoryError):
            persist.save(toy_model, tmp_path / "m.ckpt")
        assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]

    @pytest.mark.parametrize("kind", ["base", "adapter"])
    def test_save_rejects_a_wrongly_shaped_array(self, toy_model, tmp_path, kind):
        if kind == "base":
            obj = toy_model
            obj.params["stem.norm.beta"] = Tensor(np.zeros(9, dtype=np.float32))
        else:
            obj = inject(toy_model, r=2, alpha=4.0, seed=1)
            obj.adapters["stages.0.blocks.0.fc1"].A = Tensor(np.zeros((3, 8), np.float32))
        with pytest.raises(ValueError, match="shape"):
            persist.save(obj, tmp_path / "m.ckpt")
        assert list(tmp_path.iterdir()) == []


def _regions(blob):
    """The byte ranges of a version 2 file's magic, header length, header
    JSON, checksum value and payload."""
    n = int.from_bytes(blob[8:12], "little")
    field = f'"{persist.CHECKSUM}":"'.encode()
    at = blob.index(field, 12, 12 + n) + len(field)
    return {"magic": (0, 8), "length": (8, 12), "header": (12, 12 + n),
            "checksum": (at, at + 64), "payload": (12 + n, len(blob))}


def _swap_class_names(header):
    names = header["class_names"]
    names[0], names[1] = names[1], names[0]


class TestChecksum:
    """Format version 2's checksum covers every byte of the file: the magic,
    the header length, the header with the checksum field, and the payload.
    Version 1 files, whose checksum covers the payload alone, still load."""

    @pytest.mark.parametrize("kind", ["base", "adapter"])
    def test_save_writes_the_defined_checksum(self, saved, kind):
        blob = saved[kind]
        regions = _regions(blob)
        header = json.loads(blob[slice(*regions["header"])])
        assert header["format_version"] == 2
        payload = blob[slice(*regions["payload"])]
        assert checkpoint_v2_bytes(header, payload, header["tensors"]) == blob

    @pytest.mark.parametrize("kind", ["base", "adapter"])
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_any_flipped_byte_is_detected(self, saved, tmp_path_factory, kind, data):
        blob = saved[kind]
        regions = _regions(blob)
        region = data.draw(st.sampled_from(sorted(regions)), label="region")
        at = data.draw(st.integers(regions[region][0], regions[region][1] - 1), label="at")
        bad = bytearray(blob)
        bad[at] ^= data.draw(st.integers(1, 255), label="mask")
        path = tmp_path_factory.getbasetemp() / f"flipped-{kind}.ckpt"
        path.write_bytes(bytes(bad))
        with pytest.raises(CheckpointError):
            persist.load(path)

    @pytest.mark.parametrize("kind, edit", [
        ("base", _swap_class_names), ("base", _set("created_by", "someone else")),
        ("adapter", _set_lora("alpha", 8.0)), ("adapter", _set_lora("dropout_p", 0.5)),
    ])
    def test_a_header_edit_that_keeps_it_consistent_is_detected(self, checkpoints,
                                                                kind, edit):
        _edit_header(checkpoints[kind], edit, sign=False)
        with pytest.raises(CheckpointError, match="checksum mismatch"):
            persist.load(checkpoints[kind])

    @pytest.mark.parametrize("kind", ["base", "adapter"])
    def test_a_version_1_file_loads_the_same_tensors(self, toy_model, tmp_path,
                                                     monkeypatch, started, kind):
        obj = toy_model if kind == "base" else inject(toy_model, r=2, alpha=4.0, seed=1)
        persist.save(obj, tmp_path / "v2.ckpt")
        save_v1(obj, tmp_path / "v1.ckpt")
        # above one chunk, where a version 2 load starts the hashing thread
        monkeypatch.setattr(persist, "_CHUNK", SMALL_CHUNK)
        v1 = persist.load(tmp_path / "v1.ckpt")
        assert started == []
        v2 = persist.load(tmp_path / "v2.ckpt")
        assert v1.class_names == v2.class_names == list("abcd")

        def arrays(loaded):
            if kind == "base":
                return {name: t.data for name, t in loaded.params.items()}
            return loaded.tensors
        got, want = arrays(v1), arrays(v2)
        assert got.keys() == want.keys()
        for name, a in got.items():
            assert np.array_equal(a, want[name]), name

    @pytest.mark.parametrize("end", ["first", "last"])
    def test_a_flipped_version_1_payload_byte_is_detected(self, toy_model, tmp_path, end):
        path = tmp_path / "v1.ckpt"
        save_v1(toy_model, path)
        blob = bytearray(path.read_bytes())
        blob[12 + int.from_bytes(blob[8:12], "little") if end == "first" else -1] ^= 0x10
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="checksum mismatch"):
            persist.load(path)


# not a multiple of 4, so chunks also split float32 values
SMALL_CHUNK = 700


class _File:
    """An open file whose ``readinto`` and ``write`` first sleep ``delay``
    seconds, and raise OSError once ``fail_after`` calls have gone through."""

    def __init__(self, f, fail_after: float = math.inf, delay: float = 0.0):
        self._f, self._left, self._delay = f, fail_after, delay

    def __getattr__(self, name):
        return getattr(self._f, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._f.close()

    def _count(self):
        time.sleep(self._delay)
        self._left -= 1
        if self._left < 0:
            raise OSError(errno.EIO, "injected I/O error")

    def readinto(self, b):
        self._count()
        return self._f.readinto(b)

    def write(self, b):
        self._count()
        return self._f.write(b)


@pytest.fixture
def started(monkeypatch):
    """The threads started while the test runs."""
    threads = []

    class Recorded(threading.Thread):
        def start(self):
            threads.append(self)
            super().start()
    monkeypatch.setattr(threading, "Thread", Recorded)
    return threads


@pytest.fixture
def chunked(toy_model, tmp_path, monkeypatch, started):
    """A base checkpoint saved in SMALL_CHUNK chunks: its path, payload
    offset and payload size."""
    monkeypatch.setattr(persist, "_CHUNK", SMALL_CHUNK)
    path = tmp_path / "m.ckpt"
    persist.save(toy_model, path)
    nbytes = sum(t.data.size * 4 for t in toy_model.params.values())
    assert nbytes > 100 * SMALL_CHUNK and len(started) == 1
    return path, path.stat().st_size - nbytes, nbytes


class TestChunkedChecksum:
    def test_same_bytes_and_tensors_as_one_chunk(self, toy_model, chunked, tmp_path,
                                                 monkeypatch, started):
        path, _, _ = chunked
        loaded = persist.load(path)
        monkeypatch.setattr(persist, "_CHUNK", 8 << 20)
        persist.save(toy_model, tmp_path / "one.ckpt")
        assert path.read_bytes() == (tmp_path / "one.ckpt").read_bytes()
        for name, t in toy_model.params.items():
            assert np.array_equal(loaded.params[name].data, t.data), name
        assert len(started) == 2

    def test_a_flipped_byte_at_either_end_of_any_chunk_is_detected(self, chunked):
        path, offset, nbytes = chunked
        blob = path.read_bytes()
        ends = {e for start in range(0, nbytes, SMALL_CHUNK)
                for e in (start, min(start + SMALL_CHUNK, nbytes) - 1)}
        for i in sorted(ends):
            bad = bytearray(blob)
            bad[offset + i] ^= 0x80
            path.write_bytes(bytes(bad))
            with pytest.raises(CheckpointError, match="checksum"):
                persist.load(path)

    @pytest.mark.parametrize("while_reading", [False, True],
                             ids=["on-disk", "while-reading"])
    @pytest.mark.parametrize("at", ["one-byte-short", "chunk-boundary"])
    def test_truncation_is_detected(self, chunked, monkeypatch, at, while_reading):
        path, offset, nbytes = chunked
        full = path.stat().st_size
        cut = nbytes - 1 if at == "one-byte-short" else (nbytes // SMALL_CHUNK // 2) * SMALL_CHUNK
        path.write_bytes(path.read_bytes()[:offset + cut])
        if while_reading:
            # the size check passes, as if the file shrank after it
            monkeypatch.setattr(persist.os, "fstat",
                                lambda fd: types.SimpleNamespace(st_size=full))
        with pytest.raises(CheckpointError,
                           match=rf"truncated payload \({cut} of {nbytes} bytes\)"):
            persist.load(path)

    # the chunk that fails, as a share of the payload's chunks
    @pytest.mark.parametrize("at", [0.0, 0.5, 1.0], ids=["first", "middle", "last"])
    @pytest.mark.parametrize("op", ["load", "save"])
    def test_an_io_error_mid_payload_propagates(self, toy_model, chunked, tmp_path,
                                                 monkeypatch, started, op, at):
        path, _, nbytes = chunked
        threads = threading.active_count()
        after = int(at * (math.ceil(nbytes / SMALL_CHUNK) - 1))
        monkeypatch.setattr(persist, "open",
                            lambda *a: _File(open(*a), fail_after=after), raising=False)
        with pytest.raises(OSError, match="injected"):
            if op == "load":
                persist.load(path)
            else:
                persist.save(toy_model, tmp_path / "new.ckpt")
        assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]
        assert len(started) == 2 and not started[1].is_alive()
        assert threading.active_count() == threads

    def test_a_chunk_is_hashed_once_it_is_read(self, toy_model, chunked, monkeypatch):
        # each read lets the hashing thread run first, and the payload
        # buffer starts out uninitialised
        path, _, _ = chunked
        monkeypatch.setattr(persist, "_CHUNK", 20_000)
        monkeypatch.setattr(persist, "open", lambda *a: _File(open(*a), delay=0.002),
                            raising=False)
        loaded = persist.load(path)
        for name, t in toy_model.params.items():
            assert np.array_equal(loaded.params[name].data, t.data), name

    def test_each_tensor_is_hashed_once_under_frequent_thread_switches(
            self, toy_model, chunked, tmp_path, monkeypatch):
        # a tensor claimed twice or never leaves an empty digest, which the
        # checksum would not match
        path, _, _ = chunked
        hashed = []
        sha256 = hashlib.sha256
        monkeypatch.setattr(persist.hashlib, "sha256",
                            lambda data: hashed.append(len(data)) or sha256(data))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                hashed.clear()
                persist.load(path)
                assert len(hashed) == len(toy_model.params) + 1
                persist.save(toy_model, tmp_path / "again.ckpt")
                assert (tmp_path / "again.ckpt").read_bytes() == path.read_bytes()
        finally:
            sys.setswitchinterval(interval)

    def test_no_thread_outlives_a_load_or_save(self, toy_model, chunked, started):
        path, _, _ = chunked
        threads = threading.active_count()
        persist.load(path)
        assert threading.active_count() == threads
        persist.save(toy_model, path)
        assert threading.active_count() == threads
        assert len(started) == 3 and not any(t.is_alive() for t in started)

    def test_a_one_chunk_payload_starts_no_thread(self, toy_model, tmp_path, started):
        peft = inject(toy_model, r=2, alpha=4.0, seed=1)
        for obj, name in ((toy_model, "base.ckpt"), (peft, "adapter.ckpt")):
            persist.save(obj, tmp_path / name)
            persist.load(tmp_path / name)
        assert started == []
