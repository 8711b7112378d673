"""Bit-exact checkpoint files for full models and adapter-only deltas.

Layout: an 8-byte magic (``CVLORA01``), a little-endian uint32 header
length, a UTF-8 JSON header, then the payload of concatenated little-endian
float32 tensors in header index order. The header carries the kind
(base/adapter), the architecture config, adapter settings when relevant,
class names, a per-tensor index (name, shape, offset), and a SHA-256 of the
payload that is verified on load. No timestamps and sorted JSON keys keep
the bytes identical for identical inputs; writes go through a temp file and
an atomic rename.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .backbone import Model, ModelConfig, linear_layer_shapes, param_shapes
from .errors import CompatibilityError
from .lora import LoraAdapter, PeftModel, with_trainables
from .tensor import Tensor

MAGIC = b"CVLORA01"
FORMAT_VERSION = 1
CREATED_BY = "convlora 0.1.0"


class CheckpointError(ValueError):
    """The file is not a valid checkpoint (bad magic, checksum, or layout)."""


def _tensor_entries(named: list[tuple[str, np.ndarray]]):
    entries = []
    offset = 0
    for name, arr in named:
        entries.append({"name": name, "shape": list(arr.shape),
                        "dtype": "float32", "offset": offset})
        offset += arr.size * 4
    return entries, offset


def _named_tensors(obj) -> tuple[str, list[tuple[str, np.ndarray]], dict | None]:
    if isinstance(obj, PeftModel):
        named = [(name, t.data) for name, t in obj.trainable_params().items()]
        some = next(iter(obj.adapters.values()), None)
        lora_cfg = None
        if some is not None:
            lora_cfg = {"rank": some.rank, "alpha": some.alpha,
                        "dropout_p": some.dropout_p,
                        "targets": sorted(obj.adapters)}
        return "adapter", named, lora_cfg
    if isinstance(obj, Model):
        named = [(name, obj.params[name].data) for name, _, _ in param_shapes(obj.config)]
        return "base", named, None
    raise TypeError(f"cannot checkpoint object of type {type(obj).__name__}")


def save(obj, path: str | Path, kind: str | None = None) -> None:
    """Write a Model (kind "base") or PeftModel (kind "adapter") checkpoint."""
    inferred, named, lora_cfg = _named_tensors(obj)
    if kind is not None and kind != inferred:
        raise ValueError(f"kind {kind!r} does not match object kind {inferred!r}")
    arrays = [np.ascontiguousarray(arr, dtype="<f4") for _, arr in named]
    entries, payload_nbytes = _tensor_entries(
        [(n, a) for (n, _), a in zip(named, arrays)])

    # contiguous little-endian arrays go to the hash and the file through
    # the buffer protocol, without a bytes copy of each tensor
    digest = hashlib.sha256()
    for arr in arrays:
        digest.update(arr)

    header = {
        "format_version": FORMAT_VERSION,
        "kind": inferred,
        "model_config": obj.config.to_dict(),
        "lora": lora_cfg,
        "class_names": obj.class_names,
        "created_by": CREATED_BY,
        "tensors": entries,
        "payload_nbytes": payload_nbytes,
        "payload_sha256": digest.hexdigest(),
    }
    header_bytes = json.dumps(header, sort_keys=True,
                              separators=(",", ":")).encode("utf-8")

    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as f:
        f.write(MAGIC)
        f.write(np.uint32(len(header_bytes)).tobytes())
        f.write(header_bytes)
        for arr in arrays:
            f.write(arr)
    os.replace(tmp, path)


@dataclass
class AdapterCheckpoint:
    """Deserialized adapter-only checkpoint, attachable to a compatible base."""

    model_config: ModelConfig
    lora: dict | None
    class_names: list[str] | None
    tensors: dict[str, np.ndarray]

    def attach(self, base: Model) -> PeftModel:
        """Rebuild the PeftModel this checkpoint was saved from. It shares
        the base's frozen tensors read-only and copies only what trains: the
        adapters and the head."""
        for field in ("depths", "dims", "in_channels", "image_size", "mlp_ratio"):
            if getattr(base.config, field) != getattr(self.model_config, field):
                raise CompatibilityError(
                    f"adapter checkpoint expects {field}="
                    f"{getattr(self.model_config, field)}, base has "
                    f"{getattr(base.config, field)}")
        # placeholders for the adapters: with_trainables swaps in copies
        adapters = {target: LoraAdapter(
            A=Tensor(self.tensors[f"lora.{target}.A"]),
            B=Tensor(self.tensors[f"lora.{target}.B"]),
            rank=self.lora["rank"], alpha=self.lora["alpha"],
            dropout_p=self.lora["dropout_p"], target=target)
            for target in (self.lora["targets"] if self.lora else ())}
        return with_trainables(PeftModel(base, adapters),
                               {name: a.copy() for name, a in self.tensors.items()},
                               config=self.model_config,
                               class_names=self.class_names or None)


def _typed(value, *types: type) -> bool:
    # exact JSON types, so that a bool is not taken for a number
    return type(value) in types


def _expected_shapes(path, header: dict, config: ModelConfig) -> dict[str, tuple]:
    """Name -> shape of every tensor the header's kind, config and adapter
    settings imply."""
    shapes = {name: shape for name, shape, _ in param_shapes(config)}
    if header["kind"] == "base":
        return shapes
    shapes = {name: shapes[name] for name in ("head.weight", "head.bias")}
    lora = header.get("lora")
    if lora is None:
        return shapes
    if not (_typed(lora, dict) and _typed(lora.get("rank"), int) and lora["rank"] >= 1
            and _typed(lora.get("alpha"), int, float)
            and _typed(lora.get("dropout_p"), int, float) and 0 <= lora["dropout_p"] < 1
            and _typed(lora.get("targets"), list)):
        raise CheckpointError(f"{path}: header field 'lora' needs an int rank >= 1, "
                              f"a numeric alpha, a dropout_p in [0, 1) and a list "
                              f"of targets")
    layers = linear_layer_shapes(config)
    for target in lora["targets"]:
        if not _typed(target, str) or target not in layers:
            raise CheckpointError(f"{path}: adapter target {target!r} is not a "
                                  f"layer of the model")
        d, k = layers[target]
        shapes[f"lora.{target}.A"] = (lora["rank"], k)
        shapes[f"lora.{target}.B"] = (d, lora["rank"])
    return shapes


def _read_header(path, header_bytes: bytes) -> tuple[dict, ModelConfig, dict]:
    """The header, its model config and its tensor index (name -> (shape,
    byte offset)). The index must name exactly the tensors the config and
    adapter settings imply, at their shapes, laid out as ``save`` writes
    them: each offset the sum of the sizes before it in index order, and
    the last tensor ending at ``payload_nbytes``. Every failure raises
    CheckpointError."""
    try:
        header = json.loads(header_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CheckpointError(f"{path}: unreadable header: {e}") from e
    if not _typed(header, dict):
        raise CheckpointError(f"{path}: header is not a JSON object")
    if header.get("format_version") != FORMAT_VERSION:
        raise CheckpointError(
            f"{path}: unsupported format version {header.get('format_version')}")
    for key, types in (("kind", (str,)), ("model_config", (dict,)),
                       ("tensors", (list,)), ("payload_nbytes", (int,)),
                       ("payload_sha256", (str,)), ("class_names", (list, type(None)))):
        if not _typed(header.get(key), *types):
            raise CheckpointError(f"{path}: header field {key!r} is missing or "
                                  f"not a {'/'.join(t.__name__ for t in types)}")
    if header["kind"] not in ("base", "adapter"):
        raise CheckpointError(f"{path}: unknown checkpoint kind {header['kind']!r}")
    if not all(_typed(n, str) for n in header["class_names"] or ()):
        raise CheckpointError(f"{path}: class names must be strings")
    try:
        config = ModelConfig.from_dict(header["model_config"])
    except (KeyError, TypeError, ValueError) as e:
        raise CheckpointError(f"{path}: bad model_config: {e!r}") from e

    index: dict[str, tuple[tuple, object]] = {}
    for entry in header["tensors"]:
        if not (_typed(entry, dict) and _typed(entry.get("name"), str)
                and _typed(entry.get("shape"), list)
                and all(_typed(n, int) and n >= 0 for n in entry["shape"])
                and entry["name"] not in index):
            raise CheckpointError(f"{path}: bad or repeated tensor index entry {entry!r}")
        index[entry["name"]] = (tuple(entry["shape"]), entry.get("offset"))
    expected = _expected_shapes(path, header, config)
    for name in sorted(expected.keys() | index.keys()):
        got = list(index[name][0]) if name in index else "nothing"
        want = list(expected[name]) if name in expected else "nothing"
        if got != want:
            raise CheckpointError(f"{path}: tensor {name!r}: the index has "
                                  f"{got}, the config implies {want}")
    end = 0
    for name, (shape, offset) in index.items():
        if not _typed(offset, int) or offset != end:
            raise CheckpointError(f"{path}: tensor {name!r} is at byte offset "
                                  f"{offset!r}, the layout puts it at {end}")
        end += 4 * math.prod(shape)
    if header["payload_nbytes"] != end:
        raise CheckpointError(f"{path}: payload_nbytes is {header['payload_nbytes']}, "
                              f"the tensors take {end}")
    return header, config, index


def load(path: str | Path):
    """Read a checkpoint; returns a Model or an AdapterCheckpoint.

    Verifies the magic, the header's fields and types, a tensor index that
    names exactly the tensors the config implies at their shapes and in
    ``save``'s contiguous layout, the payload length and the checksum;
    corruption anywhere raises CheckpointError. The payload is read once
    into a single float32 array and every tensor is a view into it, so a
    load holds one copy of the file's tensors.
    """
    with open(path, "rb") as f:
        prefix = f.read(len(MAGIC) + 4)
        if len(prefix) < len(MAGIC) + 4 or prefix[: len(MAGIC)] != MAGIC:
            raise CheckpointError(f"{path}: not a checkpoint file")
        header_len = int.from_bytes(prefix[len(MAGIC):], "little")
        header_bytes = f.read(header_len)
        if len(header_bytes) < header_len:
            raise CheckpointError(f"{path}: truncated header")
        header, config, index = _read_header(path, header_bytes)

        nbytes = header["payload_nbytes"]
        on_disk = os.fstat(f.fileno()).st_size - f.tell()
        if on_disk > nbytes:
            raise CheckpointError(f"{path}: {on_disk - nbytes} trailing bytes "
                                  f"after the payload")
        payload = np.empty(nbytes // 4, dtype="<f4")
        got = f.readinto(payload)
        if got != nbytes:
            raise CheckpointError(f"{path}: truncated payload "
                                  f"({got} of {nbytes} bytes)")
    if hashlib.sha256(payload).hexdigest() != header["payload_sha256"]:
        raise CheckpointError(f"{path}: payload checksum mismatch")

    tensors: dict[str, np.ndarray] = {}
    for name, (shape, offset) in index.items():
        start = offset // 4
        tensors[name] = payload[start:start + math.prod(shape)].reshape(shape)

    class_names = header["class_names"]
    if header["kind"] == "base":
        params = {name: Tensor(tensors[name], requires_grad=True)
                  for name, _, _ in param_shapes(config)}
        return Model(config, params, list(class_names) if class_names else None)
    return AdapterCheckpoint(model_config=config, lora=header.get("lora"),
                             class_names=class_names, tensors=tensors)
