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
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .backbone import Model, ModelConfig, linear_layer_shapes, param_shapes
from .errors import CompatibilityError
from .lora import LoraAdapter, PeftModel, with_trainable_head
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

    config = obj.config if isinstance(obj, Model) else obj.base.config
    class_names = obj.class_names
    header = {
        "format_version": FORMAT_VERSION,
        "kind": inferred,
        "model_config": config.to_dict(),
        "lora": lora_cfg,
        "class_names": class_names,
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
        adapters: dict[str, LoraAdapter] = {}
        if self.lora:
            layer_shapes = linear_layer_shapes(self.model_config)
            for target in self.lora["targets"]:
                a = self.tensors[f"lora.{target}.A"]
                b = self.tensors[f"lora.{target}.B"]
                if target not in layer_shapes:
                    raise CompatibilityError(f"adapter target {target!r} not in model")
                d, k = layer_shapes[target]
                if a.shape[1] != k or b.shape[0] != d or a.shape[0] != b.shape[1]:
                    raise CompatibilityError(
                        f"adapter {target!r} shapes A{a.shape} B{b.shape} do not "
                        f"fit layer ({d}, {k})")
                adapters[target] = LoraAdapter(
                    A=Tensor(a.copy(), requires_grad=True),
                    B=Tensor(b.copy(), requires_grad=True),
                    rank=self.lora["rank"], alpha=self.lora["alpha"],
                    dropout_p=self.lora["dropout_p"], target=target)
        frozen = with_trainable_head(
            base, self.tensors["head.weight"].copy(), self.tensors["head.bias"].copy(),
            config=self.model_config, class_names=self.class_names or None)
        return PeftModel(base=frozen, adapters=adapters)


def load(path: str | Path):
    """Read a checkpoint; returns a Model or an AdapterCheckpoint.

    Verifies the magic, format version, payload length and checksum;
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
        try:
            header = json.loads(header_bytes.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            raise CheckpointError(f"{path}: unreadable header: {e}") from e
        if header.get("format_version") != FORMAT_VERSION:
            raise CheckpointError(
                f"{path}: unsupported format version {header.get('format_version')}")

        nbytes = header["payload_nbytes"]
        if not isinstance(nbytes, int) or nbytes < 0 or nbytes % 4:
            raise CheckpointError(f"{path}: payload size {nbytes!r} is not float32")
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
    for entry in header["tensors"]:
        size = int(np.prod(entry["shape"])) if entry["shape"] else 1
        offset = entry["offset"]
        # views must start on a float32 boundary of the aligned payload array
        if (not isinstance(offset, int) or offset % 4 or offset < 0
                or offset // 4 + size > payload.size):
            raise CheckpointError(
                f"{path}: tensor {entry['name']!r} at byte offset {offset} "
                f"does not fit the float32 payload")
        start = offset // 4
        tensors[entry["name"]] = payload[start:start + size].reshape(entry["shape"])

    config = ModelConfig.from_dict(header["model_config"])
    class_names = header.get("class_names")
    if header["kind"] == "base":
        params = {name: Tensor(tensors[name], requires_grad=True)
                  for name, _, _ in param_shapes(config)}
        return Model(config, params, list(class_names) if class_names else None)
    return AdapterCheckpoint(model_config=config, lora=header.get("lora"),
                             class_names=class_names, tensors=tensors)
