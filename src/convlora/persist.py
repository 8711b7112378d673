"""Bit-exact checkpoint files for full models and adapter-only deltas.

Layout: an 8-byte magic (``CVLORA01``), a little-endian uint32 header
length, a UTF-8 JSON header, then the payload of concatenated little-endian
float32 tensors in header index order. The header carries the kind
(base/adapter), the architecture config, adapter settings when relevant,
class names, a per-tensor index (name, shape, dtype, offset), and a SHA-256
of the payload that is verified on load. The index is a function of the
kind, config and adapter settings (``_layout``): ``save`` writes it, and
``load`` accepts no other. No timestamps and sorted JSON keys keep
the bytes identical for identical inputs; writes go through a temp file and
an atomic rename.

A payload larger than ``_CHUNK`` is hashed on a second thread while it is
read or written: the file moves ``_CHUNK`` bytes at a time, and the worker
feeds each finished chunk, in order, to the SHA-256 (both release the GIL).
``save`` writes the payload first, after room for a header whose length is
already known (the digest is always 64 hex characters), then seeks back and
writes the magic, the length and the header. A smaller payload is hashed
inline, with no thread.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import sys
import threading
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
# the bytes the file moves between handoffs to the hashing thread
_CHUNK = 8 << 20


class CheckpointError(ValueError):
    """The file is not a valid checkpoint (bad magic, checksum, or layout)."""


def _layout(kind: str, config: ModelConfig, lora: dict | None) -> list[dict]:
    """The tensor index ``save`` writes and ``load`` accepts, in payload
    order: every parameter of a base checkpoint in ``param_shapes`` order;
    for an adapter checkpoint, each of ``lora``'s targets' A then B, then
    the head. Each entry is {dtype, name, offset, shape}, keys in the sorted
    order of save's JSON, and the tensors are contiguous float32."""
    shapes = [(name, shape) for name, shape, _ in param_shapes(config)]
    if kind == "adapter":
        layers = linear_layer_shapes(config)
        head = [(name, shape) for name, shape in shapes if name.startswith("head.")]
        shapes = []
        for target in (lora["targets"] if lora else ()):
            d, k = layers[target]
            shapes += [(f"lora.{target}.A", (lora["rank"], k)),
                       (f"lora.{target}.B", (d, lora["rank"]))]
        shapes += head
    entries, offset = [], 0
    for name, shape in shapes:
        entries.append({"dtype": "float32", "name": name, "offset": offset,
                        "shape": list(shape)})
        offset += 4 * math.prod(shape)
    return entries


def _chunks(arrays: list[np.ndarray]):
    """Byte views of the contiguous ``arrays``, in order, each at most
    ``_CHUNK`` bytes: the file and the hash take them through the buffer
    protocol, without a bytes copy."""
    for arr in arrays:
        flat = arr.reshape(-1).view(np.uint8)
        for start in range(0, flat.size, _CHUNK):
            yield flat[start:start + _CHUNK]


def _hashed(chunks, nbytes: int, move) -> str:
    """Call ``move`` (a read or a write) on each of ``chunks`` in order, and
    return the SHA-256 hex digest of their ``nbytes`` bytes as they stand
    after it. Above one ``_CHUNK`` a worker thread hashes each chunk once
    ``move`` is done with it; an exception from ``move`` stops the worker,
    which is joined before the exception propagates."""
    digest = hashlib.sha256()
    if nbytes <= _CHUNK:
        for chunk in chunks:
            move(chunk)
            digest.update(chunk)
        return digest.hexdigest()
    chunks = list(chunks)
    moved = threading.Semaphore(0)
    failed = threading.Event()

    def hash_moved() -> None:
        for chunk in chunks:
            moved.acquire()
            if failed.is_set():
                return
            digest.update(chunk)

    worker = threading.Thread(target=hash_moved, name="checkpoint-sha256", daemon=True)
    worker.start()
    try:
        for chunk in chunks:
            move(chunk)
            moved.release()
    except BaseException:
        failed.set()
        moved.release()
        raise
    finally:
        worker.join()
    return digest.hexdigest()


def save(obj, path: str | Path) -> None:
    """Write a Model (kind "base") or PeftModel (kind "adapter") checkpoint.

    Raises ValueError, and writes nothing, when an array's shape differs
    from the one the layout gives its name."""
    if isinstance(obj, PeftModel):
        kind, named = "adapter", obj.trainable_params()
        some = next(iter(obj.adapters.values()), None)
        lora_cfg = None if some is None else {
            "rank": some.rank, "alpha": some.alpha, "dropout_p": some.dropout_p,
            "targets": sorted(obj.adapters)}
    elif isinstance(obj, Model):
        kind, named, lora_cfg = "base", obj.params, None
    else:
        raise TypeError(f"cannot checkpoint object of type {type(obj).__name__}")
    entries = _layout(kind, obj.config, lora_cfg)
    arrays = [np.ascontiguousarray(named[e["name"]].data, dtype="<f4") for e in entries]
    for entry, arr in zip(entries, arrays):
        if list(arr.shape) != entry["shape"]:
            raise ValueError(f"tensor {entry['name']!r} has shape {list(arr.shape)}, "
                             f"the layout gives it {entry['shape']}")

    header = {
        "format_version": FORMAT_VERSION,
        "kind": kind,
        "model_config": obj.config.to_dict(),
        "lora": lora_cfg,
        "class_names": obj.class_names,
        "created_by": CREATED_BY,
        "tensors": entries,
        "payload_nbytes": sum(arr.nbytes for arr in arrays),
        # a stand-in of the digest's length, so that the payload can be
        # written before it is hashed
        "payload_sha256": "0" * 64,
    }

    def encoded() -> bytes:
        return json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")

    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    f = open(tmp, "wb")
    try:
        with f:
            f.seek(len(MAGIC) + 4 + len(encoded()))
            header["payload_sha256"] = _hashed(_chunks(arrays), header["payload_nbytes"],
                                               f.write)
            header_bytes = encoded()
            f.seek(0)
            f.write(MAGIC)
            f.write(np.uint32(len(header_bytes)).tobytes())
            f.write(header_bytes)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


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


def _read_header(path, header_bytes: bytes) -> tuple[dict, ModelConfig, list[dict]]:
    """The header, its model config and its tensor index, which must equal
    ``_layout`` for the header's kind, config and adapter settings, entry for
    entry and value for value, with ``payload_nbytes`` the layout's total.
    Every failure raises CheckpointError."""
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

    lora = header.get("lora") if header["kind"] == "adapter" else None
    if lora is not None:
        if not (_typed(lora, dict) and _typed(lora.get("rank"), int) and lora["rank"] >= 1
                and _typed(lora.get("alpha"), int, float)
                and abs(lora["alpha"]) <= sys.float_info.max
                and _typed(lora.get("dropout_p"), int, float) and 0 <= lora["dropout_p"] < 1
                and _typed(lora.get("targets"), list)):
            raise CheckpointError(f"{path}: header field 'lora' needs an int rank >= 1, "
                                  f"a finite numeric alpha, a dropout_p in [0, 1) "
                                  f"and a list of targets")
        layers = linear_layer_shapes(config)
        for target in lora["targets"]:
            if not _typed(target, str) or target not in layers:
                raise CheckpointError(f"{path}: adapter target {target!r} is not a "
                                      f"layer of the model")
        if lora["targets"] != sorted(set(lora["targets"])):
            raise CheckpointError(f"{path}: adapter targets must be sorted and distinct")

    # compared by repr, in which 8.0, True and 8 differ (Python takes them
    # as equal) and keys appear in the sorted order that save writes
    layout = _layout(header["kind"], config, lora)
    for i, (got, want) in enumerate(itertools.zip_longest(header["tensors"], layout)):
        if repr(got) != repr(want):
            raise CheckpointError(f"{path}: tensor index entry {i} is {got!r}, "
                                  f"the layout has {want!r}")
    total = sum(4 * math.prod(e["shape"]) for e in layout)
    if header["payload_nbytes"] != total:
        raise CheckpointError(f"{path}: payload_nbytes is {header['payload_nbytes']}, "
                              f"the tensors take {total}")
    return header, config, layout


def load(path: str | Path):
    """Read a checkpoint; returns a Model or an AdapterCheckpoint.

    Verifies the magic, the header's fields and types, a tensor index equal
    to ``save``'s layout for the header's kind, config and adapter settings,
    the payload length and the checksum; corruption anywhere raises
    CheckpointError. Tensors are sliced by the layout. The payload is read once
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
        header, config, layout = _read_header(path, header_bytes)

        nbytes = header["payload_nbytes"]
        on_disk = os.fstat(f.fileno()).st_size - f.tell()
        if on_disk > nbytes:
            raise CheckpointError(f"{path}: {on_disk - nbytes} trailing bytes "
                                  f"after the payload")
        # before the allocation, which a consistent but huge header could
        # make fail; readinto checks again, because the file can still change
        if on_disk < nbytes:
            raise CheckpointError(f"{path}: truncated payload "
                                  f"({on_disk} of {nbytes} bytes)")
        payload = np.empty(nbytes // 4, dtype="<f4")
        start = f.tell()

        def read(chunk: np.ndarray) -> None:
            if f.readinto(chunk) != len(chunk):
                raise CheckpointError(f"{path}: truncated payload "
                                      f"({f.tell() - start} of {nbytes} bytes)")
        digest = _hashed(_chunks([payload]), nbytes, read)
    if digest != header["payload_sha256"]:
        raise CheckpointError(f"{path}: payload checksum mismatch")

    tensors = {e["name"]: payload[e["offset"] // 4:][:math.prod(e["shape"])]
               .reshape(e["shape"]) for e in layout}

    class_names = header["class_names"]
    if header["kind"] == "base":
        params = {name: Tensor(tensors[name], requires_grad=True)
                  for name, _, _ in param_shapes(config)}
        return Model(config, params, list(class_names) if class_names else None)
    return AdapterCheckpoint(model_config=config, lora=header.get("lora"),
                             class_names=class_names, tensors=tensors)
