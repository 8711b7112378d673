"""Low-rank adapters for the block projection layers.

A frozen linear layer with weight W ([d, k]) gains a trainable low-rank
delta: the adapted output is W x + (alpha / r) * B (A x), with A [r, k]
initialized Kaiming-uniform and B [d, r] initialized to zero, so a freshly
injected model computes exactly what the base model does. Folding
(alpha / r) * B A into W ("merge") reproduces the adapted eval-mode layer
as a plain linear layer.

Injection freezes every base parameter, reinitializes the classification
head for the task's class count, and leaves exactly {all A, all B, head
weight, head bias} trainable. The frozen tensors are read-only views of the
source model's arrays, so any number of adapted models hold one base;
``with_trainables`` builds every such partly frozen model.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from . import backbone
from . import tensor as T
from .backbone import Model, ModelConfig, trunc_normal
from .tensor import Tensor

DEFAULT_TARGETS = ("fc1", "fc2")


@dataclass
class LoraAdapter:
    """Per-layer low-rank delta attached to a frozen linear weight."""

    A: Tensor
    B: Tensor
    rank: int
    alpha: float
    dropout_p: float
    target: str

    @property
    def scaling(self) -> float:
        return self.alpha / self.rank

    def astype(self, dtype) -> "LoraAdapter":
        return LoraAdapter(self.A.astype(dtype), self.B.astype(dtype),
                           self.rank, self.alpha, self.dropout_p, self.target)


@dataclass
class PeftModel:
    """A frozen base model plus its adapter map and a trainable head."""

    base: Model
    adapters: dict[str, LoraAdapter] = field(repr=False)

    @property
    def config(self) -> ModelConfig:
        return self.base.config

    @property
    def class_names(self) -> list[str] | None:
        return self.base.class_names

    def trainable_params(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for name, ad in self.adapters.items():
            out[f"lora.{name}.A"] = ad.A
            out[f"lora.{name}.B"] = ad.B
        out["head.weight"] = self.base.params["head.weight"]
        out["head.bias"] = self.base.params["head.bias"]
        return out

    def astype(self, dtype) -> "PeftModel":
        return PeftModel(self.base.astype(dtype),
                         {k: ad.astype(dtype) for k, ad in self.adapters.items()})


def init_adapter(d: int, k: int, r: int, alpha: float, dropout_p: float,
                 seed: int | np.random.SeedSequence, target: str = "") -> LoraAdapter:
    """A fresh adapter for a [d, k] weight: A ~ U(-sqrt(6/k), sqrt(6/k)),
    B = 0, so the delta starts at exactly zero."""
    _check_adapter(d, k, r, alpha, dropout_p)
    rng = np.random.default_rng(seed)
    bound = math.sqrt(6.0 / k)
    a = rng.uniform(-bound, bound, size=(r, k)).astype(np.float32)
    b = np.zeros((d, r), dtype=np.float32)
    return LoraAdapter(A=Tensor(a, requires_grad=True),
                       B=Tensor(b, requires_grad=True),
                       rank=r, alpha=float(alpha), dropout_p=float(dropout_p),
                       target=target)


def _check_adapter(d: int, k: int, r: int, alpha: float, dropout_p: float) -> None:
    if r < 1:
        raise ValueError("adapter rank must be >= 1")
    if r > min(d, k):
        raise ValueError(f"adapter rank {r} exceeds min(d, k) = {min(d, k)}")
    if not 0.0 <= dropout_p < 1.0:
        raise ValueError("dropout_p must be in [0, 1)")
    # a comparison, not math.isfinite, which overflows on a huge int
    if not abs(alpha) <= sys.float_info.max:
        raise ValueError("adapter alpha must be finite")


def adapted_layers(config: ModelConfig, targets: tuple[str, ...], r: int,
                   dropout_p: float = 0.0,
                   alpha: float = 1.0) -> dict[str, tuple[int, int]]:
    """(d, k) of every block projection layer whose short name is in
    ``targets``, by name. Raises ValueError for the settings ``inject``
    rejects: no matching layer, a rank or dropout out of range, or a
    non-finite alpha."""
    matched = {name: dk for name, dk in backbone.linear_layer_shapes(config).items()
               if name.rsplit(".", 1)[-1] in targets}
    if not matched:
        raise ValueError(f"no linear layers match targets {tuple(targets)!r}")
    for d, k in matched.values():
        _check_adapter(d, k, r, alpha, dropout_p)
    return matched


def adapted_linear(x: Tensor, w: Tensor, b: Tensor, adapter: LoraAdapter,
                   train_mode: bool = False,
                   rng: np.random.Generator | None = None) -> Tensor:
    """Frozen base projection plus the scaled low-rank delta path, as one
    tape op (``tensor.lora_linear``).

    Inverted dropout applies to the delta path's input only, and only in
    train mode, where its keep-mask is drawn from ``rng``.
    """
    p = adapter.dropout_p
    if not 0.0 <= p < 1.0:
        raise ValueError("dropout: p must be in [0, 1)")
    keep = None
    if train_mode and p != 0.0:
        if rng is None:
            raise ValueError("dropout: train mode needs an explicit rng for determinism")
        keep = rng.random(x.shape) >= p
    return T.lora_linear(x, w, b, adapter.A, adapter.B, adapter.scaling, keep, p)


def merge(w: np.ndarray, adapter: LoraAdapter) -> np.ndarray:
    """W + (alpha / r) * B A, as a plain weight matrix."""
    ba = (adapter.B.data @ adapter.A.data).astype(w.dtype, copy=False)
    if ba.shape != w.shape:
        raise T.ShapeError(f"merge: delta shape {ba.shape} does not match weight {w.shape}")
    ba *= adapter.scaling
    ba += w
    return ba


def inject(model: Model, targets: tuple[str, ...] = DEFAULT_TARGETS,
           r: int = 16, alpha: float = 32.0, dropout_p: float = 0.1,
           seed: int = 0, num_classes: int | None = None) -> PeftModel:
    """Attach adapters to every block projection layer whose short name is in
    ``targets``, freeze the base, and mark the head trainable.

    With the base's class count the head keeps its weights, so the freshly
    injected model computes exactly what the base does (every delta starts at
    zero); a different ``num_classes`` swaps in a freshly initialized head.
    The input model is not modified: the returned PeftModel shares its frozen
    tensors read-only and copies only what trains, the head.
    """
    matched = adapted_layers(model.config, targets, r, dropout_p, alpha)
    adapters: dict[str, LoraAdapter] = {}
    seed_seq = np.random.SeedSequence(seed)
    for (name, (d, k)), child in zip(sorted(matched.items()),
                                     seed_seq.spawn(len(matched))):
        adapters[name] = init_adapter(d, k, r, alpha, dropout_p,
                                      seed=child, target=name)
    return PeftModel(base=_task_base(model, seed, num_classes), adapters=adapters)


def with_trainables(model, arrays: dict[str, np.ndarray], **fields):
    """``model`` (a Model or a PeftModel) with each tensor named in ``arrays``
    by its ``trainable_params`` name a trainable leaf that takes over the
    given array, and every other tensor a frozen leaf over a read-only view
    of the model's own array: the memory is shared, and an in-place write
    through the view raises ValueError. ``fields`` replace Model fields
    (config, class_names)."""
    def leaf(name: str, t: Tensor) -> Tensor:
        if name in arrays:
            return Tensor(arrays[name], requires_grad=True)
        view = t.data.view()
        view.flags.writeable = False
        return Tensor(view)

    if isinstance(model, PeftModel):
        return PeftModel(with_trainables(model.base, arrays, **fields), {
            name: replace(ad, A=leaf(f"lora.{name}.A", ad.A), B=leaf(f"lora.{name}.B", ad.B))
            for name, ad in model.adapters.items()})
    return replace(model, params={n: leaf(n, t) for n, t in model.params.items()},
                   **fields)


def _task_base(model: Model, seed: int, num_classes: int | None) -> Model:
    """The frozen base with a trainable head: a copy of the model's own, or a
    fresh one seeded by (seed, 0x6EAD) for a different class count."""
    if num_classes is None or num_classes == model.config.num_classes:
        return with_trainables(model, {n: model.params[n].data.copy()
                                       for n in ("head.weight", "head.bias")})
    head_rng = np.random.default_rng(np.random.SeedSequence([seed, 0x6EAD]))
    return with_trainables(
        model, {"head.weight": trunc_normal(head_rng, (num_classes, model.config.dims[3])),
                "head.bias": np.zeros(num_classes, dtype=np.float32)},
        config=replace(model.config, num_classes=num_classes))


def head_only(model: Model, seed: int = 0, num_classes: int | None = None) -> PeftModel:
    """Frozen backbone with only a fresh head trainable (no adapters);
    the fine-tuning baseline."""
    return PeftModel(base=_task_base(model, seed, num_classes), adapters={})


def peft_forward(peft: PeftModel, x: Tensor, train_mode: bool = False,
                 rng: np.random.Generator | None = None) -> Tensor:
    """Forward pass routing matched projection layers through their adapters."""

    def lin(name: str, xx: Tensor, w: Tensor, b: Tensor) -> Tensor:
        ad = peft.adapters.get(name)
        if ad is None:
            return T.linear(xx, w, b)
        return adapted_linear(xx, w, b, ad, train_mode=train_mode, rng=rng)

    return backbone.forward(peft.base, x, linear_op=lin)


def model_forward(model, x: Tensor, train_mode: bool = False,
                  rng: np.random.Generator | None = None) -> Tensor:
    """Forward for either a plain Model or a PeftModel."""
    if isinstance(model, PeftModel):
        return peft_forward(model, x, train_mode=train_mode, rng=rng)
    return backbone.forward(model, x)


def merged_model(peft: PeftModel) -> Model:
    """Fold every adapter into its frozen weight, yielding a plain, fully
    trainable model whose eval-mode forward matches the adapted forward. The
    result shares no array with ``peft``."""
    params = {}
    for name, t in peft.base.params.items():
        ad = peft.adapters.get(name.removesuffix(".weight"))
        data = merge(t.data, ad) if ad is not None else t.data.copy()
        params[name] = Tensor(data, requires_grad=True)
    return replace(peft.base, params=params)


def count_params(model) -> dict[str, int]:
    """Exact totals from walking the parameter map and trainable flags.

    For adapted models the breakdown separates adapter and head parameters.
    """
    if isinstance(model, PeftModel):
        base_total = sum(t.data.size for t in model.base.params.values())
        adapter = sum(ad.A.data.size + ad.B.data.size
                      for ad in model.adapters.values())
        head = (model.base.params["head.weight"].data.size
                + model.base.params["head.bias"].data.size)
        frozen = sum(t.data.size for t in model.base.params.values()
                     if not t.requires_grad)
        return {"total": base_total + adapter,
                "trainable": adapter + head,
                "adapter": adapter,
                "head": head,
                "frozen": frozen}
    total = sum(t.data.size for t in model.params.values())
    trainable = sum(t.data.size for t in model.params.values() if t.requires_grad)
    return {"total": total, "trainable": trainable}


def adapter_param_count(config: ModelConfig, r: int,
                        targets: tuple[str, ...] = DEFAULT_TARGETS) -> int:
    """Closed-form adapter parameter count: r * (d + k) per matched layer,
    for the settings ``inject`` accepts (ValueError otherwise)."""
    return sum(r * (d + k) for d, k in adapted_layers(config, targets, r).values())
