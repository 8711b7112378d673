"""Hierarchical convolutional backbone with a pooled classification head.

The network is a patch-embedding stem (4x4 convolution, stride 4) followed
by four stages of residual blocks, with a LayerNorm + 2x2 stride-2
convolution between stages. Each block runs a 7x7 depthwise convolution,
a LayerNorm, an expansion linear (fc1), GELU, global response
normalization, and a projection linear (fc2), with the result added back
onto the block input. Classification happens via global average pooling,
a final LayerNorm on the pooled features, and a linear head.

Layout: images are NCHW at the API (``forward``'s input, ``saliency``'s
image). The network is channel-last ([N, H, W, C]) from the stem to the
pool: ``forward`` transposes the image once before the stem, every
downsample and block takes and returns channel-last maps, and the last
block's output is transposed back once for ``tensor.global_avg_pool``,
which keeps the pooled sums in the NCHW order. In that layout the
depthwise convolution is one shifted multiply-accumulate per kernel tap,
and the stem and downsample convolutions (stride equal to kernel size)
are one GEMM each (``tensor.depthwise_conv2d_nhwc``,
``tensor.patch_conv2d_nhwc``). Kernels keep the OIHW layout, so
checkpoints do not depend on it.

Models are plain data: a config plus an ordered name -> Tensor map with a
per-parameter trainable flag (``Tensor.requires_grad``). ``forward`` is a
pure function of (model, input).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import tensor as T
from .tensor import Tensor

LN_EPS = 1e-6
INIT_STD = 0.02
# blocks per stage; the paper's configurations use at most 27, and the
# parameter list (and a model built from it) grows linearly with depth
MAX_DEPTH = 1024

# handled by an adapter-aware override when low-rank adapters are attached
LinearOp = Callable[[str, Tensor, Tensor, Tensor], Tensor]


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters: four stage depths and widths."""

    depths: tuple[int, int, int, int]
    dims: tuple[int, int, int, int]
    num_classes: int
    in_channels: int = 3
    image_size: int = 224
    mlp_ratio: int = 4

    def __post_init__(self):
        object.__setattr__(self, "depths", tuple(int(d) for d in self.depths))
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))

    def validate(self) -> None:
        if len(self.depths) != 4 or len(self.dims) != 4:
            raise ValueError("depths and dims must each have exactly 4 entries")
        if any(d < 1 for d in self.depths) or any(d < 1 for d in self.dims):
            raise ValueError("depths and dims must be positive")
        if any(d > MAX_DEPTH for d in self.depths):
            raise ValueError(f"depths must be at most {MAX_DEPTH} blocks per stage")
        if self.num_classes < 2:
            raise ValueError("num_classes must be >= 2")
        if self.in_channels < 1:
            raise ValueError("in_channels must be >= 1")
        if self.mlp_ratio < 1:
            raise ValueError("mlp_ratio must be >= 1")
        # stem divides by 4, the three downsample layers by 2 each
        if self.image_size % 32 != 0 or self.image_size < 32:
            raise ValueError("image_size must be a positive multiple of 32")

    def to_dict(self) -> dict:
        return {"depths": list(self.depths), "dims": list(self.dims),
                "num_classes": self.num_classes, "in_channels": self.in_channels,
                "image_size": self.image_size, "mlp_ratio": self.mlp_ratio}

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        cfg = cls(depths=tuple(d["depths"]), dims=tuple(d["dims"]),
                  num_classes=int(d["num_classes"]),
                  in_channels=int(d.get("in_channels", 3)),
                  image_size=int(d.get("image_size", 224)),
                  mlp_ratio=int(d.get("mlp_ratio", 4)))
        cfg.validate()
        return cfg


def base_config(num_classes: int, image_size: int = 224) -> ModelConfig:
    """The full-size configuration: depths [3,3,27,3], dims [128,256,512,1024]."""
    return ModelConfig(depths=(3, 3, 27, 3), dims=(128, 256, 512, 1024),
                       num_classes=num_classes, image_size=image_size)


def tiny_test_config(num_classes: int = 4, image_size: int = 32) -> ModelConfig:
    """A desk-scale configuration used throughout the test suite."""
    return ModelConfig(depths=(1, 1, 1, 1), dims=(8, 16, 32, 64),
                       num_classes=num_classes, image_size=image_size)


def param_shapes(config: ModelConfig) -> list[tuple[str, tuple[int, ...], str]]:
    """Ordered (name, shape, init_kind) for every parameter of the model.

    Single source of truth for the parameter map: model construction,
    counting and persistence all walk this list. init_kind is one of
    "trunc_normal", "zeros", "ones".
    """
    config.validate()
    dims, mlp = config.dims, config.mlp_ratio
    out: list[tuple[str, tuple[int, ...], str]] = []

    out.append(("stem.conv.weight", (dims[0], config.in_channels, 4, 4), "trunc_normal"))
    out.append(("stem.conv.bias", (dims[0],), "zeros"))
    out.append(("stem.norm.gamma", (dims[0],), "ones"))
    out.append(("stem.norm.beta", (dims[0],), "zeros"))

    for s in range(4):
        c = dims[s]
        if s > 0:
            pre = f"downsample.{s - 1}."
            out.append((pre + "norm.gamma", (dims[s - 1],), "ones"))
            out.append((pre + "norm.beta", (dims[s - 1],), "zeros"))
            out.append((pre + "conv.weight", (c, dims[s - 1], 2, 2), "trunc_normal"))
            out.append((pre + "conv.bias", (c,), "zeros"))
        for b in range(config.depths[s]):
            pre = f"stages.{s}.blocks.{b}."
            out.append((pre + "dwconv.weight", (c, 1, 7, 7), "trunc_normal"))
            out.append((pre + "dwconv.bias", (c,), "zeros"))
            out.append((pre + "norm.gamma", (c,), "ones"))
            out.append((pre + "norm.beta", (c,), "zeros"))
            out.append((pre + "fc1.weight", (mlp * c, c), "trunc_normal"))
            out.append((pre + "fc1.bias", (mlp * c,), "zeros"))
            out.append((pre + "grn.gamma", (mlp * c,), "zeros"))
            out.append((pre + "grn.beta", (mlp * c,), "zeros"))
            out.append((pre + "fc2.weight", (c, mlp * c), "trunc_normal"))
            out.append((pre + "fc2.bias", (c,), "zeros"))

    out.append(("final_norm.gamma", (dims[3],), "ones"))
    out.append(("final_norm.beta", (dims[3],), "zeros"))
    out.append(("head.weight", (config.num_classes, dims[3]), "trunc_normal"))
    out.append(("head.bias", (config.num_classes,), "zeros"))
    return out


def linear_layer_shapes(config: ModelConfig) -> dict[str, tuple[int, int]]:
    """(out_features, in_features) of every block projection layer, by name."""
    return {name.removesuffix(".weight"): shape for name, shape, _ in param_shapes(config)
            if name.endswith((".fc1.weight", ".fc2.weight"))}


def trunc_normal(rng: np.random.Generator, shape: tuple[int, ...],
                 std: float = INIT_STD) -> np.ndarray:
    """Normal samples rejected outside two standard deviations, then scaled."""
    out = rng.standard_normal(shape)
    # redraws go to the rejected positions in ascending order, and only the
    # values just redrawn are tested again
    flat = out.reshape(-1)
    bad = np.flatnonzero(np.abs(flat) > 2.0)
    while bad.size:
        flat[bad] = rng.standard_normal(bad.size)
        bad = bad[np.abs(flat[bad]) > 2.0]
    return (out * std).astype(np.float32)


@dataclass
class Model:
    """A parameter map plus its config; trainable flags live on the tensors."""

    config: ModelConfig
    params: dict[str, Tensor] = field(repr=False)
    class_names: list[str] | None = None

    def astype(self, dtype) -> "Model":
        params = {name: t.astype(dtype) for name, t in self.params.items()}
        names = list(self.class_names) if self.class_names is not None else None
        return Model(self.config, params, names)


def build_model(config: ModelConfig, seed: int = 0,
                class_names: list[str] | None = None) -> Model:
    """Materialize parameters: truncated-normal weights (std 0.02), zero
    biases and GRN affines, unit norm scales. Deterministic per seed; all
    parameters start trainable.
    """
    config.validate()
    rng = np.random.default_rng(seed)
    params: dict[str, Tensor] = {}
    for name, shape, kind in param_shapes(config):
        if kind == "trunc_normal":
            data = trunc_normal(rng, shape)
        elif kind == "ones":
            data = np.ones(shape, dtype=np.float32)
        else:
            data = np.zeros(shape, dtype=np.float32)
        params[name] = Tensor(data, requires_grad=True)
    return Model(config, params, class_names)


def block_forward(params: dict[str, Tensor], prefix: str, x: Tensor,
                  linear_op: LinearOp) -> Tensor:
    """One residual block: x + fc2(grn(gelu(fc1(norm(dwconv(x)))))).

    Takes and returns channel-last [N, H, W, C] maps."""
    p = params
    h = T.depthwise_conv2d_nhwc(x, p[prefix + "dwconv.weight"],
                                p[prefix + "dwconv.bias"], pad=3)
    h = T.layer_norm(h, p[prefix + "norm.gamma"], p[prefix + "norm.beta"], eps=LN_EPS)
    h = linear_op(prefix + "fc1", h, p[prefix + "fc1.weight"], p[prefix + "fc1.bias"])
    h = T.gelu(h)
    h = T.grn(h, p[prefix + "grn.gamma"], p[prefix + "grn.beta"], eps=LN_EPS)
    h = linear_op(prefix + "fc2", h, p[prefix + "fc2.weight"], p[prefix + "fc2.bias"])
    return T.add(x, h)


def _plain_linear(_name: str, x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    return T.linear(x, w, b)


def forward(model: Model, x: Tensor, linear_op: LinearOp | None = None) -> Tensor:
    """Logits for a batch of [N, in_channels, S, S] images, S = image_size.

    ``linear_op`` lets adapter-aware callers intercept the block projection
    layers; everything else always runs the plain path. The base network has
    no stochastic layers, so only such interceptors need a train mode.
    """
    cfg = model.config
    if x.data.ndim != 4 or x.shape[1] != cfg.in_channels \
            or x.shape[2] != cfg.image_size or x.shape[3] != cfg.image_size:
        raise T.ShapeError(
            f"forward: expected [N, {cfg.in_channels}, {cfg.image_size}, "
            f"{cfg.image_size}] input, got {x.shape}")
    lin = linear_op or _plain_linear
    p = model.params

    h = T.transpose(x, (0, 2, 3, 1))
    h = T.patch_conv2d_nhwc(h, p["stem.conv.weight"], p["stem.conv.bias"])
    h = T.layer_norm(h, p["stem.norm.gamma"], p["stem.norm.beta"], eps=LN_EPS)
    for s in range(4):
        if s > 0:
            pre = f"downsample.{s - 1}."
            h = T.layer_norm(h, p[pre + "norm.gamma"], p[pre + "norm.beta"], eps=LN_EPS)
            h = T.patch_conv2d_nhwc(h, p[pre + "conv.weight"], p[pre + "conv.bias"])
        for b in range(cfg.depths[s]):
            h = block_forward(p, f"stages.{s}.blocks.{b}.", h, lin)
    h = T.global_avg_pool(T.transpose(h, (0, 3, 1, 2)))
    h = T.layer_norm(h, p["final_norm.gamma"], p["final_norm.beta"], eps=LN_EPS)
    return T.linear(h, p["head.weight"], p["head.bias"])


def saliency(model, image: np.ndarray, class_idx: int | None = None) -> np.ndarray:
    """Input-gradient saliency map for one class logit.

    ``model`` is either a Model or any callable mapping a [1, C, H, W]
    Tensor to logits. Returns |d logit / d pixel|, reduced by max over
    channels and min-max normalized into [0, 1]; identically-zero gradients
    give an all-zero map. Without ``class_idx`` the top logit is explained.
    """
    return saliency_with_class(model, image, class_idx)[0]


def saliency_with_class(model, image: np.ndarray,
                        class_idx: int | None = None) -> tuple[np.ndarray, int]:
    """``saliency`` plus the class it explains, from one forward pass."""
    if isinstance(model, Model):
        fn = lambda t: forward(model, t)
    else:
        fn = model
    image = np.asarray(image)
    if image.ndim != 3:
        raise T.ShapeError(f"saliency: expected [C, H, W] image, got {image.shape}")
    x = Tensor(image[None].astype(np.float32, copy=True), requires_grad=True)
    logits = fn(x)
    k = logits.shape[-1]
    if class_idx is None:
        class_idx = int(logits.data.argmax())
    if not 0 <= class_idx < k:
        raise ValueError(f"saliency: class {class_idx} out of range for {k} classes")
    seed = np.zeros(logits.shape, dtype=logits.dtype)
    seed[0, class_idx] = 1.0
    logits.backward(seed)
    g = np.abs(x.grad[0]).max(axis=0)
    lo, hi = float(g.min()), float(g.max())
    if hi == 0.0:
        return np.zeros_like(g), class_idx
    if hi == lo:
        return np.ones_like(g), class_idx
    return (g - lo) / (hi - lo), class_idx
