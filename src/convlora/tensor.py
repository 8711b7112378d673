"""Dense arrays with reverse-mode automatic differentiation.

A :class:`Tensor` wraps a numpy array. While gradients are enabled, every
operation records its inputs and a vector-Jacobian product per input on the
output tensor; the recorded graph is the tape. ``Tensor.backward`` walks the
tape once, in reverse execution order, accumulating gradients additively
into every tensor that requires them.

float32 is the working precision. Gradient checking against central finite
differences is unreliable in float32, so ``grad_check`` requires float64
inputs (build tensors with ``astype(np.float64)``).

Every operation validates that its output is finite; a NaN or Inf produced
from finite inputs raises :class:`NumericsError` instead of propagating.
"""

from __future__ import annotations

import contextlib
import math
from typing import Callable, Iterable, Sequence

import numpy as np
from scipy.special import erf


class ShapeError(ValueError):
    """Operand shapes are inconsistent with the operation's contract."""


class NumericsError(ArithmeticError):
    """A non-finite value (NaN/Inf) appeared where finite math was expected."""


_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable tape recording inside the block (forward-only execution)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def _as_float_array(data) -> np.ndarray:
    arr = np.asarray(data)
    if arr.dtype not in (np.float32, np.float64):
        arr = arr.astype(np.float32)
    return arr


class Tensor:
    """A numpy array plus the bookkeeping needed for reverse-mode gradients."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjps")

    def __init__(self, data, requires_grad: bool = False):
        self.data = _as_float_array(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._vjps: tuple[Callable[[np.ndarray], np.ndarray] | None, ...] = ()

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def astype(self, dtype) -> "Tensor":
        """A fresh leaf tensor with the same values in the requested dtype
        (None keeps the current dtype)."""
        if dtype is None:
            dtype = self.data.dtype
        return Tensor(self.data.astype(dtype), requires_grad=self.requires_grad)

    def zero_grad(self) -> None:
        self.grad = None

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Run the tape backwards from this tensor.

        Each recorded operation is visited exactly once, in reverse execution
        order; a tensor feeding several consumers receives the sum of their
        contributions.
        """
        if not self.requires_grad:
            raise ValueError("backward() on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise ValueError("backward() without an explicit gradient needs a scalar")
            grad = np.ones_like(self.data)
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))
        self._accumulate(np.asarray(grad, dtype=self.data.dtype))
        for node in reversed(order):
            if not node._parents:
                continue
            g = node.grad
            for parent, vjp in zip(node._parents, node._vjps):
                if parent.requires_grad and vjp is not None:
                    parent._accumulate(vjp(g))

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}{flag})"


def _finite_or_raise(arr: np.ndarray, op: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise NumericsError(f"{op} produced non-finite values")


def _node(data: np.ndarray, op: str, parents: Sequence[Tensor],
          vjps: Sequence[Callable[[np.ndarray], np.ndarray] | None]) -> Tensor:
    _finite_or_raise(data, op)
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._vjps = tuple(vjps)
    return out


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------

def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of two same-shape tensors (residual connections)."""
    if a.shape != b.shape:
        raise ShapeError(f"add: shapes {a.shape} and {b.shape} differ")
    return _node(a.data + b.data, "add", (a, b), (lambda g: g, lambda g: g))


def scale(x: Tensor, s: float) -> Tensor:
    """Multiply by a python scalar."""
    s = float(s)
    return _node(x.data * s, "scale", (x,), (lambda g: g * s,))


def transpose(x: Tensor, axes: tuple[int, ...]) -> Tensor:
    """Permute axes; used to move between channel-first and channel-last."""
    inv = tuple(np.argsort(axes))
    return _node(np.ascontiguousarray(x.data.transpose(axes)), "transpose",
                 (x,), (lambda g: g.transpose(inv),))


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """y[..., i] = sum_j w[i, j] * x[..., j] (+ b[i]).

    Any number of leading axes is treated as batch: they are flattened into
    one row axis, so the forward and the x and w gradients are each one 2-D
    GEMM, however many leading axes the input has.
    """
    if w.data.ndim != 2:
        raise ShapeError(f"linear: weight must be 2-D, got {w.shape}")
    d, k = w.shape
    if x.shape[-1] != k:
        raise ShapeError(f"linear: x has {x.shape[-1]} features, weight expects {k}")
    if b is not None and b.shape != (d,):
        raise ShapeError(f"linear: bias shape {b.shape} does not match ({d},)")

    rows = x.data.reshape(-1, k)
    y = rows @ w.data.T
    if b is not None:
        y = y + b.data
    y = y.reshape(*x.shape[:-1], d)

    def vjp_x(g):
        return (g.reshape(-1, d) @ w.data).reshape(x.shape)

    def vjp_w(g):
        return g.reshape(-1, d).T @ rows

    if b is None:
        return _node(y, "linear", (x, w), (vjp_x, vjp_w))
    return _node(y, "linear", (x, w, b),
                 (vjp_x, vjp_w, lambda g: g.reshape(-1, d).sum(axis=0)))


def _windows(xp: np.ndarray, kh: int, kw: int, stride: int) -> np.ndarray:
    # [N, C, Ho, Wo, kh, kw] view over the padded input
    win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
    if stride != 1:
        win = win[:, :, ::stride, ::stride]
    return win


def _conv_forward_raw(xp: np.ndarray, k: np.ndarray, stride: int) -> np.ndarray:
    o, c, kh, kw = k.shape
    win = _windows(xp, kh, kw, stride)
    n, _, ho, wo = win.shape[:4]
    cols = win.transpose(0, 2, 3, 1, 4, 5).reshape(n * ho * wo, c * kh * kw)
    y = cols @ k.reshape(o, -1).T
    return y.reshape(n, ho, wo, o).transpose(0, 3, 1, 2)


def _dilate(g: np.ndarray, stride: int) -> np.ndarray:
    if stride == 1:
        return g
    n, o, ho, wo = g.shape
    out = np.zeros((n, o, (ho - 1) * stride + 1, (wo - 1) * stride + 1), dtype=g.dtype)
    out[:, :, ::stride, ::stride] = g
    return out


def conv2d(x: Tensor, k: Tensor, b: Tensor | None = None,
           stride: int = 1, pad: int = 0) -> Tensor:
    """Cross-correlation of NCHW input with an OIHW kernel (no kernel flip)."""
    if x.data.ndim != 4 or k.data.ndim != 4:
        raise ShapeError("conv2d: input and kernel must be 4-D")
    n, c, h, w = x.shape
    o, kc, kh, kw = k.shape
    if kc != c:
        raise ShapeError(f"conv2d: kernel expects {kc} input channels, got {c}")
    if b is not None and b.shape != (o,):
        raise ShapeError(f"conv2d: bias shape {b.shape} does not match ({o},)")
    if stride < 1:
        raise ShapeError("conv2d: stride must be >= 1")
    for size, ksz in ((h, kh), (w, kw)):
        span = size + 2 * pad - ksz
        if span < 0 or span % stride != 0:
            raise ShapeError(
                f"conv2d: output size for input {size}, kernel {ksz}, "
                f"stride {stride}, pad {pad} is not a positive integer")

    xp = np.pad(x.data, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    y = _conv_forward_raw(xp, k.data, stride)
    if b is not None:
        y = y + b.data[None, :, None, None]

    def vjp_x(g):
        gd = _dilate(g, stride)
        k_rot = np.flip(k.data, axis=(2, 3)).transpose(1, 0, 2, 3)
        gdp = np.pad(gd, ((0, 0), (0, 0), (kh - 1, kh - 1), (kw - 1, kw - 1)))
        dxp = _conv_forward_raw(gdp, np.ascontiguousarray(k_rot), 1)
        if pad:
            return dxp[:, :, pad:pad + h, pad:pad + w]
        return dxp

    def vjp_k(g):
        win = _windows(xp, kh, kw, stride)
        return np.einsum("nchwpq,nohw->ocpq", win, g)

    if b is None:
        return _node(y, "conv2d", (x, k), (vjp_x, vjp_k))
    return _node(y, "conv2d", (x, k, b),
                 (vjp_x, vjp_k, lambda g: g.sum(axis=(0, 2, 3))))


def _live_taps(size: int, ksz: int, pad: int) -> tuple[int, int]:
    # [start, stop) of the kernel taps along one axis that reach real input
    # at some output position; the taps outside it only ever see padding
    out = size + 2 * pad - ksz + 1
    return max(0, pad - out + 1), min(ksz, pad + size)


def _pad_hw(a: np.ndarray, top: int, bottom: int, left: int, right: int) -> np.ndarray:
    # zero-pad the spatial axes of an NCHW array; a negative amount crops
    h, w = a.shape[2:]
    a = a[:, :, max(0, -top):h - max(0, -bottom), max(0, -left):w - max(0, -right)]
    return np.pad(a, ((0, 0), (0, 0), (max(0, top), max(0, bottom)),
                      (max(0, left), max(0, right))))


def depthwise_conv2d(x: Tensor, k: Tensor, b: Tensor | None = None,
                     pad: int = 0) -> Tensor:
    """Per-channel cross-correlation: channel c of the output sees only
    channel c of the input. Kernel layout [C, 1, kh, kw], stride 1.

    Taps that only ever see zero padding (a map smaller than the kernel's
    reach, e.g. 7x7 taps at pad 3 on a 1x1 or 2x2 map) are skipped: the
    input is padded only as far as the remaining taps reach, and the kernel
    gradient of a skipped tap is exactly zero. The input gradient is
    computed at the H x W input positions only, never over the padding.
    """
    if x.data.ndim != 4 or k.data.ndim != 4:
        raise ShapeError("depthwise_conv2d: input and kernel must be 4-D")
    n, c, h, w = x.shape
    kc, one, kh, kw = k.shape
    if kc != c or one != 1:
        raise ShapeError(
            f"depthwise_conv2d: kernel shape {k.shape} does not match {c} channels")
    if b is not None and b.shape != (c,):
        raise ShapeError(f"depthwise_conv2d: bias shape {b.shape} does not match ({c},)")
    if h + 2 * pad - kh + 1 < 1 or w + 2 * pad - kw + 1 < 1:
        raise ShapeError("depthwise_conv2d: kernel larger than padded input")

    i0, i1 = _live_taps(h, kh, pad)
    j0, j1 = _live_taps(w, kw, pad)
    kl = k.data[:, 0, i0:i1, j0:j1]
    xp = _pad_hw(x.data, pad - i0, i1 + pad - kh, pad - j0, j1 + pad - kw)
    win = _windows(xp, i1 - i0, j1 - j0, 1)
    y = np.einsum("nchwpq,cpq->nchw", win, kl)
    if b is not None:
        y = y + b.data[None, :, None, None]

    def vjp_x(g):
        # full correlation with the flipped live kernel, restricted to the
        # H x W input positions: pad (or crop) g by what the taps reach
        gp = _pad_hw(g, i1 - 1 - pad, kh - 1 - pad - i0,
                     j1 - 1 - pad, kw - 1 - pad - j0)
        gwin = _windows(gp, i1 - i0, j1 - j0, 1)
        return np.einsum("nchwpq,cpq->nchw", gwin, np.flip(kl, axis=(1, 2)))

    def vjp_k(g):
        dk = np.zeros_like(k.data)
        dk[:, 0, i0:i1, j0:j1] = np.einsum("nchwpq,nchw->cpq", win, g)
        return dk

    if b is None:
        return _node(y, "depthwise_conv2d", (x, k), (vjp_x, vjp_k))
    return _node(y, "depthwise_conv2d", (x, k, b),
                 (vjp_x, vjp_k, lambda g: g.sum(axis=(0, 2, 3))))


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-6) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    c = x.shape[-1]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(
            f"layer_norm: gamma/beta must have shape ({c},), got {gamma.shape}/{beta.shape}")
    if eps <= 0:
        raise ValueError("layer_norm: eps must be positive")

    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    y = gamma.data * xhat + beta.data

    lead = tuple(range(x.data.ndim - 1))

    def vjp_x(g):
        dxhat = g * gamma.data
        return inv * (dxhat
                      - dxhat.mean(axis=-1, keepdims=True)
                      - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))

    return _node(y, "layer_norm", (x, gamma, beta),
                 (vjp_x,
                  lambda g: (g * xhat).sum(axis=lead),
                  lambda g: g.sum(axis=lead)))


def gelu(x: Tensor) -> Tensor:
    """Exact Gaussian error linear unit, x * Phi(x) (erf form, no tanh approximation)."""
    cdf = 0.5 * (1.0 + erf(x.data * _INV_SQRT2))
    pdf = np.exp(-0.5 * x.data * x.data) * _INV_SQRT_2PI

    def vjp(g):
        return g * (cdf + x.data * pdf)

    return _node(x.data * cdf, "gelu", (x,), (vjp,))


def grn(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-6) -> Tensor:
    """Global response normalization over a channel-last feature map.

    Per sample: g[c] = L2 norm of x[:, :, c] over the spatial axes,
    n[c] = g[c] / (mean_c g + eps), out = gamma * (x * n) + beta + x.
    """
    if x.data.ndim != 4:
        raise ShapeError("grn: expects [N, H, W, C] input")
    c = x.shape[-1]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(f"grn: gamma/beta must have shape ({c},)")

    gn = np.sqrt((x.data * x.data).sum(axis=(1, 2), keepdims=True))   # [N,1,1,C]
    denom = gn.mean(axis=3, keepdims=True) + eps                      # [N,1,1,1]
    nx = gn / denom
    y = gamma.data * (x.data * nx) + beta.data + x.data

    def vjp_x(g):
        t = g * gamma.data
        s = (t * x.data).sum(axis=(1, 2), keepdims=True)              # dL/dn
        dg = s / denom - (s * gn).sum(axis=3, keepdims=True) / (denom * denom * c)
        g_safe = np.where(gn > 0, gn, 1.0)
        return t * nx + g + np.where(gn > 0, dg / g_safe, 0.0) * x.data

    return _node(y, "grn", (x, gamma, beta),
                 (vjp_x,
                  lambda g: (g * x.data * nx).sum(axis=(0, 1, 2)),
                  lambda g: g.sum(axis=(0, 1, 2))))


def global_avg_pool(x: Tensor) -> Tensor:
    """Mean over the spatial axes of an NCHW map, giving [N, C]."""
    if x.data.ndim != 4:
        raise ShapeError("global_avg_pool: expects [N, C, H, W] input")
    n, c, h, w = x.shape

    def vjp(g):
        return np.broadcast_to(g[:, :, None, None], (n, c, h, w)) / (h * w)

    return _node(x.data.mean(axis=(2, 3)), "global_avg_pool", (x,), (vjp,))


def tsum(x: Tensor) -> Tensor:
    """Sum of all elements; scalar output (mainly for gradient checks)."""
    def vjp(g):
        return np.broadcast_to(np.asarray(g, dtype=x.dtype), x.shape).copy()

    return _node(np.asarray(x.data.sum(), dtype=x.dtype), "tsum", (x,), (vjp,))


def dropout(x: Tensor, p: float, rng: np.random.Generator | None = None,
            train: bool = False) -> Tensor:
    """Inverted dropout: active only in train mode, identity otherwise."""
    if not 0.0 <= p < 1.0:
        raise ValueError("dropout: p must be in [0, 1)")
    if not train or p == 0.0:
        return x
    if rng is None:
        raise ValueError("dropout: train mode needs an explicit rng for determinism")
    mask = (rng.random(x.shape) >= p).astype(x.data.dtype) / (1.0 - p)
    return _node(x.data * mask, "dropout", (x,), (lambda g: g * mask,))


def softmax(logits: np.ndarray) -> np.ndarray:
    """Plain numpy softmax over the last axis (no gradient)."""
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean over the batch of -log softmax(logits)[label]; scalar output."""
    if logits.data.ndim != 2:
        raise ShapeError("softmax_cross_entropy: logits must be [N, K]")
    n, k = logits.shape
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise ShapeError(f"softmax_cross_entropy: labels must have shape ({n},)")
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise ValueError("softmax_cross_entropy: label out of range")

    z = logits.data - logits.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=1, keepdims=True))
    loss = (lse[:, 0] - z[np.arange(n), labels]).mean()
    probs = np.exp(z - lse)

    def vjp(g):
        d = probs.copy()
        d[np.arange(n), labels] -= 1.0
        return d * (float(g) / n)

    return _node(np.asarray(loss, dtype=logits.dtype), "softmax_cross_entropy",
                 (logits,), (vjp,))


# ---------------------------------------------------------------------------
# gradient checking
# ---------------------------------------------------------------------------

def grad_check(f: Callable[..., Tensor], inputs: Iterable[Tensor],
               eps: float = 1e-5, max_coords_per_input: int | None = None,
               rng: np.random.Generator | None = None) -> float:
    """Compare analytic gradients of a scalar-valued f against central
    finite differences.

    Returns the max over all checked coordinates of
    |analytic - numeric| / max(1, |numeric|). Checks every coordinate unless
    ``max_coords_per_input`` caps the per-tensor sample (drawn from ``rng``).
    Inputs must be float64 tensors with requires_grad set.
    """
    inputs = list(inputs)
    for t in inputs:
        if t.data.dtype != np.float64:
            raise ValueError("grad_check requires float64 inputs")
        t.zero_grad()
    out = f(*inputs)
    if out.data.size != 1:
        raise ValueError("grad_check: f must return a scalar")
    out.backward()

    worst = 0.0
    for t in inputs:
        if not t.requires_grad:
            continue
        flat = t.data.reshape(-1)
        n = flat.size
        if max_coords_per_input is not None and n > max_coords_per_input:
            if rng is None:
                rng = np.random.default_rng()
            coords = rng.choice(n, size=max_coords_per_input, replace=False)
        else:
            coords = range(n)
        gflat = (t.grad if t.grad is not None else np.zeros_like(t.data)).reshape(-1)
        for i in coords:
            keep = flat[i]
            with no_grad():
                flat[i] = keep + eps
                fp = float(f(*inputs).data)
                flat[i] = keep - eps
                fm = float(f(*inputs).data)
            flat[i] = keep
            numeric = (fp - fm) / (2.0 * eps)
            err = abs(float(gflat[i]) - numeric) / max(1.0, abs(numeric))
            if err > worst:
                worst = err
    return worst
