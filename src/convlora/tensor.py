"""Dense arrays with reverse-mode automatic differentiation.

A :class:`Tensor` wraps a numpy array. While gradients are enabled, every
operation records on its output one edge per input that requires grad: the
input and the vector-Jacobian product that carries the output's gradient
back to it. The recorded graph is the tape. Frozen inputs (``requires_grad``
False) and absent ones (a ``None`` bias) keep no edge, so a frozen weight's
VJP, and the arrays only that VJP needs, are dropped as soon as the op
returns. Whether an input requires grad is read when the op is recorded:
changing the flag afterwards does not change a tape already built.
``Tensor.backward`` walks the tape once, in reverse execution order,
accumulating gradients additively into the leaves, and consumes it as it
goes: once an intermediate tensor's VJPs have run, its ``grad`` is set back
to None and its edges are dropped, so the arrays they held are freed before
the walk ends. Only leaves keep a ``grad``, and a graph can be walked
backwards once; a second walk that reaches a consumed tensor raises
ValueError.

float32 is the working precision. Gradient checking against central finite
differences is unreliable in float32, so ``grad_check`` requires float64
inputs (build tensors with ``astype(np.float64)``).

numpy is the only dependency. The one special function, the erf in
``gelu``, is Cephes's erf written in numpy (``_erf``): on float32 it gives
``scipy.special.erf``'s bits.

Every operation validates that its output is finite; a NaN or Inf produced
from finite inputs raises :class:`NumericsError` instead of propagating.
"""

from __future__ import annotations

import contextlib
import math
from typing import Callable, Iterable, Sequence

import numpy as np


class ShapeError(ValueError):
    """Operand shapes are inconsistent with the operation's contract."""


class NumericsError(ArithmeticError):
    """A non-finite value (NaN/Inf) appeared where finite math was expected."""


_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# Cephes's erf (ndtr.c): x T(x^2) / U(x^2) for |x| <= 1, and
# 1 - exp(-x^2) P(x) / Q(x) above; U and Q are monic (p1evl), their
# leading 1 written out
_ERF_T = (9.60497373987051638749E0, 9.00260197203842689217E1,
          2.23200534594684319226E3, 7.00332514112805075473E3,
          5.55923013010394962768E4)
_ERF_U = (1.0, 3.35617141647503099647E1, 5.21357949780152679795E2,
          4.59432382970980127987E3, 2.26290000613890934246E4,
          4.92673942608635921086E4)
_ERF_P = (2.46196981473530512524E-10, 5.64189564831068821977E-1,
          7.46321056442269912687E0, 4.86371970985681366614E1,
          1.96520832956077098242E2, 5.26445194995477358631E2,
          9.34528527171957607540E2, 1.02755188689515710272E3,
          5.57535335369399327526E2)
_ERF_Q = (1.0, 1.32281951154744992508E1, 8.67072140885989742329E1,
          3.54937778887819891062E2, 9.75708501743205489753E2,
          1.82390916687909736289E3, 2.24633760818710981792E3,
          1.65666309194161350182E3, 5.57535340817727675546E2)
# elements per pass of ``_erf``, so that its float64 buffers stay in cache
_ERF_CHUNK = 16384

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
        # both None once ``backward`` has consumed the tensor
        self._parents: tuple[Tensor, ...] | None = ()
        self._vjps: tuple[Callable[[np.ndarray], np.ndarray], ...] | None = ()

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
            # a C-contiguous buffer of its own, since a VJP may return a view
            # (transpose) or hand one array to several inputs (add); adding
            # g to 0.0 gives the bits a zero-filled sum would (-0.0 -> 0.0)
            self.grad = np.add(g, 0.0, out=np.empty_like(self.data, order="C"))
        else:
            self.grad += g

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Run the tape backwards from this tensor, consuming it.

        Each recorded operation is visited exactly once, in reverse execution
        order; a tensor feeding several consumers receives the sum of their
        contributions. Leaves keep their accumulated ``grad``. Every other
        tensor on the tape is freed as soon as its VJPs have run: its
        ``grad`` is set back to None and its edges are dropped, so the walk
        never holds more than the forward's tape. A graph can therefore be
        walked backwards once: a second ``backward`` that reaches a consumed
        tensor raises ValueError before touching any gradient.

        A ``grad`` seed of another shape than this tensor's raises ValueError
        before any gradient is touched; it is never broadcast.
        """
        if not self.requires_grad:
            raise ValueError("backward() on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise ValueError("backward() without an explicit gradient needs a scalar")
            grad = np.ones_like(self.data)
        elif np.shape(grad) != self.data.shape:
            raise ValueError(f"backward(): gradient shape {np.shape(grad)} does not "
                             f"match the output's {self.data.shape}")
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
            if node._parents is None:
                raise ValueError("backward() reached a graph that was already walked "
                                 "backwards; run the forward again")
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self._accumulate(np.asarray(grad, dtype=self.data.dtype))
        while order:
            node = order.pop()
            for parent, vjp in zip(node._parents, node._vjps):
                parent._accumulate(vjp(node.grad))
            if node._parents:
                node.grad = node._parents = node._vjps = None

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}{flag})"


def _polevl(x: np.ndarray, coefs: tuple[float, ...], out: np.ndarray) -> np.ndarray:
    # Cephes's polevl into out: acc = coefs[0], then acc = acc * x + c for
    # each further coefficient, rounded step by step as the C code rounds
    np.multiply(x, coefs[0], out=out)
    out += coefs[1]
    for c in coefs[2:]:
        out *= x
        out += c
    return out


def _erf(x: np.ndarray) -> np.ndarray:
    """The error function of a float array, in its dtype.

    Cephes's ``erf``, the code behind ``scipy.special.erf``, evaluated in
    float64 and rounded to the input's dtype, so float32 inputs get scipy's
    bits. The array is processed ``_ERF_CHUNK`` elements at a time. The
    small-argument form runs on every element of a chunk; it is odd, so it
    needs no sign handling. The elements with |x| > 1 then get the
    large-argument form on |x| clipped to 8, where it is exactly 1, and
    their sign back. Overflow and NaN in the small form's discarded values
    raise no warning; a NaN input gives NaN.
    """
    x = np.asarray(x)
    flat = x.reshape(-1)
    out = np.empty(x.shape, dtype=x.dtype)
    out_flat = out.reshape(-1)
    n = min(_ERF_CHUNK, flat.size)
    xd, z, num, den = (np.empty(n) for _ in range(4))
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, flat.size, _ERF_CHUNK):
            m = min(_ERF_CHUNK, flat.size - start)
            xs, zs, ys = xd[:m], z[:m], num[:m]
            xs[...] = flat[start:start + m]
            np.multiply(xs, xs, out=zs)
            _polevl(zs, _ERF_T, ys)
            ys *= xs
            ys /= _polevl(zs, _ERF_U, den[:m])
            # x*x > 1 exactly when |x| > 1
            idx = np.flatnonzero(zs > 1.0)
            if idx.size:
                xl = xs[idx]
                a = np.minimum(np.abs(xl), 8.0)
                e = np.exp(np.negative(a) * a)
                e *= _polevl(a, _ERF_P, np.empty_like(a))
                e /= _polevl(a, _ERF_Q, np.empty_like(a))
                ys[idx] = np.copysign(1.0 - e, xl)
            out_flat[start:start + m] = ys
    return out


def _finite_or_raise(arr: np.ndarray, op: str) -> None:
    if not np.all(np.isfinite(arr)):
        raise NumericsError(f"{op} produced non-finite values")


def _node(data: np.ndarray, op: str, inputs: Sequence[Tensor | None],
          vjps: Sequence[Callable[[np.ndarray], np.ndarray]]) -> Tensor:
    """The output tensor of an op, with one edge per input that is not None
    and requires grad; ``vjps[i]`` maps the output's gradient to ``inputs[i]``'s.
    The output requires grad exactly when it has an edge."""
    _finite_or_raise(data, op)
    out = Tensor(data)
    if _grad_enabled:
        edges = [(p, vjp) for p, vjp in zip(inputs, vjps)
                 if p is not None and p.requires_grad]
        if edges:
            out.requires_grad = True
            out._parents, out._vjps = (tuple(e) for e in zip(*edges))
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


def _project(op: str, x: np.ndarray, w: np.ndarray, b: Tensor | None):
    """The dense projection that ``linear``, ``lora_linear`` and
    ``patch_conv2d_nhwc`` share: y = rows @ w^T (+ b), where the rows are x
    with its leading axes flattened, w is [d, k] and b is [d].

    The checks name ``op``. The bias is added in place, so y keeps the
    GEMM's dtype. With at most d / 32 rows the GEMM runs weight-major, as
    (w @ rows^T)^T. Returns the [M, k] rows, the [M, d] output and the VJPs
    for the rows, w and b; each VJP takes the output's gradient in any shape
    whose last axis is d.
    """
    if w.ndim != 2:
        raise ShapeError(f"{op}: weight must be 2-D, got {w.shape}")
    d, k = w.shape
    if x.shape[-1] != k:
        raise ShapeError(f"{op}: x has {x.shape[-1]} features, weight expects {k}")
    if b is not None and b.shape != (d,):
        raise ShapeError(f"{op}: bias shape {b.shape} does not match ({d},)")
    rows = x.reshape(-1, k)
    # with few rows OpenBLAS's NT path is slow; weight-major gave the same
    # float32 bits on OpenBLAS 0.3.31 (Haswell kernels), which another BLAS
    # need not; its copy costs more than it saves from ~192 rows on. The
    # output is allocated before the product, so that freeing the product
    # leaves no hole below the output in the heap (with the product first,
    # the base workload's peak memory grew by up to 6 MB)
    if 32 * len(rows) <= d:
        y = np.empty((len(rows), d), np.result_type(rows, w))
        y[...] = (w @ rows.T).T
    else:
        y = rows @ w.T
    if b is not None:
        y += b.data
    return rows, y, (lambda g: g.reshape(-1, d) @ w,
                     lambda g: g.reshape(-1, d).T @ rows,
                     lambda g: g.reshape(-1, d).sum(axis=0))


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """y[..., i] = sum_j w[i, j] * x[..., j] (+ b[i]).

    Any number of leading axes is treated as batch: they are flattened into
    one row axis, so the forward and the x and w gradients are each one 2-D
    GEMM, however many leading axes the input has.
    """
    _, y, (vjp_rows, vjp_w, vjp_b) = _project("linear", x.data, w.data, b)
    return _node(y.reshape(*x.shape[:-1], y.shape[1]), "linear", (x, w, b),
                 (lambda g: vjp_rows(g).reshape(x.shape), vjp_w, vjp_b))


def lora_linear(x: Tensor, w: Tensor, b: Tensor | None, A: Tensor, B: Tensor,
                scaling: float, keep: np.ndarray | None = None,
                p: float = 0.0) -> Tensor:
    """A linear layer plus its low-rank adapter, as one op:
    ``linear(x, w, b) + scaling * (h A^T) B^T``, with A [r, k] and B [d, r].

    h is x under inverted dropout, ``x * keep / (1 - p)`` for a boolean
    ``keep`` mask of x's shape, or x itself when ``keep`` is None. The op
    runs the float operations of the chain linear, dropout, linear (A),
    linear (B), scale, add in the same order, so its output and gradients
    have that chain's bits, but it keeps only ``keep`` and ``u = h A^T``
    ([M, r]) besides its inputs and output: h is rebuilt for A's gradient.
    """
    rows, y, (vjp_rows, vjp_w, vjp_bias) = _project("lora_linear", x.data, w.data, b)
    d, k = w.shape
    if A.data.ndim != 2 or A.shape[1] != k or B.shape != (d, A.shape[0]):
        raise ShapeError(f"lora_linear: A {A.shape} and B {B.shape} do not fit "
                         f"a ({d}, {k}) weight")
    if keep is not None and keep.shape != x.shape:
        raise ShapeError(f"lora_linear: keep mask {keep.shape} does not match x {x.shape}")
    s = float(scaling)
    dtype = x.data.dtype

    def dropped(a):
        # rows of x's shape under the dropout mask, as the forward applied it
        if keep is None:
            return a
        return a * (keep.reshape(-1, k).astype(dtype) / (1.0 - p))

    u = dropped(rows) @ A.data.T
    delta = u @ B.data.T
    delta *= s
    y += delta

    def vjp_x(g):
        delta_x = dropped((g.reshape(-1, d) * s) @ B.data @ A.data)
        return (vjp_rows(g) + delta_x).reshape(x.shape)

    def vjp_a(g):
        return ((g.reshape(-1, d) * s) @ B.data).T @ dropped(rows)

    def vjp_b(g):
        return (g.reshape(-1, d) * s).T @ u

    return _node(y.reshape(*x.shape[:-1], d), "lora_linear", (x, w, b, A, B),
                 (vjp_x, vjp_w, vjp_bias, vjp_a, vjp_b))


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

    return _node(y, "conv2d", (x, k, b),
                 (vjp_x, vjp_k, lambda g: g.sum(axis=(0, 2, 3))))


def _live_taps(size: int, ksz: int, pad: int) -> tuple[int, int]:
    # [start, stop) of the kernel taps along one axis that reach real input
    # at some output position; the taps outside it only ever see padding
    out = size + 2 * pad - ksz + 1
    return max(0, pad - out + 1), min(ksz, pad + size)


def _pad_hw(a: np.ndarray, pads: tuple[int, int, int, int]) -> np.ndarray:
    # zero-pad the spatial axes of an [N, H, W, C] map by (top, bottom, left,
    # right) into a new C-contiguous array; a negative amount crops
    top, bottom, left, right = pads
    n, h, w, c = a.shape
    out = np.zeros((n, h + top + bottom, w + left + right, c), dtype=a.dtype)
    out[:, max(0, top):out.shape[1] - max(0, bottom),
        max(0, left):out.shape[2] - max(0, right)] = \
        a[:, max(0, -top):h - max(0, -bottom), max(0, -left):w - max(0, -right)]
    return out


def _shift_sum(src: np.ndarray, taps: np.ndarray, ho: int, wo: int) -> np.ndarray:
    # out[n, i, j, c] = sum over (p, q) of src[n, i + p, j + q, c] * taps[p, q, c]:
    # one multiply-accumulate over the whole map per tap, on src viewed as
    # [N, Hp, Wp * C] rows with the tap's channel vector tiled wo times, so
    # each row of the loop is wo * C contiguous values rather than C
    n, hp, wp, c = src.shape
    rows = src.reshape(n, hp, wp * c)
    tiled = np.tile(taps, (1, 1, wo))
    span = wo * c
    out = rows[:, :ho, :span] * tiled[0, 0]
    tmp = np.empty_like(out)
    for p in range(taps.shape[0]):
        for q in range(taps.shape[1]):
            if p or q:
                np.multiply(rows[:, p:p + ho, q * c:q * c + span], tiled[p, q], out=tmp)
                out += tmp
    return out.reshape(n, ho, wo, c)


def _depthwise(x: np.ndarray, k: Tensor, b: Tensor | None, pad: int):
    # the kernel of both depthwise ops: for a channel-last array x, the output
    # and the VJPs for x, k and b, with maps and gradients all channel-last
    _, h, w, c = x.shape
    if k.data.ndim != 4:
        raise ShapeError("depthwise_conv2d: kernel must be 4-D")
    kc, one, kh, kw = k.shape
    if kc != c or one != 1:
        raise ShapeError(f"depthwise_conv2d: kernel shape {k.shape} does not match "
                         f"{c} channels")
    if b is not None and b.shape != (c,):
        raise ShapeError(f"depthwise_conv2d: bias shape {b.shape} does not match ({c},)")
    if h + 2 * pad - kh + 1 < 1 or w + 2 * pad - kw + 1 < 1:
        raise ShapeError("depthwise_conv2d: kernel larger than padded input")
    i0, i1 = _live_taps(h, kh, pad)
    j0, j1 = _live_taps(w, kw, pad)
    taps = np.ascontiguousarray(k.data[:, 0, i0:i1, j0:j1].transpose(1, 2, 0))
    lh, lw = taps.shape[:2]
    # the input is padded only as far as the live taps reach
    xp = _pad_hw(x, (pad - i0, i1 + pad - kh, pad - j0, j1 + pad - kw))
    ho, wo = xp.shape[1] - lh + 1, xp.shape[2] - lw + 1
    y = _shift_sum(xp, taps, ho, wo)
    if b is not None:
        y += b.data

    def vjp_x(g):
        # a full correlation restricted to the H x W input positions
        gp = _pad_hw(g, (i1 - 1 - pad, kh - 1 - pad - i0, j1 - 1 - pad, kw - 1 - pad - j0))
        return _shift_sum(gp, taps[::-1, ::-1], h, w)

    def vjp_k(g):
        # win[p, q] is the input window that live tap (p, q) multiplies
        win = np.lib.stride_tricks.sliding_window_view(
            xp, (ho, wo), axis=(1, 2)).transpose(1, 2, 0, 4, 5, 3)
        dk = np.zeros_like(k.data)
        dk[:, 0, i0:i1, j0:j1] = np.einsum("pqnhwc,nhwc->pqc", win, g).transpose(2, 0, 1)
        return dk

    return y, vjp_x, vjp_k, lambda g: g.sum(axis=(0, 1, 2))


def depthwise_conv2d_nhwc(x: Tensor, k: Tensor, b: Tensor | None = None,
                          pad: int = 0) -> Tensor:
    """Per-channel cross-correlation of channel-last maps: channel c of the
    [N, H, W, C] output sees only channel c of the [N, H, W, C] input.
    Kernel layout [C, 1, kh, kw], stride 1.

    The forward and the input gradient are one shifted multiply-accumulate
    per live tap, each over the whole map with channels innermost; the
    kernel gradient is one einsum over the live taps' input windows. Taps
    that only ever see zero padding (a map smaller than the kernel's reach,
    e.g. 7x7 taps at pad 3 on a 1x1 or 2x2 map) are skipped: the input is
    padded only as far as the remaining taps reach, and the kernel gradient
    of a skipped tap is exactly zero. The input gradient is computed at the
    H x W input positions only, never over the padding.
    """
    if x.data.ndim != 4:
        raise ShapeError("depthwise_conv2d_nhwc: input must be 4-D")
    y, vjp_x, vjp_k, vjp_b = _depthwise(x.data, k, b, pad)
    return _node(y, "depthwise_conv2d_nhwc", (x, k, b), (vjp_x, vjp_k, vjp_b))


def depthwise_conv2d(x: Tensor, k: Tensor, b: Tensor | None = None,
                     pad: int = 0) -> Tensor:
    """``depthwise_conv2d_nhwc`` on NCHW maps, [N, C, H, W] in and out: the
    same kernel run on the maps (and output gradients) transposed to
    channel-last, so it gives that op's bits."""
    if x.data.ndim != 4:
        raise ShapeError("depthwise_conv2d: input must be 4-D")
    y, vjp_x, vjp_k, vjp_b = _depthwise(x.data.transpose(0, 2, 3, 1), k, b, pad)

    def nhwc(g):
        return np.ascontiguousarray(g.transpose(0, 2, 3, 1))

    return _node(np.ascontiguousarray(y.transpose(0, 3, 1, 2)), "depthwise_conv2d",
                 (x, k, b),
                 (lambda g: vjp_x(nhwc(g)).transpose(0, 3, 1, 2),
                  lambda g: vjp_k(nhwc(g)),
                  lambda g: vjp_b(nhwc(g))))


def patch_conv2d_nhwc(x: Tensor, k: Tensor, b: Tensor | None = None) -> Tensor:
    """Convolution of [N, H, W, C] input with an OIHW [O, C, kh, kw] kernel
    at stride (kh, kw) and no padding, giving [N, H/kh, W/kw, O]: the patch
    embedding and downsampling layers.

    The patches do not overlap, so the forward is a reshape of the input into
    one row per patch followed by one GEMM; the input gradient is one GEMM
    followed by the inverse reshape, and the kernel gradient is one GEMM.
    """
    if x.data.ndim != 4 or k.data.ndim != 4:
        raise ShapeError("patch_conv2d_nhwc: input and kernel must be 4-D")
    n, h, w, c = x.shape
    o, kc, kh, kw = k.shape
    if kc != c:
        raise ShapeError(f"patch_conv2d_nhwc: kernel expects {kc} input channels, got {c}")
    if h < kh or w < kw or h % kh or w % kw:
        raise ShapeError(f"patch_conv2d_nhwc: a {h}x{w} map does not tile into "
                         f"{kh}x{kw} patches")
    ho, wo = h // kh, w // kw

    # one row per patch, ordered (channel, patch row, patch column) like a
    # flattened OIHW kernel, so the kernel needs no reordering
    patches = x.data.reshape(n, ho, kh, wo, kw, c).transpose(0, 1, 3, 5, 2, 4)
    _, y, (vjp_rows, vjp_w, vjp_b) = _project(
        "patch_conv2d_nhwc", patches.reshape(-1, c * kh * kw), k.data.reshape(o, -1), b)

    def vjp_x(g):
        d = vjp_rows(g).reshape(n, ho, wo, c, kh, kw)
        return d.transpose(0, 1, 4, 2, 5, 3).reshape(x.shape)

    return _node(y.reshape(n, ho, wo, o), "patch_conv2d_nhwc", (x, k, b),
                 (vjp_x, lambda g: vjp_w(g).reshape(k.shape), vjp_b))


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
    """Exact Gaussian error linear unit, x * Phi(x) (erf form, no tanh approximation).

    Phi comes from ``_erf``, which gives ``scipy.special.erf``'s bits on
    float32 without importing scipy. The Gaussian density the gradient needs
    is computed in the backward pass only, so forward-only (no-grad) calls
    skip its ``exp``.
    """
    cdf = 0.5 * (1.0 + _erf(x.data * _INV_SQRT2))

    def vjp(g):
        pdf = np.exp(-0.5 * x.data * x.data) * _INV_SQRT_2PI
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
