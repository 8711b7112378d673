"""Layer timing for the traced run, measured from outside the library.

``Tracer.install`` replaces the public functions of the convlora modules
(and a few methods) with wrappers that record a span per call: name, start,
end and the index of the enclosing span. Every name in the package that is
bound to a wrapped function is rebound, so calls made between modules
(``training`` calling ``data.load_batch``, ``backbone`` calling
``tensor.linear``) are seen too. Tensor primitives additionally wrap the
vector-Jacobian products they record on their output, so backward time is
attributed per op and, through ``backbone.block_forward``, per stage.

Spans stay in memory; ``layer_metrics`` reduces them to the per-layer
metrics and ``self_times`` to the time each span spent outside its children.
Wrappers only call through, so a traced run computes the same numbers as an
untraced one.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import os
import sys
import time
import tracemalloc
from collections import defaultdict

LAYERS = ("data", "images", "tensor", "backbone", "lora", "training",
          "persist", "metrics")
PRIMITIVES = ("linear", "conv2d", "depthwise_conv2d", "layer_norm", "gelu", "grn",
              "transpose", "add", "scale", "dropout", "global_avg_pool",
              "softmax_cross_entropy")
GEMM_OPS = ("linear", "conv2d", "depthwise_conv2d")
# public names that are not operations worth a span
SKIP = {"tensor.no_grad", "tensor.grad_check"}
# calls whose peak allocation is measured (tracemalloc, numpy buffers included);
# train is not among them, as tracemalloc would slow its Python-heavy data path
PEAK_SPANS = {"persist.load": "persist.load_peak_mb",
              "lora.inject": "lora.inject_peak_mb"}
# spans summed into one metric each
SPAN_TOTALS = {"data.scan_split_s": ("data.scan_dataset", "data.split"),
               "data.load_batch_s": ("data.load_batch",),
               "images.read_image_s": ("images.read_image",),
               "images.resize_bilinear_s": ("images.resize_bilinear",),
               "images.rotate_bilinear_s": ("images.rotate_bilinear",),
               "images.normalize_s": ("images.normalize",),
               "tensor.backward_s": ("tensor.backward",),
               "lora.inject_s": ("lora.inject",),
               "lora.adapted_linear_s": ("lora.adapted_linear",),
               "lora.merged_model_s": ("lora.merged_model",),
               "persist.load_s": ("persist.load",),
               "persist.save_s": ("persist.save",),
               "persist.attach_s": ("persist.attach",),
               "metrics.report_s": ("metrics.report",)}
# spans called directly by training.train, by the step phase they time
STEP_PHASES = {"data.load_batch": "training.step_data_s",
               "lora.model_forward": "training.step_fwd_s",
               "tensor.softmax_cross_entropy": "training.step_fwd_s",
               "tensor.backward": "training.step_bwd_s",
               "training.adamw_step": "training.step_opt_s"}

MB = 1e6

# (name, unit) of every per-layer metric, in report order
PER_LAYER = (
    [("data.load_batch_s", "s"), ("data.scan_split_s", "s"),
     ("data.images_loaded", "count"),
     ("images.read_image_s", "s"), ("images.resize_bilinear_s", "s"),
     ("images.rotate_bilinear_s", "s"), ("images.normalize_s", "s")]
    + [(f"tensor.{op}.{m}", u) for op in PRIMITIVES
       for m, u in (("fwd_s", "s"), ("bwd_s", "s"), ("calls", "count"))]
    + [(f"tensor.{op}.fwd_gflop", "GFLOP") for op in GEMM_OPS]
    + [("tensor.backward_s", "s"), ("tensor.tape_self_s", "s")]
    + [(f"backbone.stage{s}.{d}_s", "s") for s in range(4) for d in ("fwd", "bwd")]
    + [("backbone.model_copies", "count"), ("backbone.model_copy_mb", "MB"),
       ("lora.inject_s", "s"), ("lora.inject_peak_mb", "MB"),
       ("lora.adapted_linear_s", "s"), ("lora.merged_model_s", "s"),
       ("training.step_data_s", "s"), ("training.step_fwd_s", "s"),
       ("training.step_bwd_s", "s"), ("training.step_opt_s", "s"),
       ("training.val_s", "s"), ("training.steps", "count"),
       ("training.predict_s", "s"), ("training.train_peak_mb", "MB"),
       ("persist.load_s", "s"), ("persist.save_s", "s"), ("persist.attach_s", "s"),
       ("persist.read_mb", "MB"), ("persist.written_mb", "MB"),
       ("persist.load_peak_mb", "MB"),
       ("metrics.report_s", "s"),
       ("trace.overhead_s", "s")])


def _fwd_gflop(op: str, args, out) -> float:
    """Useful work (2 x multiply-adds) of one forward call, from shapes."""
    x, k = args[0].data, args[1].data
    if op == "linear":
        flop = 2.0 * out.data.size * k.shape[1]
    elif op == "conv2d":
        flop = 2.0 * out.data.size * x.shape[1] * k.shape[2] * k.shape[3]
    else:
        flop = 2.0 * out.data.size * k.shape[2] * k.shape[3]
    return flop / 1e9


def _rss_mb() -> float:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) * 1024 / MB
    raise RuntimeError("VmRSS not found in /proc/self/status")


def _model_mb(model) -> float:
    base = getattr(model, "base", model)
    nbytes = sum(t.data.nbytes for t in base.params.values())
    for ad in getattr(model, "adapters", {}).values():
        nbytes += ad.A.data.nbytes + ad.B.data.nbytes
    return nbytes / MB


class Tracer:
    """Span recorder for one traced process."""

    def __init__(self):
        self.spans: list[list] = []          # [name, start, end, parent]
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._stage: int | None = None
        self._undo: list[tuple[object, str, object]] = []
        self._copy_depth = 0
        self._paused = False

    @contextlib.contextmanager
    def paused(self):
        """Record nothing inside the block (the benchmark's own checks)."""
        prev, self._paused = self._paused, True
        try:
            yield
        finally:
            self._paused = prev

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> float:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        self._stack.pop()
        return span[2] - span[1]

    def _wrap(self, name: str, fn, after=None):
        """A span per call; ``after(args, out)`` updates counters."""
        peak_metric = PEAK_SPANS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            measure_peak = peak_metric is not None and not tracemalloc.is_tracing()
            if measure_peak:
                tracemalloc.start()
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
                if measure_peak:
                    peak = tracemalloc.get_traced_memory()[1] / MB
                    tracemalloc.stop()
                    self.counts[peak_metric] = max(self.counts[peak_metric], peak)
            if after is not None:
                after(args, out)
            return out
        return traced

    def _wrap_primitive(self, op: str, fn):
        name = "tensor." + op

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._paused:
                return fn(*args, **kwargs)
            stage = self._stage
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            self.counts[name + ".calls"] += 1
            if op in GEMM_OPS:
                self.counts[name + ".fwd_gflop"] += _fwd_gflop(op, args, out)
            # dropout in eval mode hands back its input, whose tape is not ours
            if out._vjps and all(out is not a for a in args):
                out._vjps = tuple(None if v is None else self._wrap_vjp(name, stage, v)
                                  for v in out._vjps)
            return out
        return traced

    def _wrap_vjp(self, name: str, stage: int | None, vjp):
        span = name + ".vjp"
        stage_key = None if stage is None else f"backbone.stage{stage}.bwd_s"

        def traced(g):
            idx = self._open(span)
            try:
                return vjp(g)
            finally:
                took = self._close(idx)
                if stage_key is not None:
                    self.counts[stage_key] += took
        return traced

    def _wrap_block(self, fn):
        @functools.wraps(fn)
        def traced(params, prefix, x, linear_op):
            if self._paused:
                return fn(params, prefix, x, linear_op)
            stage = int(prefix.split(".")[1])
            prev, self._stage = self._stage, stage
            idx = self._open(f"backbone.stage{stage}.block")
            try:
                return fn(params, prefix, x, linear_op)
            finally:
                self._close(idx)
                self._stage = prev
        return traced

    def _wrap_copy(self, name: str, fn):
        """Count whole-model copies once, at the outermost astype call."""
        inner = self._wrap(name, fn)

        @functools.wraps(fn)
        def traced(model, dtype):
            if self._paused:
                return fn(model, dtype)
            self._copy_depth += 1
            try:
                out = inner(model, dtype)
            finally:
                self._copy_depth -= 1
            if self._copy_depth == 0:
                self.counts["backbone.model_copies"] += 1
                self.counts["backbone.model_copy_mb"] += _model_mb(out)
            return out
        return traced

    def _counter(self, name: str):
        """The ``after`` hook of a wrapped function, if it feeds a counter."""
        def count(key, amount):
            self.counts[key] += amount
        if name == "data.load_batch":
            return lambda args, out: count("data.images_loaded", len(out[1]))
        if name == "persist.load":
            return lambda args, out: count("persist.read_mb",
                                           os.path.getsize(args[0]) / MB)
        if name == "persist.save":
            return lambda args, out: count("persist.written_mb",
                                           os.path.getsize(args[1]) / MB)
        if name == "training.adamw_step":
            # resident memory after every step, while the step's graph is alive
            return lambda args, out: self.counts.__setitem__(
                "training.train_peak_mb",
                max(self.counts["training.train_peak_mb"], _rss_mb()))
        return None

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every public function of the traced layers, rebinding each
        name in the package that refers to the same function object."""
        from convlora import backbone, lora, metrics, persist, tensor

        package = [m for n, m in sorted(sys.modules.items())
                   if n == "convlora" or n.startswith("convlora.")]
        for layer in LAYERS:
            module = sys.modules["convlora." + layer]
            for attr, fn in list(vars(module).items()):
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__ or name in SKIP):
                    continue
                if layer == "tensor" and attr in PRIMITIVES:
                    wrapped = self._wrap_primitive(attr, fn)
                elif name == "backbone.block_forward":
                    wrapped = self._wrap_block(fn)
                else:
                    wrapped = self._wrap(name, fn, self._counter(name))
                for mod in package:
                    for bound, value in list(vars(mod).items()):
                        if value is fn:
                            self._set(mod, bound, wrapped)

        self._set(tensor.Tensor, "backward",
                  self._wrap("tensor.backward", tensor.Tensor.backward))
        self._set(backbone.Model, "astype",
                  self._wrap_copy("backbone.Model.astype", backbone.Model.astype))
        self._set(lora.PeftModel, "astype",
                  self._wrap_copy("lora.PeftModel.astype", lora.PeftModel.astype))
        self._set(persist.AdapterCheckpoint, "attach",
                  self._wrap("persist.attach", persist.AdapterCheckpoint.attach))
        report = vars(metrics.MetricsReport)["from_predictions"].__func__
        self._set(metrics.MetricsReport, "from_predictions",
                  classmethod(self._wrap("metrics.report", report)))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the time covered by children."""
        own: dict[str, float] = defaultdict(float)
        for name, start, end, parent in self.spans:
            own[name] += end - start
            if parent >= 0:
                own[self.spans[parent][0]] -= end - start
        return dict(own)

    def _under_train(self, idx: int) -> bool:
        parent = self.spans[idx][3]
        while parent >= 0:
            if self.spans[parent][0] == "training.train":
                return True
            parent = self.spans[parent][3]
        return False

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric except ``trace.overhead_s``; layers that
        did not run read 0."""
        total: dict[str, float] = defaultdict(float)
        out = {name: 0.0 for name, _ in PER_LAYER if name != "trace.overhead_s"}
        for idx, (name, start, end, parent) in enumerate(self.spans):
            took = end - start
            total[name] += took
            if name == "training.predict":
                key = "training.val_s" if self._under_train(idx) else "training.predict_s"
                out[key] += took
            elif name in STEP_PHASES and parent >= 0 \
                    and self.spans[parent][0] == "training.train":
                out[STEP_PHASES[name]] += took
                if name == "training.adamw_step":
                    out["training.steps"] += 1
        for key, value in self.counts.items():
            out[key] = value
        for key, names in SPAN_TOTALS.items():
            out[key] = sum(total[n] for n in names)
        for op in PRIMITIVES:
            out[f"tensor.{op}.fwd_s"] = total[f"tensor.{op}"]
            out[f"tensor.{op}.bwd_s"] = total[f"tensor.{op}.vjp"]
        out["tensor.tape_self_s"] = total["tensor.backward"] - sum(
            total[f"tensor.{op}.vjp"] for op in PRIMITIVES)
        for s in range(4):
            out[f"backbone.stage{s}.fwd_s"] = total[f"backbone.stage{s}.block"]
        return out
