"""Spans around the program's public functions, recorded from outside.

`Tracer.installed()` swaps each traced function, in the module
namespace its callers look it up in, for a wrapper that records a span
(name, start, end, parent span, op id). It swaps the originals back on
exit. Nothing in the package is edited. Spans stay in memory until the
run ends.

The NLM engine's computed work is counted at `despeckle.nlm`'s binding
of `correlate1d_valid`: the engine makes one axis-0 and one axis-1 call
per search offset and band, so the call shapes give the offsets done
and, with the engine's per-offset step list below, the operations and
bytes it computed. A change that stops calling it there shows as zero.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import statistics
import time
from dataclasses import dataclass, field

LAYERS = ("cli", "pgm", "noise", "image", "nlm", "baselines", "metrics")

# module namespace -> functions wrapped there. The CLI looks its callees
# up in despeckle.cli; the benchmark's own direct calls go through the
# defining modules; robust NLM finds its prefilter in despeckle.nlm and
# evaluate() finds the three scores in despeckle.metrics.
TRACED = {
    "despeckle.cli": ("main", "load_pgm", "save_pgm", "log_compress", "exp_expand",
                      "estimate_noise_sigma", "robust_nlm_denoise", "nlm_denoise"),
    "despeckle.nlm": ("blur_array", "nlm_denoise"),
    "despeckle.noise": ("estimate_noise_sigma", "add_multiplicative_speckle"),
    "despeckle.pgm": ("load_pgm", "save_pgm"),
    "despeckle.baselines": ("lee_filter", "frost_filter", "srad"),
    "despeckle.metrics": ("psnr", "ssim", "epi", "evaluate"),
}

ENGINE_SPANS = ("nlm.nlm_denoise", "nlm.robust_nlm_denoise")

# per-layer time metric -> the spans whose self time it sums
TIME_METRICS = {
    "nlm.engine_s": ENGINE_SPANS,
    "image.prefilter_s": ("image.blur_array",),
    "noise.estimate_s": ("noise.estimate_noise_sigma",),
    "noise.log_s": ("noise.log_compress",),
    "noise.exp_s": ("noise.exp_expand",),
    "noise.synth_s": ("noise.add_multiplicative_speckle",),
    "pgm.load_s": ("pgm.load_pgm",),
    "pgm.save_s": ("pgm.save_pgm",),
    "baselines.lee_s": ("baselines.lee_filter",),
    "baselines.frost_s": ("baselines.frost_filter",),
    "baselines.srad_s": ("baselines.srad",),
    "metrics.psnr_s": ("metrics.psnr",),
    "metrics.ssim_s": ("metrics.ssim",),
    "metrics.epi_s": ("metrics.epi",),
    "cli.self_s": ("cli.main",),
}

# Per search offset the engine computes, in float64:
#   diff = base - shifted; diff *= diff          on the axis-0 input (A elements)
#   two tap-by-tap correlations                  out = t0*x; out += t*x per tap
#   dist *= inv_h; exp; [w *= corr]; w * values; acc += ...; norm += w  (C elements)
# Each step counts one operation per element and 8 bytes per element read
# or written.
_PRE_OPS, _PRE_BYTES = 2, 8 * (3 + 2)
_POST_OPS, _POST_BYTES = 5, 8 * (2 + 2 + 3 + 3 + 3)
_CORR_OPS, _CORR_BYTES = 1, 8 * 3


@dataclass
class Span:
    id: int
    name: str
    op: int
    parent: int | None
    start: float
    end: float = 0.0
    error: bool = False
    attrs: dict = field(default_factory=dict)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> its duration minus the part of it its children cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = (s.end - s.start) - covered
    return out


def _attrs(name: str, args, result) -> dict:
    if name == "pgm.load_pgm":
        return {"bytes": os.path.getsize(args[0])}
    if name == "pgm.save_pgm":
        return {"bytes": os.path.getsize(args[1])}
    if name in ENGINE_SPANS:
        return {"pixels": args[0].pixels.size}
    if name == "cli.main" and result != 0:
        return {"exit_code": result}
    return {}


class Tracer:
    """Records spans of the ops run inside `installed(op)`."""

    def __init__(self):
        self.spans: list[Span] = []
        self.kernel_calls: dict[int, list[tuple[int, tuple[int, int], int]]] = {}
        self._stack: list[Span] = []
        self._op = -1

    def _wrap(self, fn):
        name = f"{fn.__module__.rpartition('.')[2]}.{fn.__name__}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1].id if self._stack else None
            span = Span(len(self.spans), name, self._op, parent, 0.0)
            self.spans.append(span)
            self._stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if not span.error:
                    span.attrs = _attrs(name, args, result)
                    span.error = "exit_code" in span.attrs

        return traced

    def _count(self, fn):
        calls = self.kernel_calls.setdefault(self._op, [])

        @functools.wraps(fn)
        def counted(arr, taps, axis):
            # may run on pool threads; list.append is atomic
            calls.append((axis, arr.shape, taps.size))
            return fn(arr, taps, axis)

        return counted

    @contextlib.contextmanager
    def installed(self, op: int):
        """Trace op number `op`: the op itself is the root span."""
        self._op = op
        saved = []
        try:
            for module_name, names in TRACED.items():
                module = importlib.import_module(module_name)
                for attr in names:
                    saved.append((module, attr, getattr(module, attr)))
                    setattr(module, attr, self._wrap(getattr(module, attr)))
            nlm = importlib.import_module("despeckle.nlm")
            saved.append((nlm, "correlate1d_valid", nlm.correlate1d_valid))
            nlm.correlate1d_valid = self._count(nlm.correlate1d_valid)
            root = Span(len(self.spans), "op", op, None, time.perf_counter())
            self.spans.append(root)
            self._stack.append(root)
            try:
                yield
            finally:
                root.end = time.perf_counter()
                self._stack.pop()
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def engine_counts(calls, pixels: int, robust: bool) -> dict[str, float]:
    """Computed work of the NLM engine from its correlation call shapes."""
    ops = nbytes = out_elems = 0
    for axis, shape, taps in calls:
        rows, cols = shape
        out = (rows - taps + 1) * cols if axis == 0 else rows * (cols - taps + 1)
        ops += out * (2 * taps - 1)
        nbytes += 8 * out * (2 + 5 * (taps - 1))
        if axis == 0:
            ops += _PRE_OPS * rows * cols
            nbytes += _PRE_BYTES * rows * cols
        else:
            out_elems += out
            ops += (_POST_OPS + (_CORR_OPS if robust else 0)) * out
            nbytes += (_POST_BYTES + (_CORR_BYTES if robust else 0)) * out
    return {
        "nlm.offsets": out_elems / pixels if pixels else 0.0,
        "nlm.ops_computed": float(ops),
        "nlm.bytes_computed": float(nbytes),
        "nlm.ops_per_byte": ops / nbytes if nbytes else 0.0,
    }


def op_breakdown(tracer: Tracer) -> dict[int, dict[str, float]]:
    """Per traced op: every per-layer value that comes from spans."""
    selfs = self_times(tracer.spans)
    ops: dict[int, dict[str, float]] = {}
    for s in tracer.spans:
        row = ops.setdefault(s.op, {"pixels": 0.0, "robust": 0.0})
        if s.name == "op":
            row["trace.op_s"] = s.end - s.start
            row["unattributed_s"] = selfs[s.id]
            continue
        layer = s.name.partition(".")[0]
        row[f"{layer}.self_s"] = row.get(f"{layer}.self_s", 0.0) + selfs[s.id]
        row[f"{layer}.calls"] = row.get(f"{layer}.calls", 0.0) + 1
        row[f"{layer}.errors"] = row.get(f"{layer}.errors", 0.0) + s.error
        row[s.name] = row.get(s.name, 0.0) + selfs[s.id]
        if s.name == "pgm.load_pgm":
            row["pgm.bytes_in"] = row.get("pgm.bytes_in", 0.0) + s.attrs.get("bytes", 0)
        elif s.name == "pgm.save_pgm":
            row["pgm.bytes_out"] = row.get("pgm.bytes_out", 0.0) + s.attrs.get("bytes", 0)
        elif s.name in ENGINE_SPANS:
            row["pixels"] += s.attrs.get("pixels", 0)
            row["robust"] = float(s.name == "nlm.robust_nlm_denoise")
    for op, row in ops.items():
        for metric, names in TIME_METRICS.items():
            row[metric] = sum(row.get(n, 0.0) for n in names)
        engine = row["nlm.engine_s"]
        row["nlm.px_per_s"] = row["pixels"] / engine if engine > 0 else 0.0
        row.update(engine_counts(tracer.kernel_calls.get(op, ()), int(row["pixels"]),
                                 bool(row["robust"])))
    return ops


PER_LAYER_METRICS = (
    list(TIME_METRICS)
    + ["nlm.px_per_s", "nlm.offsets", "nlm.ops_computed", "nlm.bytes_computed",
       "nlm.ops_per_byte", "pgm.bytes_in", "pgm.bytes_out"]
    + [f"{layer}.self_s" for layer in LAYERS if layer != "cli"]
    + [f"{layer}.{kind}" for kind in ("calls", "errors") for layer in LAYERS]
    + ["unattributed_s", "trace.op_s", "trace.overhead_s"]
)


def layer_metrics(tracer: Tracer, traced_op_s: list[float], untraced_op_s: list[float]):
    """Per-op medians of every per-layer metric; errors are run totals."""
    rows = list(op_breakdown(tracer).values()) or [{}]
    out = {}
    for name in PER_LAYER_METRICS:
        values = [row.get(name, 0.0) for row in rows]
        out[name] = sum(values) if name.endswith(".errors") else statistics.median(values)
    out["trace.overhead_s"] = statistics.median(traced_op_s) - statistics.median(untraced_op_s)
    return out
