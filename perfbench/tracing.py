"""Per-layer spans recorded from the benchmark's side of each call.

`Tracer.install` replaces each listed public function of a layer module by a
wrapper, and rebinds the same object wherever another module of the package
imported it by name (``from .linalg import matfun`` makes ``contour.matfun``,
``cli.matfun``, ...), so calls from one layer into another are seen too.
Nothing under the program's source changes, and `uninstall` puts every
original back, so untraced passes pay nothing.

A span is (function, start, end, parent span, case id). Self time is a
span's duration minus the durations of its direct children, accumulated as
spans close; the spans themselves stay in memory until `write`.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import defaultdict

PACKAGE = "psf_matfunc"

# Public functions timed in each layer (a module under src/psf_matfunc/).
# `instances` is timed inside setup_s. `costmodel` is left out on purpose:
# it is closed-form arithmetic that takes microseconds.
LAYERS = {
    "kernels": ("kernel_values", "l1_norm_estimate"),
    "fourier": ("plan_fourier", "lcu_coefficients", "assemble_fourier_approx"),
    "contour": ("plan_contour", "make_plan", "circle_sup", "optimize_radius",
                "discrete_sum_apply", "aliasing_term", "truncation_integral"),
    "linalg": ("eig", "matfun", "evolution_matrix", "resolvent_apply"),
    "operators": ("gradient_stack", "dirac_operator", "shifted_encoding",
                  "run_application"),
    "io": ("write_json", "write_csv"),
    "cli": ("main",),
    "util": ("ordered_map",),
}


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _file_bytes(args, kwargs, result, pre):
    return os.path.getsize(_arg(args, kwargs, 0, "path"))


# Work counts taken at the same boundaries as the spans:
# function -> [(metric, "sum" | "max", f(args, kwargs, result, pre))].
COUNTERS = {
    "kernels.kernel_values": [
        ("kernels.kernel_values.points", "sum", lambda a, k, r, pre: len(r))],
    # Only calls that sample: the coefficients are cached on the plan.
    "fourier.lcu_coefficients": [
        ("fourier.lcu_coefficients.terms", "sum",
         lambda a, k, r, pre: len(r) if pre else 0)],
    "fourier.assemble_fourier_approx": [
        ("fourier.assemble_fourier_approx.dim_sum", "sum",
         lambda a, k, r, pre: r.shape[0])],
    "contour.discrete_sum_apply": [
        ("contour.shifts", "sum", lambda a, k, r, pre: _arg(a, k, 2, "plan").m)],
    "contour.truncation_integral": [
        ("contour.shifts", "sum",
         lambda a, k, r, pre: _arg(a, k, 2, "plan").quad_n)],
    "operators.dirac_operator": [
        ("operators.dense_dim_max", "max", lambda a, k, r, pre: r.H.shape[0])],
    "operators.shifted_encoding": [
        ("operators.dense_dim_max", "max", lambda a, k, r, pre: r.shape[0])],
    "io.write_json": [("io.write_json.bytes", "sum", _file_bytes)],
    "io.write_csv": [("io.write_csv.bytes", "sum", _file_bytes)],
}

# State read before the call, handed to the counter as `pre`.
PRE = {
    "fourier.lcu_coefficients":
        lambda a, k: _arg(a, k, 0, "plan").coefficients is None,
}

_COUNT_UNITS = {"points": "count", "terms": "count", "dim_sum": "count",
                "shifts": "count", "dense_dim_max": "count", "bytes": "B"}


def metric_specs() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric the tracer reports."""
    counters = sorted({m for specs in COUNTERS.values() for m, _, _ in specs})
    out = []
    for layer, names in LAYERS.items():
        for name in names:
            out += [(f"{layer}.{name}.self_ms", "ms"),
                    (f"{layer}.{name}.calls", "count")]
        if len(names) > 1:
            out.append((f"{layer}.self_ms", "ms"))
        out += [(m, _COUNT_UNITS[m.rsplit(".", 1)[1]])
                for m in counters if m.startswith(layer + ".")]
        out.append((f"{layer}.errors", "count"))
    return out


class Tracer:
    """Span recorder for one benchmark process."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self._case = ""
        self._patched: list = []
        self._last_exc = None
        self.reset()

    def reset(self) -> None:
        """Zero the per-pass totals; recorded spans are kept."""
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self.errors = defaultdict(int)

    # -- installation --------------------------------------------------

    def install(self) -> None:
        mods = [m for n, m in list(sys.modules.items())
                if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for layer, names in LAYERS.items():
            mod = importlib.import_module(f"{PACKAGE}.{layer}")
            for name in names:
                orig = getattr(mod, name)
                wrapper = self._wrap(f"{layer}.{name}", orig)
                for m in mods:
                    for attr in [a for a, v in vars(m).items() if v is orig]:
                        self._patched.append((m, attr, orig))
                        setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for m, attr, orig in reversed(self._patched):
            setattr(m, attr, orig)
        self._patched.clear()

    # -- spans ---------------------------------------------------------

    def run_case(self, case_id: str, fn):
        """Call fn() inside a root span named 'case'."""
        self._case = case_id
        self._last_exc = None
        frame = self._push("case")
        try:
            return fn()
        finally:
            self._pop(frame)
            self._last_exc = None

    def _push(self, key: str) -> list:
        parent = self._stack[-1][0] if self._stack else -1
        idx = len(self.spans)
        self.spans.append(None)
        frame = [idx, key, parent, 0.0, time.perf_counter()]
        self._stack.append(frame)
        return frame

    def _pop(self, frame: list) -> None:
        end = time.perf_counter()
        idx, key, parent, child, start = frame
        self._stack.pop()
        dur = end - start
        if self._stack:
            self._stack[-1][3] += dur
        self.spans[idx] = (key, start, end, parent, self._case)
        self.self_s[key] += dur - child
        self.calls[key] += 1

    def _wrap(self, key: str, fn):
        pre = PRE.get(key)
        counters = COUNTERS.get(key, ())
        layer = key.split(".", 1)[0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = pre(args, kwargs) if pre else None
            frame = self._push(key)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._pop(frame)
                # Charged once, to the innermost traced layer it left.
                if exc is not self._last_exc:
                    self._last_exc = exc
                    self.errors[layer] += 1
                raise
            self._pop(frame)
            for metric, agg, count in counters:
                val = count(args, kwargs, result, state)
                if agg == "max":
                    self.counts[metric] = max(self.counts[metric], val)
                else:
                    self.counts[metric] += val
            return result

        return traced

    # -- results -------------------------------------------------------

    def snapshot(self) -> dict:
        """Per-layer metrics accumulated since the last reset."""
        out = {}
        for name, _ in metric_specs():
            head, _, tail = name.rpartition(".")
            if tail == "self_ms" and head in LAYERS:
                out[name] = 1e3 * sum(self.self_s[f"{head}.{fn}"]
                                      for fn in LAYERS[head])
            elif tail == "self_ms":
                out[name] = 1e3 * self.self_s[head]
            elif tail == "calls":
                out[name] = self.calls[head]
            elif tail == "errors":
                out[name] = self.errors[head]
            else:
                out[name] = self.counts[name]
        return out

    def write(self, path: str) -> None:
        """Spans as tab-separated rows, times in ms from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tname\tstart_ms\tend_ms\tparent\tcase\n")
            for i, (key, start, end, parent, case) in enumerate(self.spans):
                fh.write(f"{i}\t{key}\t{(start - t0) * 1e3:.4f}\t"
                         f"{(end - t0) * 1e3:.4f}\t{parent}\t{case}\n")
