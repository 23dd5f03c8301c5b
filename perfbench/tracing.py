"""Spans and counters around the saext layers, installed from outside.

``Tracer.install`` replaces, on each ``saext`` module, the public ``numerics``
kernels as that module references them, the public functions of every
layer, and ``numpy.linalg.svd`` as ``box_spectrum`` sees it.  Every callable
handed to a kernel is wrapped too, so the kernel's evaluation points are
counted where they happen.  A name a later version of the library no
longer has is skipped: its counters stay at zero.

Spans are kept in memory as (name, start_ns, end_ns, parent, op_id) and
written out by ``dump``; a layer's self time is the time of its spans minus
the part covered by their children.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
import types
from collections import Counter

KERNELS = ("scan_brackets", "refine_root", "integrate")

API = {
    "box_spectrum": ("solve_spectrum", "eigenfunction"),
    "momentum": ("expansion_coeff_quadrature", "expansion_table", "expansion_coeff",
                 "uncertainty_product"),
    "wells": ("paradox_report", "finite_well_levels", "infinite_limit_study",
              "well_coefficient_quadrature"),
    "halfline": ("deuteron_v0", "deuteron_sweep", "reflection", "bound_state"),
    "extensions": ("verify_deficiency",),
    "cli": ("run",),
}

MODULES = ("numerics", "box_spectrum", "momentum", "wells", "halfline", "extensions", "cli")

# per-layer counters reported by every traced run, zero when the layer is idle
COUNTS = (
    "numerics.refine_root.calls", "numerics.refine_root.iterations",
    "numerics.refine_root.evals",
    "numerics.scan_brackets.calls", "numerics.scan_brackets.points",
    "numerics.integrate.calls", "numerics.integrate.points",
    "box_spectrum.solve_spectrum.calls", "box_spectrum.eigenfunction.calls",
    "box_spectrum.svd_calls", "box_spectrum.scan_extensions",
    "box_spectrum.roots_refined", "box_spectrum.roots_returned", "box_spectrum.wrong_spectra",
    "momentum.expansion_coeff_quadrature.calls", "momentum.expansion_table.calls",
    "momentum.table_coeffs",
    "wells.paradox_report.calls", "wells.finite_well_levels.calls",
    "wells.finite_well_levels.failed", "wells.infinite_limit_study.calls",
    "wells.infinite_limit_study.failed",
    "halfline.deuteron_v0.calls", "halfline.hinted_solves", "halfline.hint_hits",
    "extensions.verify_deficiency.calls",
    "cli.runs",
)

# per-span times reported in the trace report (zero when the layer is idle)
TIMES = (
    "numerics.refine_root.ms", "numerics.scan_brackets.ms", "numerics.integrate.ms",
    "box_spectrum.solve_spectrum.self_ms", "box_spectrum.eigenfunction.self_ms",
    "momentum.expansion_coeff_quadrature.ms", "momentum.expansion_table.ms",
    "wells.paradox_report.ms", "wells.finite_well_levels.ms", "wells.infinite_limit_study.ms",
    "halfline.deuteron_v0.ms", "extensions.verify_deficiency.ms", "cli.run_ms",
)


def _points(x) -> int:
    """Evaluation points in one call: the size of an array argument, else 1."""
    return int(x.size) if getattr(x, "ndim", 0) else 1


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.stack: list[tuple[str, int]] = []   # (name, span index)
        self.op_id: str | None = None
        self._undo: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _enter(self, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1][1] if self.stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.op_id])
        self.stack.append((name, index))
        return index

    def _exit(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter_ns()
        self.stack.pop()

    def _inside(self, name: str) -> bool:
        return any(entry[0] == name for entry in self.stack)

    def _counted(self, fn, key: str):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += _points(args[0]) if args else 1
            return fn(*args, **kwargs)

        return wrapper

    # -- wrappers ----------------------------------------------------------

    def _kernel(self, fn, kernel: str):
        tracer = self
        name = "numerics." + kernel
        unit = ".evals" if kernel == "refine_root" else ".points"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts = tracer.counts
            counts[name + ".calls"] += 1
            args = [tracer._counted(a, name + unit) if callable(a) else a for a in args]
            kwargs = {k: tracer._counted(v, name + unit) if callable(v) else v
                      for k, v in kwargs.items()}
            in_solve = tracer._inside("box_spectrum.solve_spectrum")
            if kernel == "scan_brackets" and in_solve:
                lo = args[1] if len(args) > 1 else kwargs.get("lo", 0.0)
                if lo > 1.0:
                    counts["box_spectrum.scan_extensions"] += 1
            elif kernel == "refine_root" and in_solve:
                counts["box_spectrum.roots_refined"] += 1
            index = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(index)
            if kernel == "refine_root":
                counts[name + ".iterations"] += int(getattr(result, "iterations", 0))
            return result

        return wrapper

    def _api(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts = tracer.counts
            counts[name + ".calls"] += 1
            if name == "momentum.expansion_coeff" and tracer._inside("momentum.expansion_table"):
                counts["momentum.table_coeffs"] += 1
            if name == "cli.run":
                counts["cli.runs"] += 1
            hinted = name == "halfline.deuteron_v0" and (
                (len(args) > 1 and args[1] is not None) or kwargs.get("x_hint") is not None)
            scans = counts["numerics.scan_brackets.calls"]
            index = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                counts[name + ".failed"] += 1
                raise
            finally:
                tracer._exit(index)
            if hinted:
                counts["halfline.hinted_solves"] += 1
                if counts["numerics.scan_brackets.calls"] == scans:
                    counts["halfline.hint_hits"] += 1
            if name == "box_spectrum.solve_spectrum":
                counts["box_spectrum.roots_returned"] += (
                    len(getattr(result, "negative", ())) + len(getattr(result, "positive", ())))
            return result

        return wrapper

    def _numpy_proxy(self, np_module):
        """A copy of numpy whose linalg.svd counts calls; attribute lookups stay plain."""
        linalg = types.ModuleType("numpy.linalg")
        linalg.__dict__.update(np_module.linalg.__dict__)
        svd = np_module.linalg.svd
        counts = self.counts

        def counted_svd(*args, **kwargs):
            counts["box_spectrum.svd_calls"] += 1
            return svd(*args, **kwargs)

        linalg.svd = counted_svd
        proxy = types.ModuleType("numpy")
        proxy.__dict__.update(np_module.__dict__)
        proxy.linalg = linalg
        return proxy

    def _replace(self, module, attr: str, value) -> None:
        self._undo.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def install(self) -> "Tracer":
        for mod_name in MODULES:
            try:
                module = importlib.import_module("saext." + mod_name)
            except ImportError:
                continue
            for kernel in KERNELS:
                fn = getattr(module, kernel, None)
                if callable(fn):
                    self._replace(module, kernel, self._kernel(fn, kernel))
            for fn_name in API.get(mod_name, ()):
                fn = getattr(module, fn_name, None)
                if callable(fn):
                    self._replace(module, fn_name, self._api(fn, f"{mod_name}.{fn_name}"))
            if mod_name == "box_spectrum" and isinstance(getattr(module, "np", None),
                                                         types.ModuleType):
                self._replace(module, "np", self._numpy_proxy(module.np))
        return self

    def uninstall(self) -> None:
        while self._undo:
            module, attr, value = self._undo.pop()
            setattr(module, attr, value)

    # -- reporting ---------------------------------------------------------

    def span_times(self) -> tuple[Counter, Counter]:
        """Total and self nanoseconds per span name."""
        total, child = Counter(), Counter()
        for name, start, end, parent, _ in self.spans:
            total[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        self_ns = Counter()
        for index, (name, start, end, _, _) in enumerate(self.spans):
            self_ns[name] += end - start - child[index]
        return total, self_ns

    def report(self) -> dict:
        total, self_ns = self.span_times()
        out = {key: int(self.counts[key]) for key in COUNTS}
        for key in TIMES:
            name, _, field = key.rpartition(".")
            if key == "cli.run_ms":
                out[key] = total["cli.run"] / 1e6
            elif field == "self_ms":
                out[key] = self_ns[name] / 1e6
            else:
                out[key] = total[name] / 1e6
        layers = Counter()
        for name, ns in self_ns.items():
            layers[name.split(".")[0]] += ns
        out["numerics.self_ms"] = layers["numerics"] / 1e6
        out["api.self_ms"] = sum(ns for layer, ns in layers.items() if layer != "numerics") / 1e6
        out["layer_self_ms"] = {layer: layers[layer] / 1e6 for layer in MODULES}
        return out

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "op_id"],
                       "spans": self.spans, "counts": dict(self.counts)}, handle)
