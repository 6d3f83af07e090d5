"""Layer spans for the benchmark, recorded from outside the package.

The tracer wraps the public functions at each foambounds module boundary
and rebinds every module-level name that refers to them (for example
``foambounds.eva.enumerate_vertices`` and ``foambounds.cli.load_mesh``),
so calls between modules and calls a module makes to its own public
functions both produce spans.  Spans live in memory as tuples
(name, start, end, parent span, op id) and are written out once, at the
end of the run.  A span's self time is its duration minus the time
covered by its direct children.

Counts are taken at the same boundaries from the wrapped calls' results:
vertices returned, subsets scored and improved, triangles loaded, and the
clipping uncertainty relative to its budget.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict

# Layer -> public functions wrapped at its boundary.  The cli layer's only
# boundary is main(), which is every operation's root span.
LAYERS = {
    "cli": ("main",),
    "geometry": ("load_instance", "build_distance_matrix", "reduce_distance_matrix"),
    "polytope": ("build_h_polytope", "enumerate_vertices", "interior_point"),
    "eva": ("maximize_eva", "evA_exact_from_matrix", "evA_algorithm1_from_matrix"),
    "meshcheck": ("load_mesh", "verify_main_inequality", "plateau_angle_check"),
    "bounds": ("main_theorem_bound",),
}
# Modules whose namespaces are searched for names bound to wrapped functions.
MODULES = ("foambounds",) + tuple(f"foambounds.{m}" for m in LAYERS) + ("foambounds.meshes",)

EXACT_SEARCH = "eva.evA_exact_from_matrix"


class Tracer:
    """Installs span wrappers and keeps the spans and counts of a run."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict = defaultdict(lambda: defaultdict(float))
        self.op = -1
        self._stack: list = []
        self._best: dict = {}
        self._bindings: list = []
        wrappers = {}
        for layer, names in LAYERS.items():
            module = importlib.import_module(f"foambounds.{layer}")
            for name in names:
                fn = getattr(module, name)
                wrappers[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
        for modname in MODULES:
            module = importlib.import_module(modname)
            for attr, value in vars(module).items():
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._bindings.append((module, attr, value, wrappers[id(value)][1]))

    def __enter__(self) -> "Tracer":
        for module, attr, _, wrapper in self._bindings:
            setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original, _ in self._bindings:
            setattr(module, attr, original)

    def start_op(self, op_id: int) -> None:
        self.op = op_id

    def _wrap(self, name: str, fn):
        observe = _OBSERVERS.get(name)

        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else (None, None)
            sid = len(self.spans)
            self.spans.append(None)
            self._stack.append((sid, name))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[sid] = (name, start, end, parent[0], self.op)
            if observe is not None:
                observe(self, self.counts[self.op], parent, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def span_totals(self, ops=None) -> dict:
        """Span name -> [calls, self seconds], over the given op ids (or all)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent is not None:
                child[parent] += end - start
        totals: dict = defaultdict(lambda: [0, 0.0])
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            if ops is None or op in ops:
                totals[name][0] += 1
                totals[name][1] += (end - start) - child[i]
        return totals

    def op_signatures(self) -> dict:
        """Op id -> the op's deterministic counts: counters and span calls."""
        calls: dict = defaultdict(lambda: defaultdict(int))
        for name, _, _, _, op in self.spans:
            calls[op][name] += 1
        return {
            op: {**{k: v for k, v in self.counts[op].items()},
                 **{f"{k}.calls": v for k, v in calls[op].items()}}
            for op in calls
        }

    def write(self, path, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump(
                {
                    **header,
                    "fields": ["name", "start_s", "end_s", "parent", "op"],
                    "spans": self.spans,
                },
                f,
            )


def _vertices(tracer, counts, parent, args, result):
    counts["polytope.vertices_returned"] += len(result)


def _maximize(tracer, counts, parent, args, result):
    if not result.convexity_certified:
        counts["eva.uncertified_calls"] += 1
    sid, name = parent
    if name == EXACT_SEARCH:
        counts["eva.subsets_scored"] += 1
        best = tracer._best.get(sid)
        if best is None or result.value > best:
            tracer._best[sid] = result.value
            counts["eva.improving_subsets"] += 1


def _mesh(tracer, counts, parent, args, result):
    counts["meshcheck.triangles_loaded"] += len(result.triangles)


def _inequality(tracer, counts, parent, args, result):
    ratio = result.uncertainty / result.eps
    key = "meshcheck.uncertainty_over_eps_max"
    counts[key] = max(counts[key], ratio)


_OBSERVERS = {
    "polytope.enumerate_vertices": _vertices,
    "eva.maximize_eva": _maximize,
    "meshcheck.load_mesh": _mesh,
    "meshcheck.verify_main_inequality": _inequality,
}

# Per-layer metrics: name -> (source, key, unit).  "calls" and "self_ms" read
# span totals, "count" sums a counter, "max" takes its largest value and
# "ratio" divides two counters.  Calls and counts are per traced op.
PER_LAYER = {
    "cli.self_ms": ("self_ms", "cli.main", "ms/op"),
    "geometry.build_distance_matrix.self_ms": ("self_ms", "geometry.build_distance_matrix", "ms/op"),
    "geometry.reduce_distance_matrix.calls": ("calls", "geometry.reduce_distance_matrix", "count/op"),
    "geometry.reduce_distance_matrix.self_ms": ("self_ms", "geometry.reduce_distance_matrix", "ms/op"),
    "polytope.build_h_polytope.calls": ("calls", "polytope.build_h_polytope", "count/op"),
    "polytope.build_h_polytope.self_ms": ("self_ms", "polytope.build_h_polytope", "ms/op"),
    "polytope.enumerate_vertices.calls": ("calls", "polytope.enumerate_vertices", "count/op"),
    "polytope.enumerate_vertices.self_ms": ("self_ms", "polytope.enumerate_vertices", "ms/op"),
    "polytope.vertices_returned": ("count", "polytope.vertices_returned", "count/op"),
    "polytope.interior_point.calls": ("calls", "polytope.interior_point", "count/op"),
    "polytope.interior_point.self_ms": ("self_ms", "polytope.interior_point", "ms/op"),
    "eva.maximize_eva.calls": ("calls", "eva.maximize_eva", "count/op"),
    "eva.maximize_eva.self_ms": ("self_ms", "eva.maximize_eva", "ms/op"),
    "eva.uncertified_calls": ("count", "eva.uncertified_calls", "count/op"),
    "eva.improving_subset_ratio": ("ratio", ("eva.improving_subsets", "eva.subsets_scored"), "ratio"),
    "eva.evA_algorithm1_from_matrix.self_ms": ("self_ms", "eva.evA_algorithm1_from_matrix", "ms/op"),
    "meshcheck.load_mesh.calls": ("calls", "meshcheck.load_mesh", "count/op"),
    "meshcheck.load_mesh.self_ms": ("self_ms", "meshcheck.load_mesh", "ms/op"),
    "meshcheck.triangles_loaded": ("count", "meshcheck.triangles_loaded", "count/op"),
    "meshcheck.plateau_angle_check.self_ms": ("self_ms", "meshcheck.plateau_angle_check", "ms/op"),
    "meshcheck.verify_main_inequality.calls": ("calls", "meshcheck.verify_main_inequality", "count/op"),
    "meshcheck.verify_main_inequality.self_ms": ("self_ms", "meshcheck.verify_main_inequality", "ms/op"),
    "meshcheck.uncertainty_over_eps_max": ("max", "meshcheck.uncertainty_over_eps_max", "ratio"),
    "bounds.main_theorem_bound.calls": ("calls", "bounds.main_theorem_bound", "count/op"),
    "bounds.main_theorem_bound.self_ms": ("self_ms", "bounds.main_theorem_bound", "ms/op"),
}


def per_layer_metrics(tracer: Tracer, count_ops: set, all_ops: set) -> dict:
    """Per-layer values; calls and counts over count_ops, times over all_ops.

    count_ops is a fixed prefix of the op sequence, so calls and counts are
    deterministic for a seed; self times average over every traced op.
    """
    counted = tracer.span_totals(count_ops)
    timed = tracer.span_totals(all_ops)
    sums: dict = defaultdict(float)
    maxima: dict = defaultdict(float)
    for op in count_ops:
        for key, value in tracer.counts[op].items():
            sums[key] += value
            maxima[key] = max(maxima[key], value)
    out = {}
    for metric, (source, key, unit) in PER_LAYER.items():
        if source == "calls":
            value = counted[key][0] / len(count_ops)
        elif source == "self_ms":
            value = 1000.0 * timed[key][1] / len(all_ops)
        elif source == "count":
            value = sums[key] / len(count_ops)
        elif source == "max":
            value = maxima[key]
        else:
            num, den = key
            value = sums[num] / sums[den] if sums[den] else 0.0
        out[metric] = {"value": value, "unit": unit}
    return out
