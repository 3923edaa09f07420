"""Span recording for the benchmark's traced runs, applied from outside the package.

`instrument(tracer)` wraps the public functions of every layer module of
`descartes_folium` with span recorders and returns a function that undoes
it.  Each wrapped name is replaced in every package module that holds it,
because modules import each other's functions by name (`verify` holds its
own `apply_law` and `pbar`, `geometry` holds `pbar` and `nonzero_param`).
Folium methods are patched on the class.  Generator functions such as
`all_lines` get a span that lasts until the generator is exhausted, so it
covers the iteration and not only the call.

`FieldElement` arithmetic runs millions of times per run, so it records no
span of its own: each outermost arithmetic call adds its duration to the
`fields` totals and to the enclosing span's `leaf` time.  A span's self
time is its duration minus the durations of its child spans and its leaf
time.  Spans stay in memory and are written out once, at the end.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import sys
import time
from array import array

LAYERS = (
    "fields",
    "curve",
    "parametrization",
    "laws",
    "geometry",
    "branches",
    "verify",
    "cli",
    "plotting",
)
FOLIUM_METHODS = ("require_on_curve", "enumerate_points")
FIELD_ARITHMETIC = (
    "__add__",
    "__radd__",
    "__sub__",
    "__rsub__",
    "__mul__",
    "__rmul__",
    "__truediv__",
    "__rtruediv__",
    "__neg__",
    "__pow__",
    "inverse",
)

_now = time.perf_counter_ns


class Tracer:
    """In-memory span store: name, start, end, parent and leaf time per span."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.leaf = array("q")
        self.stack: list = []
        self.in_leaf = False
        self.leaf_calls = 0
        self.leaf_ns = 0
        self.items: dict = {}  # counters: items yielded, instances, properties, skips

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        index = len(self.start)
        self.name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.leaf.append(0)
        self.end.append(0)
        self.stack.append(index)
        self.start.append(_now())
        return index

    def close(self, index: int) -> None:
        self.end[index] = _now()
        if self.stack[-1] == index:
            self.stack.pop()
        else:  # a generator closed out of order
            self.stack.remove(index)

    def span(self, name: str):
        return _Span(self, self.name_id(name))

    def count(self, name: str, amount: int) -> None:
        self.items[name] = self.items.get(name, 0) + amount

    def totals(self) -> dict:
        """Per span name: calls, span time and self time, in nanoseconds."""
        child = array("q", bytes(8 * len(self.start)))
        for i, parent in enumerate(self.parent):
            if parent >= 0:
                child[parent] += self.end[i] - self.start[i]
        out = {}
        for i, name_id in enumerate(self.name):
            duration = self.end[i] - self.start[i]
            entry = out.setdefault(self.names[name_id], [0, 0, 0])
            entry[0] += 1
            entry[1] += duration
            entry[2] += duration - child[i] - self.leaf[i]
        return {name: {"calls": c, "span_ns": s, "self_ns": z} for name, (c, s, z) in out.items()}

    def write(self, path) -> None:
        """All spans as gzipped TSV; times in ns from the first span's start."""
        origin = self.start[0] if self.start else 0
        names, start, end, parent, leaf = self.names, self.start, self.end, self.parent, self.leaf
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            handle.write("index\tname\tstart_ns\tend_ns\tparent\tfields_ns\n")
            for chunk in range(0, len(start), 65536):
                handle.write("".join(
                    f"{i}\t{names[self.name[i]]}\t{start[i] - origin}\t{end[i] - origin}\t"
                    f"{parent[i]}\t{leaf[i]}\n"
                    for i in range(chunk, min(chunk + 65536, len(start)))
                ))


class _Span:
    __slots__ = ("tracer", "name_id", "index")

    def __init__(self, tracer: Tracer, name_id: int):
        self.tracer = tracer
        self.name_id = name_id

    def __enter__(self):
        self.index = self.tracer.open(self.name_id)
        return self

    def __exit__(self, *exc):
        self.tracer.close(self.index)
        return False


def _span_wrapper(tracer: Tracer, fn, name: str):
    name_id = tracer.name_id(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.open(name_id)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(index)

    return wrapper


def _generator_wrapper(tracer: Tracer, fn, name: str):
    name_id = tracer.name_id(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        inner = fn(*args, **kwargs)

        def iterate():
            index = tracer.open(name_id)
            yielded = 0
            try:
                for item in inner:
                    yielded += 1
                    yield item
            finally:
                tracer.close(index)
                tracer.count(name, yielded)

        return iterate()

    return wrapper


def _law_wrapper(tracer: Tracer, fn, law_kinds):
    name_ids = {law: tracer.name_id(f"laws.apply_law.{law.value}") for law in law_kinds}

    @functools.wraps(fn)
    def wrapper(curve, law, p1, p2):
        index = tracer.open(name_ids[law])
        try:
            return fn(curve, law, p1, p2)
        finally:
            tracer.close(index)

    return wrapper


def _suite_wrapper(tracer: Tracer, fn, name: str):
    name_id = tracer.name_id(name)

    @functools.wraps(fn)
    def wrapper(ctx):
        index = tracer.open(name_id)
        try:
            results = fn(ctx)
        finally:
            tracer.close(index)
        tracer.count(name, sum(result.instances for result in results))
        tracer.count("verify.properties", len(results))
        tracer.count("verify.skipped", sum(result.note is not None for result in results))
        return results

    return wrapper


def _leaf_wrapper(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(*args):
        if tracer.in_leaf:  # e.g. __pow__ calling inverse: count the outer call only
            return fn(*args)
        tracer.in_leaf = True
        start = _now()
        try:
            return fn(*args)
        finally:
            elapsed = _now() - start
            tracer.in_leaf = False
            tracer.leaf_calls += 1
            tracer.leaf_ns += elapsed
            if tracer.stack:
                tracer.leaf[tracer.stack[-1]] += elapsed

    return wrapper


def instrument(tracer: Tracer):
    """Wrap every layer's public functions with span recorders; return the undo function."""
    modules = {layer: importlib.import_module(f"descartes_folium.{layer}") for layer in LAYERS}
    package = [
        module
        for name, module in sys.modules.items()
        if name == "descartes_folium" or name.startswith("descartes_folium.")
    ]
    undo = []

    def replace(owner, attr, wrapper):
        undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def replace_everywhere(original, wrapper):
        for module in package:
            for attr, value in list(vars(module).items()):
                if value is original:
                    replace(module, attr, wrapper)

    law_kinds = list(modules["laws"].LawKind)
    for layer, module in modules.items():
        for attr, fn in list(vars(module).items()):
            if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                continue
            if (layer, attr) == ("laws", "apply_law"):
                wrapper = _law_wrapper(tracer, fn, law_kinds)
            elif inspect.isgeneratorfunction(fn):
                wrapper = _generator_wrapper(tracer, fn, f"{layer}.{attr}")
            else:
                wrapper = _span_wrapper(tracer, fn, f"{layer}.{attr}")
            replace_everywhere(fn, wrapper)

    folium = modules["curve"].Folium
    for method in FOLIUM_METHODS:
        replace(folium, method, _span_wrapper(tracer, vars(folium)[method], f"curve.{method}"))

    element = modules["fields"].FieldElement
    for method in FIELD_ARITHMETIC:
        replace(element, method, _leaf_wrapper(tracer, vars(element)[method]))

    suites = modules["verify"].SUITES
    originals = dict(suites)
    for suite, fn in originals.items():
        suites[suite] = _suite_wrapper(tracer, fn, f"verify.suite.{suite}")

    def restore():
        suites.update(originals)
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer counts and self times from the recorded spans, keyed by metric name.

    Every wrapped function has a name id from the moment it is wrapped, so
    a function the workload never called reports zero calls.
    """
    totals = tracer.totals()
    metrics = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    metrics["fields.ops"] = tracer.leaf_calls
    metrics["fields.self_s"] = tracer.leaf_ns / 1e9
    for name in tracer.names:
        entry = totals.get(name, {"calls": 0, "span_ns": 0, "self_ns": 0})
        metrics[f"{name}.calls"] = entry["calls"]
        metrics[f"{name}.self_s"] = entry["self_ns"] / 1e9
        layer = name.split(".", 1)[0]
        if layer in LAYERS:
            metrics[f"{layer}.self_s"] += entry["self_ns"] / 1e9
        if name.startswith("verify.suite."):
            metrics[f"{name}.instances"] = tracer.items.get(name, 0)
    metrics["geometry.all_lines.lines"] = tracer.items.get("geometry.all_lines", 0)
    metrics["geometry.all_lines.scan_s"] = totals.get("geometry.all_lines", {"span_ns": 0})["span_ns"] / 1e9
    law_calls = sum(
        value for name, value in metrics.items()
        if name.startswith("laws.apply_law.") and name.endswith(".calls")
    )
    metrics["curve.revalidations_per_law_call"] = _ratio(metrics["curve.require_on_curve.calls"], law_calls)
    metrics["geometry.enumerations_per_slope_check"] = _ratio(
        metrics["curve.enumerate_points.calls"], metrics["geometry.slope_cubic_check.calls"]
    )
    metrics["verify.skipped_share"] = _ratio(
        tracer.items.get("verify.skipped", 0), tracer.items.get("verify.properties", 0)
    )
    metrics["trace.spans"] = len(tracer.start)
    return metrics


def _ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0
