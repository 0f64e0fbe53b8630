"""Outside-in layer tracing for the refractory package.

``install`` wraps every public function of the package modules (the layers)
at every name it is bound to: the defining module, the package namespace and
each module that imported it with ``from ... import``. Callers keep looking
names up where they always did and land in a wrapper, so a call is seen
whichever binding it goes through. Nothing under ``src/`` changes.

A wrapper opens a span named ``<layer>.<function>`` (the fit entry points and
CLI stages get a name per method or stage), records which binding was
entered, and adds exact work counts computed from the arguments and result.
Spans nest on one stack because the pipeline is single-threaded, so a span's
self time is its duration minus the time of the spans it directly encloses.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import os
import time
from collections import Counter, defaultdict

LAYERS = (
    "cli",
    "synth",
    "events",
    "cohort",
    "featurize",
    "linalg",
    "reduce",
    "cluster",
    "classify",
    "tree",
    "metrics",
)


def _count_nodes(root) -> int:
    stack, n = [root], 0
    while stack:
        node = stack.pop()
        n += 1
        if node.left is not None:
            stack.append(node.left)
        if node.right is not None:
            stack.append(node.right)
    return n


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# Span name suffix for the entry points that dispatch on a method.
_DISPATCH = {
    "classify.fit_classifier": ("classify.fit", lambda a, kw: _arg(a, kw, 0, "spec").method),
    "cluster.fit_clusters": ("cluster.fit", lambda a, kw: _arg(a, kw, 0, "config").method),
    "reduce.fit_reducer": ("reduce.fit", lambda a, kw: _arg(a, kw, 0, "method")),
}


# Exact work counts, from (args, kwargs, result), keyed by function.
_COUNTS = {
    "tree.fit_tree": lambda a, kw, r: {"tree.nodes": _count_nodes(r)},
    "classify.gbdt_fit": lambda a, kw, r: {"classify.gbdt_stages": len(r.stages)},
    "synth.generate_events": lambda a, kw, r: {"synth.events_generated": len(r)},
    "events.read_events": lambda a, kw, r: {"events.rows_read": len(r)},
    "events.write_events": lambda a, kw, r: {
        "events.csv_bytes": os.path.getsize(_arg(a, kw, 1, "path"))
    },
    "featurize.featurize": lambda a, kw, r: {"featurize.cells": int(r.values.size)},
    "cluster.fit_clusters": lambda a, kw, r: {
        f"cluster.iterations.{_arg(a, kw, 0, 'config').method}": len(r.trace)
    },
    "linalg.symmetric_eig": lambda a, kw, r: {"linalg.eig_n3": len(r[0]) ** 3},
    "linalg.pairwise_sq_dists": lambda a, kw, r: {"linalg.sq_dist_pairs": r.size},
}


def span_name(function: str, args=(), kwargs=None) -> str:
    """The span a call of ``<layer>.<function>`` is recorded under."""
    if function in _DISPATCH:
        prefix, method = _DISPATCH[function]
        return f"{prefix}.{method(args, kwargs or {})}"
    layer, _, name = function.partition(".")
    if layer == "cli" and name.startswith("cmd_"):
        return "cli." + name[4:].replace("_", "-")
    return function


class Recorder:
    """Spans and counters of one process, kept in memory until it exits."""

    def __init__(self):
        self.origin = time.perf_counter()
        self._ids = itertools.count()
        self.spans: list[tuple[int, int, str, float, float]] = []
        self._stack: list[list] = []  # [span id, name, start, child seconds]
        self._open = Counter()  # open spans per name, so recursion counts once
        self.busy = defaultdict(float)  # inclusive time per span name
        self.self_time = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.entered: set[str] = set()
        self.bindings: list[str] = []
        self.bookkeeping_s = 0.0

    def open(self, name: str) -> list:
        frame = [next(self._ids), name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        self._open[name] += 1
        return frame

    def close(self, frame: list) -> None:
        end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span {frame[1]} closed out of order")
        span_id, name, start, child = frame
        duration = end - start
        self._open[name] -= 1
        if not self._open[name]:
            self.busy[name] += duration
        self.self_time[name] += duration - child
        self.calls[name] += 1
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        self.spans.append(
            (span_id, -1 if parent is None else parent[0], name, start - self.origin, end - self.origin)
        )

    def add_counts(self, count, args, kwargs, result) -> None:
        start = time.perf_counter()
        for key, value in count(args, kwargs, result).items():
            self.counts[key] += int(value)
        spent = time.perf_counter() - start
        # Counting is benchmark work: keep it out of the enclosing span's self time.
        self.bookkeeping_s += spent
        if self._stack:
            self._stack[-1][3] += spent

    def summary(self, wall_s: float) -> dict:
        top = sum(end - start for _, parent, _, start, end in self.spans if parent == -1)
        return {
            "wall_s": wall_s,
            "outside_s": wall_s - top,
            "bookkeeping_s": self.bookkeeping_s,
            "busy": dict(self.busy),
            "self": dict(self.self_time),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "entered": sorted(self.entered),
            "bindings": sorted(self.bindings),
        }


def _wrap(recorder: Recorder, fn, function: str, binding: str):
    count = _COUNTS.get(function)
    fixed = None if function in _DISPATCH else span_name(function)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        recorder.entered.add(binding)
        frame = recorder.open(fixed or span_name(function, args, kwargs))
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.close(frame)
        if count is not None:
            recorder.add_counts(count, args, kwargs, result)
        return result

    return wrapper


def layer_functions() -> list[tuple[str, object]]:
    """(``<layer>.<name>``, function) for every public function a layer defines."""
    found = []
    for layer in LAYERS:
        module = importlib.import_module(f"refractory.{layer}")
        for name, value in vars(module).items():
            if (
                not name.startswith("_")
                and inspect.isfunction(value)
                and value.__module__ == module.__name__
            ):
                found.append((f"{layer}.{name}", value))
    return found


def install(recorder: Recorder) -> None:
    """Replace every binding of every layer function with a traced wrapper.

    ``refractory.featurize`` on the package is the featurize function, not
    the module, so modules are always fetched with importlib.
    """
    functions = layer_functions()
    holders = {"refractory": importlib.import_module("refractory")}
    holders.update({layer: importlib.import_module(f"refractory.{layer}") for layer in LAYERS})
    for function, fn in functions:
        for holder_name, holder in holders.items():
            for attr, value in list(vars(holder).items()):
                if value is fn:
                    binding = f"{holder_name}.{attr}"
                    setattr(holder, attr, _wrap(recorder, fn, function, binding))
                    recorder.bindings.append(binding)
