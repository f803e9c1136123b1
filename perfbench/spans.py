"""Spans around the library's public layer functions, recorded from outside.

``Tracer.install`` replaces every module-level binding of the traced
functions inside the ``blockmotif`` package (the defining module's and each
importer's, e.g. ``blockmotif.experiments.count_copies``) with a wrapper
that records a span: layer, start, end, parent span and an optional count
derived from the call's arguments or result once the root span has closed,
so the parent's clock does not run while it is computed.  ``uninstall`` puts the
original functions back, so untraced calls run the library unchanged.

Spans stay in memory, in flat arrays, until ``save`` writes them when the
run ends.
"""

from __future__ import annotations

import importlib
import inspect
import math
import sys
import time
from array import array
from contextlib import contextmanager
from itertools import product

ROOT = "perfbench.call"

# (module, function) of every traced layer function
LAYERS = (
    ("patterns", "balancedness_profile"),
    ("patterns", "placements"),
    ("approximation", "lambda_params"),
    ("approximation", "tv_bound"),
    ("approximation", "cp_pmf"),
    ("model", "sample_graph"),
    ("model", "model_extrema"),
    ("counting", "count_copies"),
    ("experiments", "exact_count_pmf"),
    ("experiments", "monte_carlo_pmf"),
    ("experiments", "run_experiment"),
    ("serialize", "dumps_stable"),
    ("cli", "main"),
)
LAYER_NAMES = tuple(f"{module}.{fn}" for module, fn in LAYERS)


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _grid_size(spec, pattern, vertices, support) -> int:
    """Configurations of ``vertices`` labelled vertices: the sum over class
    assignments of the product of the per-slot support sizes."""
    total = 0
    for assign in product(range(spec.Q), repeat=vertices):
        laws = [
            spec.edge_laws[assign[i]][assign[j]]
            for i in range(vertices)
            for j in range(i + 1, vertices)
        ]
        if pattern.self_loops:
            laws += [spec.self_loop_laws[c] for c in assign]
        total += math.prod(support(law) for law in laws)
    return total


def _lambda_configs(spec, pattern, eps):
    """Configurations ``lambda_params`` walks, from its truncation caps."""
    from blockmotif import lambda_params, truncation_bound

    if eps is None:
        eps = inspect.signature(lambda_params).parameters["eps"].default
    if pattern.self_loops and spec.self_loop_laws is None:
        return 0
    return _grid_size(
        spec, pattern, pattern.vertex_count, lambda law: truncation_bound(law, eps) + 1
    )


def _exact_configs(spec, pattern):
    """Labelled graphs ``exact_count_pmf`` enumerates (categorical laws)."""
    return _grid_size(spec, pattern, spec.n, lambda law: len(law.probabilities))


# layer -> (metric, capture, derive, report the mean per call instead of the sum).
# ``capture(args, kwargs, result)`` runs inside the parent's span, so it only
# keeps references or reads attributes; ``derive`` turns what it kept into the
# count after the root span has closed.
COUNTERS = {
    "approximation.lambda_params": (
        "approximation.lambda_params.configs",
        lambda a, k, r: (_arg(a, k, 0, "spec"), _arg(a, k, 1, "pattern"), _arg(a, k, 2, "eps")),
        lambda kept: _lambda_configs(*kept),
        False,
    ),
    "approximation.cp_pmf": (
        "approximation.cp_pmf.kmax_sum",
        lambda a, k, r: _arg(a, k, 1, "kmax"),
        None,
        False,
    ),
    "model.sample_graph": (
        "model.host_edges_mean",
        lambda a, k, r: r,
        lambda graph: sum(graph.edge_counts.values()),
        True,
    ),
    "counting.count_copies": (
        "counting.subsets_scanned",
        lambda a, k, r: (_arg(a, k, 0, "graph").n, _arg(a, k, 1, "pattern").vertex_count),
        lambda kept: math.comb(*kept),
        False,
    ),
    "experiments.exact_count_pmf": (
        "experiments.exact_count_pmf.configs",
        lambda a, k, r: (_arg(a, k, 0, "spec"), _arg(a, k, 1, "pattern")),
        lambda kept: _exact_configs(*kept),
        False,
    ),
    "serialize.dumps_stable": (
        "serialize.report_bytes",
        lambda a, k, r: r,
        lambda text: len(text.encode()),
        False,
    ),
}


def call_metric_names() -> list[str]:
    """Names of the metrics ``Tracer.call_metrics`` returns, in order."""
    names = []
    for layer in LAYER_NAMES:
        names += [f"{layer}.calls", f"{layer}.s", f"{layer}.self_s"]
    return names + [metric for metric, _, _, _ in COUNTERS.values()] + ["trace.spans"]


class Tracer:
    """Records spans of the layer functions while installed."""

    def __init__(self):
        self.names = (ROOT,) + LAYER_NAMES
        self.layer = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.count = array("d")
        self._stack = [-1]
        # (span, captured value) of the spans whose count is derived later
        self._kept = []
        self._patches = []
        self._wrappers = {}
        for ix, (module, name) in enumerate(LAYERS, start=1):
            fn = getattr(importlib.import_module(f"blockmotif.{module}"), name)
            capture = COUNTERS.get(self.names[ix], (None, None))[1]
            self._wrappers[id(fn)] = (fn, self._wrap(ix, fn, capture))

    def _open(self, ix: int) -> int:
        i = len(self.layer)
        self.layer.append(ix)
        self.parent.append(self._stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self.count.append(math.nan)
        self._stack.append(i)
        return i

    def _wrap(self, ix, fn, capture):
        open_span, stack, start, end, kept = (
            self._open, self._stack, self.start, self.end, self._kept
        )
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = open_span(ix)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[i], end[i] = t0, t1
            if capture is not None:
                kept.append((i, capture(args, kwargs, result)))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for modname, module in list(sys.modules.items()):
            if modname != "blockmotif" and not modname.startswith("blockmotif."):
                continue
            for attr, value in list(vars(module).items()):
                hit = self._wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patches.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()

    @contextmanager
    def root(self):
        """A root span around one experiment call; yields its span index."""
        i = self._open(0)
        t0 = time.perf_counter()
        try:
            yield i
        finally:
            self.end[i] = time.perf_counter()
            self.start[i] = t0
            self._stack.pop()
            self._derive_counts()

    def _derive_counts(self) -> None:
        """Turn the values captured during the call into span counts."""
        for i, value in self._kept:
            derive = COUNTERS[self.names[self.layer[i]]][2]
            self.count[i] = derive(value) if derive else value
        self._kept.clear()

    def call_metrics(self, first: int, last: int) -> dict:
        """Per-layer metrics of the call whose spans are ``first..last-1``.

        A span's self time is its duration minus its child spans' durations
        (calls are sequential, so children never overlap).
        """
        child = [0.0] * (last - first)
        for i in range(first + 1, last):
            child[self.parent[i] - first] += self.end[i] - self.start[i]
        calls = dict.fromkeys(LAYER_NAMES, 0)
        total = dict.fromkeys(LAYER_NAMES, 0.0)
        own = dict.fromkeys(LAYER_NAMES, 0.0)
        counted = dict.fromkeys(LAYER_NAMES, 0.0)
        for i in range(first + 1, last):
            name = self.names[self.layer[i]]
            dur = self.end[i] - self.start[i]
            calls[name] += 1
            total[name] += dur
            own[name] += dur - child[i - first]
            if not math.isnan(self.count[i]):
                counted[name] += self.count[i]
        out = {}
        for name in LAYER_NAMES:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.s"] = total[name]
            out[f"{name}.self_s"] = own[name]
        for name, (metric, _, _, mean) in COUNTERS.items():
            out[metric] = counted[name] / max(calls[name], 1) if mean else counted[name]
        out["trace.spans"] = last - first - 1
        return out

    def save(self, path: str, calls: list) -> None:
        """Write every span, plus the ``[first, last)`` span range of each call."""
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            layer=np.frombuffer(self.layer, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            count=np.frombuffer(self.count, dtype=np.float64),
            calls=np.array(calls, dtype=np.int64).reshape(-1, 2),
        )
