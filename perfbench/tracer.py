"""Out-of-program tracing: wrap named functions of the package, record spans.

A traced name is ``<module>.<attr>`` inside the package, where ``attr`` may
be dotted to reach a method (``estimator.RiccatiSensitivityEstimator.fit``).
Modules bind names with ``from .nullspace import reduced_hessian_gamma``, so
a plain function is rebound in *every* loaded module of the package that
holds the same object, under whatever name it holds it. A method is rebound
on its class. A name that does not resolve is skipped and reports zero calls,
so a refactor that removes it degrades the trace instead of breaking it.

Spans live in memory as ``[op, name, parent, start, end]`` lists and are
turned into per-op statistics (or written out) only after timing ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class Layer:
    """One traced name: metric prefix, module, attribute path, result counter."""

    metric: str
    module: str
    attr: str
    counter: str | None = None


def self_times(spans) -> list:
    """Per-span self time: duration minus the union of its children's intervals.

    ``spans`` is a list of ``(parent_index_or_None, start, end)``. Children are
    clipped to their parent's interval and merged before subtraction, so
    overlapping or out-of-bounds children are never counted twice.
    """
    children: dict = {}
    for idx, (parent, _, _) in enumerate(spans):
        if parent is not None:
            children.setdefault(parent, []).append(idx)
    out = []
    for idx, (_, start, end) in enumerate(spans):
        covered = 0.0
        cur_start = cur_end = None
        intervals = sorted(
            (max(spans[c][1], start), min(spans[c][2], end)) for c in children.get(idx, ())
        )
        for lo, hi in intervals:
            if hi <= lo:
                continue
            if cur_end is None or lo > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = lo, hi
            else:
                cur_end = max(cur_end, hi)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append((end - start) - covered)
    return out


class Tracer:
    """Installs span-recording wrappers and aggregates the spans per op."""

    def __init__(self, package: str, layers):
        self.package = package
        self.layers = tuple(layers)
        self.spans: list = []
        self.counters: list = []
        self.op = None  # index of the op being traced; None records nothing
        self._stack: list = []
        self._restore: list = []
        self.missing: list = []

    def _wrap(self, layer: Layer, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            span = [tracer.op, layer.metric, tracer._stack[-1] if tracer._stack else None, 0.0, 0.0]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                tracer._stack.pop()
            if layer.counter is not None:
                tracer.counters.append(
                    (tracer.op, f"{layer.metric}.{layer.counter}", getattr(result, layer.counter)))
            return result

        return traced

    def _resolve(self, layer: Layer):
        try:
            owner = importlib.import_module(f"{self.package}.{layer.module}")
        except ImportError:
            return None
        *path, leaf = layer.attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
            if owner is None:
                return None
        fn = getattr(owner, leaf, None)
        return None if fn is None else (owner, leaf, fn)

    def install(self) -> "Tracer":
        for layer in self.layers:
            found = self._resolve(layer)
            if found is None:
                self.missing.append(layer.metric)
                continue
            owner, leaf, fn = found
            wrapper = self._wrap(layer, fn)
            if "." in layer.attr:
                self._rebind(owner, leaf, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or mod_name.partition(".")[0] != self.package:
                    continue
                for name, value in list(vars(mod).items()):
                    if value is fn:
                        self._rebind(mod, name, wrapper)
        return self

    def _rebind(self, owner, name, wrapper):
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def per_op(self) -> dict:
        """``{op: {metric: value}}`` with ``.calls`` and ``.self_s`` per layer."""
        selfs = self_times([(s[2], s[3], s[4]) for s in self.spans])
        stats: dict = {}
        for span, self_s in zip(self.spans, selfs):
            row = stats.setdefault(span[0], {})
            row[f"{span[1]}.calls"] = row.get(f"{span[1]}.calls", 0) + 1
            row[f"{span[1]}.self_s"] = row.get(f"{span[1]}.self_s", 0.0) + self_s
        for op, name, value in self.counters:
            row = stats.setdefault(op, {})
            row[name] = row.get(name, 0) + value
        return stats

    def medians(self, ops) -> dict:
        """Median over ``ops`` of every layer metric; absent layers read 0."""
        stats = self.per_op()
        names = [f"{layer.metric}.{kind}" for layer in self.layers for kind in ("calls", "self_s")]
        names += [f"{layer.metric}.{layer.counter}" for layer in self.layers if layer.counter]
        return {
            name: statistics.median(stats.get(op, {}).get(name, 0) for op in ops)
            for name in names
        }

    def write(self, path) -> None:
        """One JSON list ``[op, name, parent, start, end]`` per line."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
