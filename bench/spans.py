"""In-memory spans around the program's public functions, and their summary.

The tracer replaces each function on the module that calls it (mostly
``taxcascade.cli``, which imported them by name) with a wrapper that records
a span: name, start, end and the index of the enclosing span.  Spans stay in
memory and are written out by :meth:`Tracer.write` when the run ends.  A
span's self time is its duration minus the time its direct children cover.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
import tracemalloc
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    """Records spans while not ``paused``; a paused wrapper only calls through."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.paused = False
        self._stack: list[int] = []

    def wrap(self, name: str, fn, measure=None):
        """``measure(args, kwargs, result)`` returns span attributes; a value
        that is callable is evaluated by :meth:`settle`, outside every span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            index = len(self.spans)
            span = {"name": name, "parent": self._stack[-1] if self._stack else None, "attrs": {}}
            self.spans.append(span)
            self._stack.append(index)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if measure is not None:
                span["attrs"] = measure(args, kwargs, result)
            return result

        return traced

    def settle(self) -> None:
        """Evaluate deferred attributes (file sizes, row counts)."""
        for span in self.spans:
            for key, value in span["attrs"].items():
                if callable(value):
                    span["attrs"][key] = value()

    def _selected(self, name: str):
        for i, s in enumerate(self.spans):
            if s["name"] == name:
                yield i, s

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for _, s in self._selected(name)]

    def self_times(self, name: str) -> list[float]:
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                covered[s["parent"]] += s["end"] - s["start"]
        return [s["end"] - s["start"] - covered[i] for i, s in self._selected(name)]

    def child_totals(self, parent: str, names: set[str]) -> list[float]:
        """Per ``parent`` span, the summed duration of its children in ``names``."""
        totals = {i: 0.0 for i, _ in self._selected(parent)}
        for s in self.spans:
            if s["name"] in names and s["parent"] in totals:
                totals[s["parent"]] += s["end"] - s["start"]
        return list(totals.values())

    def attrs(self, name: str, key: str) -> list:
        return [s["attrs"][key] for _, s in self._selected(name) if key in s["attrs"]]

    def write(self, path: Path) -> None:
        path.write_text(json.dumps(self.spans) + "\n", encoding="utf-8")


@contextmanager
def patched(targets: list[tuple[object, str, object]]):
    """Set ``module.attr = value`` for each target; restore on exit."""
    saved = [(module, attr, getattr(module, attr)) for module, attr, _ in targets]
    try:
        for module, attr, value in targets:
            setattr(module, attr, value)
        yield
    finally:
        for module, attr, value in reversed(saved):
            setattr(module, attr, value)


class PeakProbe:
    """tracemalloc peak of one inner function without losing the outer peak.

    ``tracemalloc.reset_peak`` is global, so the probe folds the outer peak
    seen before each reset into ``outer`` and the caller takes the maximum.
    """

    def __init__(self) -> None:
        self.outer = 0
        self.inner: list[int] = []

    def wrap(self, fn):
        @functools.wraps(fn)
        def probed(*args, **kwargs):
            current, peak = tracemalloc.get_traced_memory()
            self.outer = max(self.outer, peak)
            tracemalloc.reset_peak()
            try:
                return fn(*args, **kwargs)
            finally:
                _, inner = tracemalloc.get_traced_memory()
                self.outer = max(self.outer, inner)
                self.inner.append(inner - current)

        return probed


def median_or_zero(values) -> float:
    """Median of the samples; 0 when the workload never calls the function."""
    values = list(values)
    return float(statistics.median(values)) if values else 0.0
