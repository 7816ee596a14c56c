"""Spans around the benchmark's calls into the package.

A traced run wraps every call the benchmark makes into a public function
of the package in a span named ``<module>.<function>[.<variant>]``. Spans
are kept in memory as (name, start, end, parent, op) tuples and reduced
when the run ends. Calls the package makes internally are not wrapped, so
a layer's self time is the time spent below the benchmark's own call.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

GLUE = "bench.glue"


class NullTracer:
    """Untraced runs: calls go straight through."""

    enabled = False

    def call(self, name, fn, *args, counts=None, **kwargs):
        return fn(*args, **kwargs)

    @contextmanager
    def span(self, name, op=None):
        yield


class Tracer:
    enabled = True

    def __init__(self):
        self.spans: list = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._op = None

    @contextmanager
    def span(self, name, op=None):
        if op is not None:
            self._op = op
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self._op)
            if op is not None:
                self._op = None

    def call(self, name, fn, *args, counts=None, **kwargs):
        with self.span(name):
            result = fn(*args, **kwargs)
        self.counts[name + ".calls"] += 1
        if counts is not None:
            with self.span(GLUE):
                for key, value in counts(result).items():
                    self.add(f"{name}.{key}", value)
        return result

    def add(self, key: str, value: float) -> None:
        """Accumulate a count; keys ending in ``_max`` keep the maximum."""
        if key.endswith("_max"):
            self.counts[key] = max(self.counts[key], value)
        else:
            self.counts[key] += value

    def summary(self) -> dict:
        """Self time per span name, and how the operations' time divides.

        ``op_s`` is the total duration of the root ``op`` spans; ``layers_s``
        and ``glue_s`` are the self times of the package spans and of the
        benchmark's glue spans inside them.
        """
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        acc = defaultdict(float)
        for idx, (name, start, end, parent, op) in enumerate(self.spans):
            own = end - start - child_time[idx]
            self_s[name] += own
            if op is None:
                continue
            if parent is None:
                acc["op_s"] += end - start
            else:
                acc["glue_s" if name == GLUE else "layers_s"] += own
        return {"self_s": dict(self_s), **{k: acc[k] for k in ("op_s", "layers_s", "glue_s")}}
