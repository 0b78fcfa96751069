"""Spans recorded by the benchmark around its calls into mpvkit's layers.

A span has a name (``<layer>.<call>``), start and end on the
``perf_counter`` clock, the index of the span that was open when it
began, the op it belongs to, and a dict of counts (states, bytes, ...).
Spans stay in memory and are written out once, when the run ends.

The untraced run uses :data:`NULL`, whose spans record nothing, so both
runs execute the same op code.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict


class _Span:
    __slots__ = ("name", "start", "end", "parent", "op", "counts")

    def __init__(self, name, parent, op):
        self.name = name
        self.parent = parent
        self.op = op
        self.counts = {}
        self.start = self.end = 0.0


class _Open:
    """Context manager that closes one span of a :class:`Tracer`."""

    __slots__ = ("tracer", "span", "index")

    def __init__(self, tracer, span, index):
        self.tracer = tracer
        self.span = span
        self.index = index

    def __enter__(self):
        self.tracer._stack.append(self.index)
        self.span.start = time.perf_counter()
        return self.span

    def __exit__(self, *exc):
        self.span.end = time.perf_counter()
        self.tracer._stack.pop()
        return False


class Tracer:
    """In-memory span recorder for one benchmark process."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.op = None

    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        record = _Span(name, parent, self.op)
        self.spans.append(record)
        return _Open(self, record, len(self.spans) - 1)

    def add(self, name, seconds, counts=None):
        """Record a finished child span of the open span, ``seconds`` long.

        Used for time a layer reports about itself, such as the winning
        solver's ``time_ms`` inside a ``solve_auto`` call.
        """
        parent = self._stack[-1] if self._stack else None
        record = _Span(name, parent, self.op)
        record.end = time.perf_counter()
        record.start = record.end - seconds
        record.counts = dict(counts or {})
        self.spans.append(record)

    def self_times(self):
        """Per span name: list of (self seconds, counts) pairs.

        A span's self time is its duration minus the durations of the
        spans opened directly inside it.
        """
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        out = defaultdict(list)
        for i, s in enumerate(self.spans):
            out[s.name].append((s.end - s.start - child[i], s.counts))
        return out

    def write(self, path):
        with open(path, "w") as handle:
            for s in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "name": s.name,
                            "start": s.start,
                            "end": s.end,
                            "parent": s.parent,
                            "op": s.op,
                            "counts": s.counts,
                        }
                    )
                    + "\n"
                )


class _NullSpan:
    __slots__ = ("counts",)

    def __init__(self):
        self.counts = {}

    def __enter__(self):
        self.counts = {}
        return self

    def __exit__(self, *exc):
        return False


class _NullTracer:
    op = None

    def __init__(self):
        self._span = _NullSpan()

    def span(self, name):
        return self._span

    def add(self, name, seconds, counts=None):
        pass


NULL = _NullTracer()
