"""Spans around the benchmark's own calls into selcalc.

A span has a name, start, end, parent span and item id.  Spans are kept in
memory and aggregated (or written out) when the run ends.  A layer's self
time is its span's duration minus the durations of its child spans; spans
nest strictly because the benchmark is single-threaded.

``NullTracer`` has the same interface and does no bookkeeping, so the
untraced run executes the same workload code with only one extra Python
call per library call.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import dataclass


class NullTracer:
    """The tracer of the untraced run: calls straight through."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name, compute):
        pass

    def item(self, name, item_id):
        return _NULL_SPAN


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    item: str


class Tracer:
    """Records one span per call and sums named counts."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.count_n: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._item = "setup"
        self._pending: list = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self._item))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        idx = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def count(self, name, compute):
        """Add ``compute()`` to a named count.  Inside an item the count is
        taken after the item's span has closed, so counting is not timed."""
        if self._stack:
            self._pending.append((name, compute))
        else:
            self._add(name, compute())

    def _add(self, name, value):
        self.counts[name] += value
        self.count_n[name] += 1

    def item(self, name, item_id):
        return _ItemSpan(self, name, item_id)

    def self_times(self) -> dict[str, tuple[float, int]]:
        """Span name -> (total self seconds, number of spans)."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.end - s.start
        out: dict[str, list] = defaultdict(lambda: [0.0, 0])
        for s, c in zip(self.spans, child):
            acc = out[s.name]
            acc[0] += (s.end - s.start) - c
            acc[1] += 1
        return {k: (v[0], v[1]) for k, v in out.items()}

    def mean_count(self, name) -> float:
        n = self.count_n.get(name, 0)
        return self.counts[name] / n if n else 0.0

    def to_json(self) -> list[dict]:
        return [{"name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "item": s.item} for s in self.spans]


class _ItemSpan:
    def __init__(self, tracer: Tracer, name: str, item_id: str):
        self.tracer = tracer
        self.name = name
        self.item_id = item_id

    def __enter__(self):
        self.prev = self.tracer._item
        self.tracer._item = self.item_id
        self.idx = self.tracer._open(self.name)
        return self

    def __exit__(self, *exc):
        tr = self.tracer
        tr._close(self.idx)
        tr._item = self.prev
        if not tr._stack:
            pending, tr._pending = tr._pending, []
            for name, compute in pending:
                tr._add(name, compute())
        return False
