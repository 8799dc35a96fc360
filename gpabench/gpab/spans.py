"""In-memory span recorder.

A span is one call across a layer boundary: its name, start, end, the span
that caused it and the request it belongs to.  Spans are kept in memory
while the workload runs and written out once, at the end.

Layers called many thousands of times per request (warp trace generation,
memory accesses) are recorded as *rollups* instead: one record per
(parent span, name) holding the call count and the busy time, so tracing
them keeps memory flat.  A span's self time is its duration minus the time
its child spans and child rollups cover.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    parent: Optional[int]
    request: Optional[int]
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Rollup:
    name: str
    parent: Optional[int]
    calls: int = 0
    busy: float = 0.0


@dataclass
class LayerTotals:
    """What one layer's spans add up to."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class SpanRecorder:
    """Collects spans from any number of threads."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self.rollups: Dict[Tuple[Optional[int], str], Rollup] = {}
        self.counters: Dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0

    # ------------------------------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, request: Optional[int] = None) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        if request is None and parent is not None:
            request = parent.request
        span = Span(
            span_id, name, self.clock(),
            parent.span_id if parent is not None else None,
            request if request is not None else span_id,
        )
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        with self._lock:
            self.spans.append(span)

    def add_rollup(self, name: str, busy: float) -> None:
        """Account one call of a hot layer to the innermost open span."""
        stack = self._stack()
        parent = stack[-1].span_id if stack else None
        key = (parent, name)
        with self._lock:
            rollup = self.rollups.get(key)
            if rollup is None:
                rollup = self.rollups[key] = Rollup(name, parent)
            rollup.calls += 1
            rollup.busy += busy

    def active(self) -> bool:
        """False inside :meth:`paused` on the calling thread."""
        return not getattr(self._local, "paused", False)

    @contextmanager
    def paused(self):
        """Calls made by the benchmark itself (output checks) on this
        thread are not recorded."""
        self._local.paused = True
        try:
            yield
        finally:
            self._local.paused = False

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counters[name] += amount

    # ------------------------------------------------------------------
    def layer_totals(self) -> Dict[str, LayerTotals]:
        """Calls, total and self time per span/rollup name."""
        covered: Dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.duration
        for rollup in self.rollups.values():
            if rollup.parent is not None:
                covered[rollup.parent] += rollup.busy
        totals: Dict[str, LayerTotals] = defaultdict(LayerTotals)
        for span in self.spans:
            entry = totals[span.name]
            entry.calls += 1
            entry.total_s += span.duration
            entry.self_s += span.duration - covered.get(span.span_id, 0.0)
        for rollup in self.rollups.values():
            entry = totals[rollup.name]
            entry.calls += rollup.calls
            entry.total_s += rollup.busy
            entry.self_s += rollup.busy
        return dict(totals)

    def write(self, path) -> None:
        """One JSON line per span and rollup."""
        with open(path, "w") as stream:
            for span in sorted(self.spans, key=lambda item: item.start):
                stream.write(json.dumps({
                    "id": span.span_id, "name": span.name, "start": span.start,
                    "end": span.end, "parent": span.parent,
                    "request": span.request,
                }) + "\n")
            for rollup in self.rollups.values():
                stream.write(json.dumps({
                    "rollup": rollup.name, "parent": rollup.parent,
                    "calls": rollup.calls, "busy": rollup.busy,
                }) + "\n")
