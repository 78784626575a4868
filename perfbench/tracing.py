"""In-memory span tracer that times a program from outside it.

The tracer replaces module attributes (functions and methods) with wrappers
that record a span per call: name, start, end, parent span and op id. Spans
stay in memory until the run ends. A layer's self time is its span's
duration minus the durations of its child spans, so the self times of all
spans add up to the wall time of the root spans.

Wrappers are installed only for a traced run and removed afterwards; while
``enabled`` is false they pass calls straight through and record nothing.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int   # index into Tracer.spans, -1 for a root span
    op: int       # op id, -1 outside any op


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.enabled = False
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _open(self, name: str) -> Span:
        span = Span(name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, self.op)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span):
        span.end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def region(self, name: str):
        """Span around a block of the benchmark's own code."""
        if not self.enabled:
            yield
            return
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    def patch(self, owner, attr: str, name: str, observe=None):
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``observe(counts, result, args)`` runs after each successful traced
        call, to count work at the layer boundary.
        """
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.counts[name + ".errors"] += 1
                raise
            finally:
                self._close(span)
            if observe is not None:
                observe(self.counts, result, args)
            return result

        self._install(owner, attr, fn, traced)

    def count(self, owner, attr: str, key: str):
        """Replace ``owner.attr`` with a wrapper that only counts calls."""
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self.enabled:
                self.counts[key] += 1
            return fn(*args, **kwargs)

        self._install(owner, attr, fn, counted)

    def _install(self, owner, attr, original, wrapper):
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self):
        """Put every patched attribute back, last patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def layer_times(self) -> dict:
        """name -> (calls, total seconds, self seconds) over all spans."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        out: dict = {}
        for s, c in zip(self.spans, child):
            calls, total, self_s = out.get(s.name, (0, 0.0, 0.0))
            d = s.end - s.start
            out[s.name] = (calls + 1, total + d, self_s + d - c)
        return out

    def root_seconds(self) -> float:
        return sum(s.end - s.start for s in self.spans if s.parent < 0)

    def write(self, path):
        """Write the spans as JSON lines, times relative to the first span."""
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w") as f:
            for s in self.spans:
                f.write(
                    json.dumps(
                        {"name": s.name, "start": s.start - t0, "end": s.end - t0,
                         "parent": s.parent, "op": s.op}
                    )
                    + "\n"
                )
