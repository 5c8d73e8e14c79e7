"""In-memory spans around the benchmark's calls into scmlab.

A span records its name, start and end (``time.perf_counter``), the span
that was open when it started, and the run id shared by every span of one
benchmark process.  Spans carry optional numeric attributes (rows, trees,
coalition rows, ...) so that per-layer ratios are taken where the work
happens.  Nothing is written until :meth:`Tracer.write` is called at the end
of the run.  A disabled tracer hands out a shared no-op context manager, so
the untraced pass runs the same code at the cost of one attribute lookup per
call.
"""

from __future__ import annotations

import contextlib
import json
import time
from dataclasses import dataclass, field

_NULL = contextlib.nullcontext()


@dataclass
class Span:
    span_id: int
    parent_id: int | None
    name: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)
    child_s: float = 0.0       # summed duration of direct children

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


class Tracer:
    def __init__(self, run_id: str, enabled: bool):
        self.run_id = run_id
        self.enabled = enabled
        self.spans: list[Span] = []
        self._open: list[Span] = []

    def span(self, name: str, **attrs):
        """Context manager timing one call; yields the span (or None when
        tracing is off) so callers can attach attributes known afterwards."""
        if not self.enabled:
            return _NULL
        return self._record(name, attrs)

    def add(self, key: str, amount) -> None:
        """Add ``amount`` to attribute ``key`` of the innermost open span
        (no-op when tracing is off or no span is open)."""
        if self._open:
            attrs = self._open[-1].attrs
            attrs[key] = attrs.get(key, 0) + amount

    @contextlib.contextmanager
    def _record(self, name, attrs):
        parent = self._open[-1] if self._open else None
        s = Span(len(self.spans), parent.span_id if parent else None, name,
                 time.perf_counter(), attrs=attrs)
        self.spans.append(s)
        self._open.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._open.pop()
            if parent is not None:
                parent.child_s += s.duration

    def write(self, path) -> None:
        """Dump every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "run_id": self.run_id, "span_id": s.span_id,
                    "parent_id": s.parent_id, "name": s.name,
                    "start": s.start, "end": s.end, "self_s": s.self_s,
                    **({"attrs": s.attrs} if s.attrs else {})}) + "\n")
