"""In-memory span recorder for the traced run.

The benchmark wraps each public call it makes into a program layer in a
span: name, start, end, parent and one run id shared by every span of
the run.  Spans stay in memory and are written out once, when the run
ends.  A span's self time is its duration minus the part of its
interval that its child spans cover; children that overlap (shards on
a thread pool) are merged before subtracting.
"""

from __future__ import annotations

import json
import threading
import time
import uuid
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path


@dataclass
class Span:
    name: str
    span_id: int
    parent_id: int | None
    run_id: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered(intervals: list[tuple[float, float]]) -> float:
    """Total length of the union of ``intervals``."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


class SpanRecorder:
    """Collects spans; each thread nests under its own current span.

    A worker thread names its parent explicitly (``parent=``), since the
    span that caused its work was opened on another thread.
    """

    def __init__(self) -> None:
        self.run_id = uuid.uuid4().hex[:16]
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._next_id = 0

    @contextmanager
    def span(self, name: str, parent: Span | None = None, **attrs):
        stack = self._local.__dict__.setdefault("stack", [])
        if parent is None and stack:
            parent = stack[-1]
        with self._lock:
            self._next_id += 1
            span = Span(
                name=name,
                span_id=self._next_id,
                parent_id=parent.span_id if parent is not None else None,
                run_id=self.run_id,
                start=time.perf_counter(),
                attrs=dict(attrs),
            )
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(span)

    def children(self, span: Span) -> list[Span]:
        return [s for s in self.spans if s.parent_id == span.span_id]

    def self_time(self, span: Span) -> float:
        return span.duration - covered(
            [(c.start, c.end) for c in self.children(span)]
        )

    def coverage(self, root: Span) -> float:
        """Share of ``root``'s wall time its layer spans cover.

        The layer spans are the root's descendants; their self times sum
        to the part of the root's interval they cover.
        """
        if root.duration <= 0:
            return 1.0
        return 1.0 - self.self_time(root) / root.duration

    def write(self, path: Path) -> None:
        with self._lock:
            spans = sorted(self.spans, key=lambda s: s.start)
        rows = [
            {**asdict(s), "self": self.self_time(s)} for s in spans
        ]
        path.write_text(json.dumps({"run_id": self.run_id, "spans": rows}))
