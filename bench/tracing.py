"""In-memory call spans around module attributes, and self-time arithmetic.

A Tracer replaces chosen module or class attributes with wrappers that
record one span per call: name, start, end, parent span and, optionally,
a few facts read off the call's arguments and result. Spans stay in memory
until the caller writes them out; `remove` restores every original.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    trace: str = ""  # the top-level operation the span belongs to
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_time(span: Span, spans) -> float:
    """A span's duration minus the durations of its direct children.

    Calls in one thread nest, so a span's children never overlap each other
    and all lie inside it.
    """
    return span.duration - sum(c.duration for c in spans if c.parent == span.span_id)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._originals: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(
            span_id=len(self.spans),
            name=name,
            start=self.clock(),
            parent=parent.span_id if parent else None,
            trace=parent.trace if parent else name,
        )
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span):
        span.end = self.clock()
        self._stack.pop()

    def run(self, name: str, func, *args, **kwargs):
        """Call func inside a span of its own."""
        span = self._open(name)
        try:
            return func(*args, **kwargs)
        finally:
            self._close(span)

    def wrap(self, owner, attr: str, name: str, observe=None):
        """Record a span for every call of owner.attr until `remove`.

        `observe(result, args, kwargs)` may return a dict stored on the span.
        """
        original = owner.__dict__[attr]
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(span)
            if observe is not None:
                span.attrs.update(observe(result, args, kwargs) or {})
            return result

        setattr(owner, attr, wrapper)
        self._originals.append((owner, attr, original))

    def remove(self):
        """Restore every wrapped attribute, last wrapped first."""
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def by_name(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def to_records(self) -> list[dict]:
        return [
            {
                "id": s.span_id, "name": s.name, "trace": s.trace, "parent": s.parent,
                "start": s.start, "end": s.end, "attrs": s.attrs,
            }
            for s in self.spans
        ]
