"""In-memory spans recorded from outside the program.

The traced run wraps public callables *on instances the harness built*
(``engine.score_shard = recorder.wrap("engine.score", engine.score_shard)``):
an instance attribute shadows the class's method for that object only,
so nothing under ``src/`` is patched.  Spans stay in a list until the
run ends, then go out as Chrome-trace JSON (``chrome://tracing``,
Perfetto).
"""

from __future__ import annotations

import functools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence


@dataclass
class Span:
    name: str
    start: float
    end: float
    #: index of the span this one ran inside, or ``None`` at the top
    parent: Optional[int]
    #: the step or job the span belongs to (spans of one operation share it)
    op: str
    thread: int


class SpanRecorder:
    """Collects spans; one open-span stack and current operation per thread."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def set_op(self, op: str) -> None:
        """Name the operation that spans opened by this thread belong to."""
        self._local.op = op

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
        span = Span(
            name=name,
            start=0.0,
            end=0.0,
            parent=stack[-1] if stack else None,
            op=getattr(local, "op", ""),
            thread=threading.get_ident(),
        )
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        span.start = time.perf_counter()
        try:
            yield
        finally:
            span.end = time.perf_counter()
            stack.pop()

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` with every call recorded as a span called ``name``."""

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def install(self, owner: Any, attribute: str, name: str) -> None:
        """Shadow ``owner.attribute`` with its traced version, on the instance."""
        setattr(owner, attribute, self.wrap(name, getattr(owner, attribute)))


def durations(spans: Sequence[Span], name: str) -> List[float]:
    """Seconds of every span called ``name``."""
    return [span.end - span.start for span in spans if span.name == name]


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part its direct children cover.

    Children are merged as intervals first, so two children that overlap
    (spans from different threads under one parent) are not subtracted
    twice, and a child that outlives its parent only counts up to the
    parent's end.
    """
    children: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(index, ()), key=lambda c: c.start):
            low = max(child.start, reach)
            high = min(child.end, span.end)
            if high > low:
                covered += high - low
                reach = high
        result.append((span.end - span.start) - covered)
    return result


def chrome_trace(spans: Sequence[Span]) -> Dict[str, Any]:
    """The spans as a Chrome-trace document (complete events, microseconds)."""
    origin = min((span.start for span in spans), default=0.0)
    return {
        "displayTimeUnit": "ms",
        "traceEvents": [
            {
                "name": span.name,
                "ph": "X",
                "ts": (span.start - origin) * 1e6,
                "dur": (span.end - span.start) * 1e6,
                "pid": 1,
                "tid": span.thread,
                "args": {"id": index, "parent": span.parent, "op": span.op},
            }
            for index, span in enumerate(spans)
        ],
    }


def write_chrome_trace(spans: Sequence[Span], path: Any) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(chrome_trace(spans), handle)
