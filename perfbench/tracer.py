"""In-memory span tracer that wraps public functions from outside the program.

`Tracer.wrap(module, attr)` replaces a module attribute with a wrapper that
records one span per call: name, start, end, parent span, thread, and an
optional item count taken from the result.  Callers inside the module reach
the wrapper too, because Python resolves module globals at call time.
Leaving the `with` block restores every original attribute.

Parents follow the calling thread's stack.  A span opened on a thread whose
stack is empty (a worker of a pool started inside a traced call) takes the
innermost open span of the thread that created the tracer as its parent.
That is exact as long as the owner thread runs one traced call at a time and
waits for its pool, which is how cyclobox's reports run their chunks.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    thread: int
    items: Optional[int] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _clipped(intervals, lo: float, hi: float):
    return [(max(s, lo), min(e, hi)) for s, e in intervals]


def self_times(spans: list) -> list:
    """Each span's duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return [
        span.duration - union_length(_clipped(children[i], span.start, span.end))
        for i, span in enumerate(spans)
    ]


def uncovered(spans: list, start: float, end: float) -> float:
    """Part of the window [start, end] that no root span covers."""
    roots = [(s.start, s.end) for s in spans if s.parent is None]
    return (end - start) - union_length(_clipped(roots, start, end))


class Tracer:
    """Records spans for wrapped functions until the `with` block exits."""

    def __init__(self):
        self.spans: list = []
        self._lock = threading.Lock()
        self._stacks: dict = {}
        self._owner = threading.get_ident()
        self._originals: list = []

    def wrap(self, module, attr: str, items: Optional[Callable] = None) -> None:
        """Trace calls of `module.attr`; `items(result)` gives the span's count."""
        original = getattr(module, attr)
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(index)
            if items is not None:
                self.spans[index].items = items(result)
            return result

        self._originals.append((module, attr, original))
        setattr(module, attr, traced)

    def restore(self) -> None:
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def _open(self, name: str) -> int:
        thread = threading.get_ident()
        with self._lock:
            stack = self._stacks.setdefault(thread, [])
            if stack:
                parent = stack[-1]
            else:
                owner_stack = self._stacks.get(self._owner)
                parent = owner_stack[-1] if thread != self._owner and owner_stack else None
            index = len(self.spans)
            self.spans.append(Span(name, time.perf_counter(), float("nan"), parent, thread))
            stack.append(index)
        return index

    def _close(self, index: int) -> None:
        end = time.perf_counter()
        with self._lock:
            self.spans[index].end = end
            self._stacks[threading.get_ident()].pop()
