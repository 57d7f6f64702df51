"""In-memory spans around calls that cross module boundaries.

A span records its name, start, end, parent span and run id, the type of
the exception that ended it (if any), and counts its caller attaches.  Spans
are kept in a list and written out once, after the traced run.  Nothing here
imports the program: :meth:`Tracer.patched` swaps names bound in the
program's modules for traced wrappers and restores them afterwards.
"""

from __future__ import annotations

import functools
import json
import math
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    span_id: int
    parent: int | None
    name: str
    run_id: str
    start: float
    end: float = math.nan
    error: str | None = None
    counts: dict = field(default_factory=dict)

    @property
    def module(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans; the parent of a span is the innermost open one."""

    def __init__(self, clock=time.perf_counter):
        self.spans: list[Span] = []
        self.run_id = ""
        self._clock = clock
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        """Open a span around the ``with`` body and yield it."""
        stack = self._stack()
        sp = Span(len(self.spans), stack[-1].span_id if stack else None, name,
                  self.run_id, self._clock())
        self.spans.append(sp)
        stack.append(sp)
        try:
            yield sp
        except BaseException as err:
            sp.error = type(err).__name__
            raise
        finally:
            stack.pop()
            sp.end = self._clock()

    def wrap(self, name: str, fn, count=None):
        """``fn`` inside a span; ``count(result, *args, **kwargs)`` returns
        counts to attach when the call returns normally."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as sp:
                result = fn(*args, **kwargs)
                if count is not None:
                    sp.counts.update(count(result, *args, **kwargs))
                return result
        return traced

    @contextmanager
    def patched(self, boundaries):
        """Bind traced wrappers in place of the names in ``boundaries``.

        Each entry is ``(module, attribute, span name, count or None)``.  A
        function bound under several names gets one wrapper, so a call is
        never recorded twice.  Missing attributes are skipped: their layer
        then reports no calls.
        """
        wrappers, saved = {}, []
        try:
            for module, attr, name, count in boundaries:
                original = getattr(module, attr, None)
                if original is None:
                    continue
                if id(original) not in wrappers:
                    wrappers[id(original)] = self.wrap(name, original, count)
                saved.append((module, attr, original))
                setattr(module, attr, wrappers[id(original)])
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for sp in self.spans:
                fh.write(json.dumps(asdict(sp), sort_keys=True) + "\n")


def covered(lo: float, hi: float, intervals) -> float:
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for sp in spans:
        if sp.parent is not None:
            children[sp.parent].append((sp.start, sp.end))
    return {sp.span_id: sp.duration - covered(sp.start, sp.end, children[sp.span_id])
            for sp in spans}


def percentile(samples, q: float, min_beyond: int = 10):
    """Nearest-rank ``q``-th percentile of ``samples``.

    Returns None unless at least ``min_beyond`` samples lie beyond it, so a
    tail percentile is never read off a handful of points.
    """
    n = len(samples)
    rank = max(1, math.ceil(q / 100.0 * n))
    if n - rank < min_beyond:
        return None
    return sorted(samples)[rank - 1]
