"""In-memory span tracing, installed around a program from outside it.

A span records its name, start, end, the span open when it began (its
parent) and a dict of counters. Spans are kept in memory and written
out by the caller when the run ends.

Spans are recorded only in the process that created the tracer. A pool
worker forked from that process inherits the wrappers, but they pass
straight through there, so a worker's work shows up as its parent span's
wall time and, once the pool has been joined, as RUSAGE_CHILDREN CPU.
"""

from __future__ import annotations

import functools
import inspect
import os
import resource
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    counters: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def children_of(spans: list[Span]) -> dict[int, list[int]]:
    children: dict[int, list[int]] = defaultdict(list)
    for i, span in enumerate(spans):
        if span.parent is not None:
            children[span.parent].append(i)
    return children


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its direct children cover.

    Children are clipped to the parent's interval and overlaps among
    them are counted once, so a self time is never negative.
    """
    children = children_of(spans)
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        intervals = sorted(
            (max(spans[c].start, span.start), min(spans[c].end, span.end)) for c in children[i]
        )
        for lo, hi in intervals:
            lo = max(lo, cursor)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(span.duration - covered)
    return out


def subtree(spans: list[Span], root: int) -> list[int]:
    """Indices of `root` and every span below it."""
    children = children_of(spans)
    out, todo = [], [root]
    while todo:
        i = todo.pop()
        out.append(i)
        todo.extend(children[i])
    return out


def cpu_seconds() -> float:
    """User plus system CPU of this process and its joined children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class Tracer:
    """Collects spans for one traced run and undoes its patches on restore()."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def active(self) -> bool:
        return os.getpid() == self.pid

    @contextmanager
    def span(self, name: str, cpu: bool = False):
        span = Span(name, 0.0, parent=self._open[-1] if self._open else None)
        self.spans.append(span)
        self._open.append(len(self.spans) - 1)
        cpu0 = cpu_seconds() if cpu else 0.0
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._open.pop()
            if cpu:
                span.counters["cpu_s"] = cpu_seconds() - cpu0

    def bump(self, key: str, amount: int = 1) -> None:
        """Add to a counter of the innermost open span."""
        counters = self.spans[self._open[-1]].counters
        counters[key] = counters.get(key, 0) + amount

    def raise_to(self, key: str, value: int) -> None:
        """Keep the largest value seen for a counter of the innermost open span."""
        counters = self.spans[self._open[-1]].counters
        counters[key] = max(counters.get(key, value), value)

    def wrap(self, fn, name: str, cpu: bool = False, count=None):
        """`fn` recorded as a span; count(arguments, result) gives its counters."""
        signature = inspect.signature(fn) if count is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active():
                return fn(*args, **kwargs)
            with self.span(name, cpu) as span:
                result = fn(*args, **kwargs)
            if count is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.counters.update(count(bound.arguments, result))
            return result

        return traced

    def pool_class(self, base):
        """A subclass of the executor class `base` that counts starts and tasks."""
        tracer = self

        class TracedPool(base):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                if tracer.active():
                    tracer.bump("process_pool.starts")
                    tracer.raise_to("process_pool.max_workers", self._max_workers)

            def submit(self, fn, /, *args, **kwargs):
                if tracer.active():
                    tracer.bump("process_pool.tasks")
                return super().submit(fn, *args, **kwargs)

        return TracedPool

    def patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
