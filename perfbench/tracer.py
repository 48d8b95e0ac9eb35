"""Span recording from outside the program.

The benchmark replaces public drc functions, at the module attribute each
caller looks them up through, with wrappers that record a span per call:
name, start, end, parent, and counts read from the arguments and the
returned value.  Spans stay in memory; ``aggregate`` turns them into self
times (span duration minus the durations of its direct children, which in
single-threaded code are disjoint and nested) and count totals, grouped by
the top-level span each one ran under.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    parent: int | None  # index into Tracer.spans
    root: int  # index of the top-level span this one ran under
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        root = self.spans[parent].root if parent is not None else idx
        sp = Span(name, parent, root, self.clock())
        self.spans.append(sp)
        self._stack.append(idx)
        try:
            yield sp
        finally:
            sp.end = self.clock()
            self._stack.pop()

    def wrap(self, fn, name, counts=None):
        """``fn`` recording a span per call.

        ``name`` is a string or ``name(args, kwargs)``; ``counts(args,
        kwargs, result)`` returns a dict of counts stored on the span.
        """
        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            with self.span(label) as sp:
                out = fn(*args, **kwargs)
            if counts is not None:
                sp.counts.update(counts(args, kwargs, out))
            return out

        return wrapper


@contextmanager
def patched(replacements):
    """Set ``(owner, attribute, value)`` triples, restoring the originals on exit."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


@dataclass
class Aggregate:
    """Totals over every top-level span of one name."""

    roots: int = 0
    self_s: dict = field(default_factory=lambda: defaultdict(float))
    total_s: dict = field(default_factory=lambda: defaultdict(float))  # including children
    calls: dict = field(default_factory=lambda: defaultdict(int))
    counts: dict = field(default_factory=lambda: defaultdict(lambda: defaultdict(float)))
    child_counts: dict = field(default_factory=lambda: defaultdict(lambda: defaultdict(float)))

    def per_root(self, value: float) -> float:
        return value / self.roots if self.roots else 0.0


def aggregate(spans: list[Span]) -> dict[str, Aggregate]:
    """Self time and counts per span name, grouped by top-level span name.

    ``child_counts[parent name][count]`` sums the counts of direct children,
    so a caller can read, e.g., the slots traced on behalf of a loss call.
    """
    child_s = [0.0] * len(spans)
    for sp in spans:
        if sp.parent is not None:
            child_s[sp.parent] += sp.duration
    out: dict[str, Aggregate] = defaultdict(Aggregate)
    for i, sp in enumerate(spans):
        agg = out[spans[sp.root].name]
        if sp.parent is None:
            agg.roots += 1
        agg.self_s[sp.name] += sp.duration - child_s[i]
        agg.total_s[sp.name] += sp.duration
        agg.calls[sp.name] += 1
        for key, val in sp.counts.items():
            agg.counts[sp.name][key] += val
            if sp.parent is not None:
                agg.child_counts[spans[sp.parent].name][key] += val
    return dict(out)
