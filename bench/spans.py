"""In-memory spans around calls into qbde's public functions.

A traced benchmark run replaces selected module attributes (the names a
caller looks up at call time) with thin wrappers that open a span, call
the original and close the span.  Spans carry the id of the span that
was open when they started, so a phase's self time -- the part no
wrapped call covers -- can be computed afterwards.  Nothing is written
out: the harness reads the spans of one pipeline iteration, reduces them
to per-layer figures and clears them.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    amount: float = 0.0     # work the call did: events, rows, bytes ...

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Totals:
    calls: int = 0
    seconds: float = 0.0
    amount: float = 0.0


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._open: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> Span:
        parent = self._open[-1].id if self._open else None
        span = Span(len(self.spans), parent, name, self.clock())
        self.spans.append(span)
        self._open.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = self.clock()
        if self._open.pop() is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")

    def clear(self) -> None:
        if self._open:
            raise RuntimeError("cannot clear while spans are open")
        self.spans = []

    def wrap(self, fn, name: str, amount=None):
        """``fn`` inside a span; ``amount(args, result)`` sizes the work."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if amount is not None:
                span.amount = float(amount(args, result))
            return result
        return traced

    def patch(self, target: str, attr: str, name: str, amount=None) -> bool:
        """Wrap ``attr`` of ``target`` ("pkg.module" or "pkg.module:Class").

        Returns False, patching nothing, when the module, class or
        attribute does not exist, so a function a later version removes
        reads as zero calls.
        """
        module_name, _, class_name = target.partition(":")
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            return False
        if class_name:
            owner = getattr(owner, class_name, None)
        original = vars(owner).get(attr) if owner is not None else None
        if not callable(original):
            return False
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, amount))
        return True

    def restore(self) -> None:
        """Put back the original objects, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it its direct children cover.

    Children are clipped to the parent's interval and overlaps between
    them count once.
    """
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = {}
    for span in spans:
        covered, reach = 0.0, span.start
        for child in sorted(children[span.id], key=lambda s: s.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[span.id] = span.duration - covered
    return out


def totals(spans: list[Span]) -> dict[str, Totals]:
    """Calls, summed seconds and summed amounts per span name."""
    out: dict[str, Totals] = defaultdict(Totals)
    for span in spans:
        t = out[span.name]
        t.calls += 1
        t.seconds += span.duration
        t.amount += span.amount
    return out
