"""In-memory spans and counters, and run-time wrapping of program functions.

The benchmark never edits the program. It times calls into a module's
public functions by replacing them, for the length of a run, with a
wrapper that records a span. ``from x import f`` copies ``f`` into the
importing module, so a replacement is installed under every name in
every ``enzydesign`` module that refers to the original object.

A span holds a name, its start and end, the span it was opened under
and a few attributes (such as the sequence length ``n``). Spans stay in
memory and are written out once the run ends.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    phase: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans in the order they open; one open-span stack per run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.phase = "setup"
        self._stack: list[Span] = []

    def open(self, name: str, **attrs) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, parent, self.phase, self.clock(),
                    attrs=attrs)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def wrap(self, name: str, fn, attrs=None):
        """``fn`` with a span around each call; ``attrs(*args)`` names its size."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name, **(attrs(*args) if attrs else {}))
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(span)
        return traced

    def counting(self, name: str, fn):
        """``fn`` with a call counter and no span, for very frequent calls."""
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def to_json(self) -> dict:
        return {"spans": [[s.id, s.name, s.parent, s.phase, s.start, s.end,
                           s.attrs] for s in self.spans],
                "counts": dict(self.counts)}


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> its duration minus the part of it that child spans cover.

    Children may overlap each other (as they can across threads), so the
    covered part is the length of the union of their intervals, each
    clipped to the parent's interval.
    """
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = s.duration - covered
    return out


class Patches:
    """Replacements installed into the program, undone by ``restore``."""

    def __init__(self, package: str = "enzydesign"):
        self.package = package
        self._undo: list[tuple] = []

    def _modules(self):
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == self.package
                                      or name.startswith(self.package + "."))]

    def function(self, module: str, name: str, make) -> None:
        """Replace ``module.name`` by ``make(original)`` under every alias."""
        original = getattr(sys.modules[module], name)
        replacement = make(original)
        for mod in self._modules():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._undo.append((mod, attr, original))

    def method(self, module: str, cls: str, name: str, make) -> None:
        klass = getattr(sys.modules[module], cls)
        original = klass.__dict__[name]
        setattr(klass, name, make(original))
        self._undo.append((klass, name, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
