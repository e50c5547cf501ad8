"""Span recording around the program's public functions, from outside it.

`Tracer.install` replaces each target function with a wrapper in every
loaded `rqsid` module namespace that holds the same function object, so a
call is recorded whether it goes through the defining module, a module that
imported the name, or the package root. Each wrapped call records a span
(name, start, end, parent span, run id); spans stay in memory until the run
writes them out. Functions called per item are counted instead, because a
span per call would cost more than the call itself.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import time
from collections import Counter
from collections.abc import Callable
from dataclasses import asdict, dataclass


@dataclass(frozen=True)
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Target:
    """One function to wrap.

    `name` is the span name; `label`, if given, maps the call's bound
    arguments to a suffix of it (such as the trie mode). `keep`, if given,
    maps (arguments, result) to a value stored with the span and read when
    metrics are derived, so no derivation work runs inside the traced run.
    """

    module: str
    attr: str
    name: str
    label: Callable[[dict], str] | None = None
    keep: Callable[[dict, object], object] | None = None
    count_only: bool = False


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it covered by child spans."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for c in sorted(children.get(s.span_id, []), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.span_id] = s.duration - covered
    return out


class Tracer:
    def __init__(self, run_id: str, clock=time.perf_counter):
        self.run_id = run_id
        self.clock = clock
        self.spans: list[Span] = []
        self.kept: dict[int, object] = {}
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []

    def calls(self, name: str) -> int:
        return self.counts[name] + sum(1 for s in self.spans if s.name == name)

    def named(self, name: str) -> list[Span]:
        return sorted((s for s in self.spans if s.name == name), key=lambda s: s.start)

    def wrap(self, target: Target, fn):
        if target.count_only:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                self.counts[target.name] += 1
                return fn(*args, **kwargs)
            return counted

        signature = inspect.signature(fn)

        def bound(args, kwargs) -> dict:
            b = signature.bind(*args, **kwargs)
            b.apply_defaults()
            return b.arguments

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = target.name
            if target.label is not None:
                name = f"{name}.{target.label(bound(args, kwargs))}"
            span_id = next(self._ids)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = self.clock()
                self._stack.pop()
                self.spans.append(Span(span_id, name, start, end, parent, self.run_id))
            if target.keep is not None:
                self.kept[span_id] = target.keep(bound(args, kwargs), result)
            return result

        return traced

    def install(self, targets) -> None:
        """Wrap every target in every loaded rqsid namespace binding it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "rqsid" or n.startswith("rqsid."))]
        for target in targets:
            original = getattr(sys.modules[target.module], target.attr)
            wrapper = self.wrap(target, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patches.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def dump(self) -> dict:
        return {"run_id": self.run_id, "spans": [asdict(s) for s in self.spans],
                "counts": dict(self.counts)}
