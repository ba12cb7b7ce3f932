"""Spans and counts recorded around calls into the trinoids modules.

The tracer lives entirely in the benchmark: it replaces module attributes of
the loaded ``trinoids.*`` modules with thin wrappers for the length of a
traced run and puts the originals back afterwards.  A function is wrapped
under every name that binds it in any trinoids module, so calls through a
re-bound name (``trinoids.asymptotics.integrate`` is
``trinoids.weierstrass.integrate``) are recorded too.

Two kinds of wrapper exist.  A *span* wrapper records one span per call
(name, start, end, parent span, item id) and a call count.  A *count*
wrapper only counts; it is used for functions called so often (hundreds of
thousands of times per item) that a span per call would dominate the run.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

WRAPPED_MARK = "__bench_original__"


@dataclass(frozen=True)
class Target:
    """One function to wrap.

    ``name`` is the metric prefix, ``module``/``attr`` locate the function
    object, ``spans`` selects a span wrapper over a count wrapper, and
    ``on_result(tracer, args, kwargs, result)`` records counts that need the
    call's arguments or result.
    """

    name: str
    module: str
    attr: str
    spans: bool = True
    on_result: Optional[Callable] = None


@dataclass(frozen=True)
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    item: Optional[int]
    outermost: bool  # no enclosing span of the same name

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span and counter store for one traced run."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Optional[Span]] = []
        self.counts: Counter = Counter()
        self.maxima: Dict[str, float] = {}
        self.item: Optional[int] = None
        self._stack: List[int] = []
        self._active: Counter = Counter()

    def add(self, key: str, value: float = 1) -> None:
        self.counts[key] += value

    def record_max(self, key: str, value: float) -> None:
        if key not in self.maxima or value > self.maxima[key]:
            self.maxima[key] = float(value)

    def span_wrapper(self, target: Target, fn: Callable) -> Callable:
        name = target.name
        calls_key = name + ".calls"
        on_result = target.on_result
        spans, stack, active, clock = self.spans, self._stack, self._active, self.clock
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[calls_key] += 1
            sid = len(spans)
            parent = stack[-1] if stack else None
            outermost = active[name] == 0
            spans.append(None)
            stack.append(sid)
            active[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                active[name] -= 1
                stack.pop()
                spans[sid] = Span(sid, name, start, end, parent, self.item, outermost)
            if on_result is not None:
                on_result(self, args, kwargs, result)
            return result

        setattr(wrapper, WRAPPED_MARK, fn)
        return wrapper

    def count_wrapper(self, target: Target, fn: Callable) -> Callable:
        calls_key = target.name + ".calls"
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[calls_key] += 1
            return fn(*args, **kwargs)

        setattr(wrapper, WRAPPED_MARK, fn)
        return wrapper


def trinoids_modules() -> List[object]:
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "trinoids" or n.startswith("trinoids."))]


def wrapped_attributes() -> List[str]:
    """Names of every attribute of a loaded trinoids module that is a wrapper."""
    found = []
    for mod in trinoids_modules():
        for key, value in vars(mod).items():
            if callable(value) and hasattr(value, WRAPPED_MARK):
                found.append(f"{mod.__name__}.{key}")
    return found


class Installation:
    """Wrappers installed for one traced run; ``remove`` restores the originals.

    A target whose module or attribute does not exist is skipped, so the
    benchmark keeps running when a later version of the program removes a
    function (its counts then read 0).
    """

    def __init__(self, tracer: Tracer, targets: Tuple[Target, ...]):
        self._saved: List[Tuple[object, str, object]] = []
        modules = trinoids_modules()
        for target in targets:
            home = sys.modules.get(target.module)
            fn = getattr(home, target.attr, None) if home is not None else None
            if fn is None:
                continue
            wrap = tracer.span_wrapper if target.spans else tracer.count_wrapper
            wrapper = wrap(target, fn)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._saved.append((mod, key, fn))
                        setattr(mod, key, wrapper)

    def remove(self) -> None:
        for mod, key, fn in reversed(self._saved):
            setattr(mod, key, fn)
        self._saved.clear()

    def __enter__(self) -> "Installation":
        return self

    def __exit__(self, *exc) -> None:
        self.remove()


def self_times(spans: List[Span]) -> Dict[int, float]:
    """Self time of every span: its duration minus the part of its interval
    covered by its child spans (overlapping children are counted once)."""
    children: Dict[int, List[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(s.sid, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.sid] = s.duration - covered
    return out


def aggregate(spans: List[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: ``busy_s`` (outermost spans only, so recursion is not
    counted twice), ``self_s`` and the number of spans."""
    selfs = self_times(spans)
    out: Dict[str, Dict[str, float]] = {}
    for s in spans:
        entry = out.setdefault(s.name, {"busy_s": 0.0, "self_s": 0.0, "spans": 0})
        if s.outermost:
            entry["busy_s"] += s.duration
        entry["self_s"] += selfs[s.sid]
        entry["spans"] += 1
    return out
