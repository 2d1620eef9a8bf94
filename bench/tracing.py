"""Spans and counters recorded around calls into the package's modules.

The benchmark's traced run wraps module attributes where their callers look
them up (``cli.total_error``, ``imperfections.p_m_given_k``, ...), so the
package itself is never edited. Two kinds of hook exist:

* a span hook records (id, name, parent id, start, end) for every call and
  keeps the records in memory until the run ends; self time is derived from
  the span tree afterwards;
* a counter hook, for functions called ~1e5 times per sweep row, keeps only
  a call count and cumulative time.

A hook may instead replace a non-function attribute (such as a module) with
a proxy that records spans itself.

Every wrapped name is restored when the :class:`Tracer` context exits. A
hook whose target no longer exists is recorded as absent, not raised.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class Span:
    span_id: int
    name: str
    parent: Optional[int]
    start: float
    end: float


@dataclass(frozen=True)
class Hook:
    """Wrap ``module.attr`` and record calls under ``name``.

    By default every call becomes a span, and ``on_result``, if given, sees
    each result and returns what the caller receives (it may add counters or
    wrap the result). ``counter`` hooks keep a count and cumulative time
    only. ``replace`` hooks substitute ``replace(tracer, original)`` for the
    attribute, for names that are objects rather than functions.
    """

    module: object
    attr: str
    name: str
    counter: bool = False
    on_result: Optional[Callable[["Tracer", object], object]] = None
    replace: Optional[Callable[["Tracer", object], object]] = None


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Span duration minus the part of its interval that child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    result = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children.get(span.span_id, ())):
            start, end = max(start, cursor), min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        result[span.span_id] = (span.end - span.start) - covered
    return result


class Tracer:
    """Installs hooks on enter, restores every wrapped name on exit.

    Spans and counters accumulate across repeated ``with`` blocks, so a
    run can trace some calls and leave others untraced.
    """

    def __init__(self, hooks: Sequence[Hook]):
        self.hooks = list(hooks)
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._missing: Dict[str, List[str]] = defaultdict(list)
        self._installed: set = set()
        self._stack: List[int] = []
        self._next_id = 0
        self._saved: List[Tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def add(self, key: str, amount: float) -> None:
        self.counts[key] += amount

    def call_span(self, name, fn, args=(), kwargs=None):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(span_id, name, parent, start, end))

    def _span_wrapper(self, hook: Hook, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = tracer.call_span(hook.name, fn, args, kwargs)
            return out if hook.on_result is None else hook.on_result(tracer, out)

        return wrapper

    def _counter_wrapper(self, hook: Hook, fn):
        counts = self.counts
        calls_key, time_key = hook.name + ".calls", hook.name + ".s"
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                counts[time_key] += clock() - start
                counts[calls_key] += 1

        return wrapper

    # -- install / restore -------------------------------------------------

    def __enter__(self) -> "Tracer":
        for hook in self.hooks:
            target = f"{hook.module.__name__}.{hook.attr}"
            if not hasattr(hook.module, hook.attr):
                if target not in self._missing[hook.name]:
                    self._missing[hook.name].append(target)
                continue
            self._installed.add(hook.name)
            original = getattr(hook.module, hook.attr)
            if hook.replace is not None:
                wrapped = hook.replace(self, original)
            elif hook.counter:
                wrapped = self._counter_wrapper(hook, original)
            else:
                wrapped = self._span_wrapper(hook, original)
            self._saved.append((hook.module, hook.attr, original))
            setattr(hook.module, hook.attr, wrapped)
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    # -- aggregation -------------------------------------------------------

    @property
    def absent(self) -> Dict[str, str]:
        """Hook names none of whose targets exist, with the reason."""
        return {
            name: "not found: " + ", ".join(targets)
            for name, targets in self._missing.items()
            if name not in self._installed
        }

    def span_totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: call count, inclusive time ``s`` and ``self_s``."""
        own = self_times(self.spans)
        totals: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0}
        )
        for span in self.spans:
            entry = totals[span.name]
            entry["calls"] += 1
            entry["s"] += span.end - span.start
            entry["self_s"] += own[span.span_id]
        return dict(totals)
