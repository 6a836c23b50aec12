"""Outside-in tracing: timing closures swapped in for public callables.

A :class:`Recorder` replaces an attribute of an instance, class or module
with a closure that records a span around each call — name, start, end,
the span that caused it, a batch id — and puts the original back with
:meth:`Recorder.restore`.  Nothing under ``src/`` is edited; only callables
reachable through public names are wrapped.

The current span lives in a ``contextvars`` variable, so nesting is right
both across threads (each starts with an empty context) and across asyncio
tasks interleaving on one thread.  Work that another thread does on behalf
of a span (shard threads during a gather) is adopted by the span opened
with ``fanout=True``.  Spans stay in memory until :meth:`Recorder.dump`.
"""

from __future__ import annotations

import contextvars
import inspect
import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional

_MISSING = object()


class Span:
    """One timed call: what ran, when, and which span caused it."""

    __slots__ = ("name", "start", "end", "parent", "thread", "batch", "count")

    def __init__(self, name: str, start: float, parent: Optional["Span"],
                 batch: Optional[int]):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.thread = threading.get_ident()
        self.batch = batch
        self.count: Optional[int] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Installs timing wrappers and keeps the spans they record."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[Span] = []
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "benchmarks_perf_span", default=None
        )
        self._adopter: Optional[Span] = None
        self._patches: List[tuple] = []

    # -- recording -------------------------------------------------------------

    def open(self, name: str, batch: Optional[int] = None) -> tuple:
        """Start a span under the current one; returns ``(span, token)``."""
        parent = self._current.get() or self._adopter
        if batch is None and parent is not None:
            batch = parent.batch
        span = Span(name, self.clock(), parent, batch)
        return span, self._current.set(span)

    def close(self, span: Span, token) -> None:
        span.end = self.clock()
        self._current.reset(token)
        self.spans.append(span)

    # -- wrapping --------------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, *, fanout: bool = False,
             batch: Optional[Callable[[], int]] = None,
             count: Optional[Callable[[object], int]] = None) -> None:
        """Swap ``owner.attr`` for a closure recording a ``name`` span.

        ``batch`` yields the batch id of each call (children inherit it);
        ``count`` maps the call's result to a number kept on the span;
        ``fanout`` lets spans started on other threads while the call is
        open take it as their parent.
        """
        original = getattr(owner, attr)
        recorder = self

        if inspect.iscoroutinefunction(original):
            async def wrapper(*args, **kwargs):
                span, token = recorder.open(
                    name, batch() if batch is not None else None
                )
                try:
                    result = await original(*args, **kwargs)
                    if count is not None:
                        span.count = count(result)
                    return result
                finally:
                    recorder.close(span, token)
        else:
            def wrapper(*args, **kwargs):
                span, token = recorder.open(
                    name, batch() if batch is not None else None
                )
                if fanout:
                    recorder._adopter = span
                try:
                    result = original(*args, **kwargs)
                    if count is not None:
                        span.count = count(result)
                    return result
                finally:
                    if fanout:
                        recorder._adopter = None
                    recorder.close(span, token)

        wrapper.__wrapped__ = original
        self._patches.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Put every wrapped attribute back exactly as it was found."""
        while self._patches:
            owner, attr, previous = self._patches.pop()
            if previous is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, previous)

    # -- output ----------------------------------------------------------------

    def dump(self, path) -> None:
        """Write every span as JSON (ids are positions in start order)."""
        spans = sorted(self.spans, key=lambda span: span.start)
        ids = {id(span): index for index, span in enumerate(spans)}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([
                {
                    "id": ids[id(span)],
                    "name": span.name,
                    "start": span.start,
                    "end": span.end,
                    "parent": None if span.parent is None
                    else ids.get(id(span.parent)),
                    "thread": span.thread,
                    "batch": span.batch,
                    "count": span.count,
                }
                for span in spans
            ], handle)


def load_spans(path) -> List[Span]:
    """Spans written by :meth:`Recorder.dump`, parents re-linked."""
    with open(path, encoding="utf-8") as handle:
        records = json.load(handle)
    spans = []
    for record in records:
        span = Span(record["name"], record["start"], None, record["batch"])
        span.end = record["end"]
        span.thread = record["thread"]
        span.count = record["count"]
        spans.append(span)
    for span, record in zip(spans, records):
        if record["parent"] is not None:
            span.parent = spans[record["parent"]]
    return spans


def covered(intervals: Iterable[tuple], start: float, end: float) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    reach = start
    for low, high in sorted(intervals):
        low = max(low, reach)
        high = min(high, end)
        if high > low:
            total += high - low
            reach = high
    return total


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Per span (keyed by ``id(span)``): duration minus covered child time.

    Children on other threads may overlap each other and stick out of the
    parent's interval, so the covered part is the union of the child
    intervals clipped to the parent's.
    """
    spans = list(spans)
    children: Dict[int, List[tuple]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[id(span.parent)].append((span.start, span.end))
    return {
        id(span): span.duration
        - covered(children.get(id(span), ()), span.start, span.end)
        for span in spans
    }


class Ledger:
    """Aggregates over a finished set of spans, by span name."""

    def __init__(self, spans: Iterable[Span]):
        self.spans = list(spans)
        own = self_times(self.spans)
        self._by_name: Dict[str, List[Span]] = defaultdict(list)
        self._self: Dict[str, float] = defaultdict(float)
        for span in self.spans:
            self._by_name[span.name].append(span)
            self._self[span.name] += own[id(span)]

    def named(self, name: str) -> List[Span]:
        return self._by_name.get(name, [])

    def calls(self, name: str) -> int:
        return len(self.named(name))

    def total(self, name: str) -> float:
        """Summed duration (s) of the spans called ``name``."""
        return sum(span.duration for span in self.named(name))

    def self_total(self, name: str) -> float:
        """Summed self time (s) of the spans called ``name``."""
        return self._self.get(name, 0.0)
