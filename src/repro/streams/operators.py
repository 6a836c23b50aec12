"""Stream operators: the nodes of the push-based operator DAG.

Every operator consumes :class:`~repro.streams.item.StreamItem` tuples pushed
by its producers and pushes derived items to its consumers.  Sinks terminate
the DAG; the most important sink in enBlogue computes the emergent-topic
ranking (see :mod:`repro.core.engine`), which :mod:`repro.serving` pushes
to subscribers.

Items move through the DAG in time-ordered chunks: ``push_batch`` runs
each item of a chunk through ``process`` and ``emit_batch`` forwards the
results as one chunk, so the per-edge call overhead is paid once per chunk.
``push(item)`` is a chunk of one.  Sinks consume whole chunks — the
detection engine's sink (see :class:`FunctionSink`) hands them to its
batched ingestion path.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

from repro.core.types import normalize_tag
from repro.streams.item import StreamItem


class Operator:
    """Base class for DAG nodes that receive and forward stream items."""

    def __init__(self, name: Optional[str] = None):
        self.name = name or type(self).__name__
        self._consumers: List["Operator"] = []
        self._items_in = 0
        self._items_out = 0

    # -- wiring ---------------------------------------------------------

    def connect(self, consumer: "Operator") -> "Operator":
        """Add a producer-consumer edge from this operator to ``consumer``."""
        if consumer is self:
            raise ValueError("an operator cannot consume its own output")
        if consumer not in self._consumers:
            self._consumers.append(consumer)
        return consumer

    @property
    def consumers(self) -> List["Operator"]:
        return list(self._consumers)

    # -- push protocol ----------------------------------------------------

    def push(self, item: StreamItem) -> None:
        """Receive one item: a chunk of one."""
        self.push_batch((item,))

    def push_batch(self, items: Sequence[StreamItem]) -> None:
        """Receive a time-ordered chunk, process it and forward one chunk."""
        self._items_in += len(items)
        results: List[StreamItem] = []
        for item in items:
            results.extend(self.process(item))
        self.emit_batch(results)

    def process(self, item: StreamItem) -> Iterable[StreamItem]:
        """Transform one input item into zero or more output items."""
        return (item,)

    def emit_batch(self, items: Sequence[StreamItem]) -> None:
        """Push a chunk of items to every downstream consumer."""
        if not items:
            return
        self._items_out += len(items)
        for consumer in self._consumers:
            consumer.push_batch(items)

    def flush(self) -> None:
        """Signal end-of-stream; propagated through the DAG."""
        for consumer in self._consumers:
            consumer.flush()

    # -- instrumentation --------------------------------------------------

    @property
    def items_in(self) -> int:
        return self._items_in

    @property
    def items_out(self) -> int:
        return self._items_out

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"<{type(self).__name__} {self.name!r}>"


class Sink(Operator):
    """Terminal operator: consumes items without forwarding them."""

    def push_batch(self, items: Sequence[StreamItem]) -> None:
        self._items_in += len(items)
        self.consume_batch(items)

    def consume_batch(self, items: Sequence[StreamItem]) -> None:
        """Consume a time-ordered chunk of items."""
        raise NotImplementedError

    def connect(self, consumer: "Operator") -> "Operator":
        raise TypeError("sinks terminate the DAG and cannot have consumers")

    def flush(self) -> None:
        """Sinks may override to finalise their state at end-of-stream."""


class TagNormalizerOperator(Operator):
    """Lower-case and strip tags, dropping empty ones.

    Data sources use inconsistent capitalisation (NYT descriptors are
    upper-case, hashtags are mixed case); normalising early keeps the
    correlation tracker from splitting one topic across spellings.
    """

    def process(self, item: StreamItem) -> Iterable[StreamItem]:
        normalized = {normalize_tag(tag) for tag in item.tags}
        normalized.discard("")
        if normalized == item.tags:
            return (item,)
        return (
            StreamItem(
                timestamp=item.timestamp,
                doc_id=item.doc_id,
                tags=frozenset(normalized),
                entities=item.entities,
                text=item.text,
                source=item.source,
                metadata=item.metadata,
            ),
        )


class StatisticsOperator(Operator):
    """Pass-through operator gathering simple stream statistics.

    The paper lists "statistics operators" among the shareable plug-ins; this
    one counts documents, distinct tags and tags per document
    (:meth:`summary`).
    """

    def __init__(self, name: Optional[str] = None):
        super().__init__(name=name or "statistics")
        self.documents = 0
        self.tag_occurrences = 0
        self._distinct_tags: set = set()
        self.first_timestamp: Optional[float] = None
        self.last_timestamp: Optional[float] = None

    def process(self, item: StreamItem) -> Iterable[StreamItem]:
        self.documents += 1
        self.tag_occurrences += len(item.tags)
        self._distinct_tags.update(item.tags)
        if self.first_timestamp is None:
            self.first_timestamp = item.timestamp
        self.last_timestamp = item.timestamp
        return (item,)

    @property
    def distinct_tags(self) -> int:
        return len(self._distinct_tags)

    @property
    def mean_tags_per_document(self) -> float:
        if self.documents == 0:
            return 0.0
        return self.tag_occurrences / self.documents

    def summary(self) -> Dict[str, Any]:
        """A snapshot of the collected statistics."""
        return {
            "documents": self.documents,
            "distinct_tags": self.distinct_tags,
            "mean_tags_per_document": self.mean_tags_per_document,
            "first_timestamp": self.first_timestamp,
            "last_timestamp": self.last_timestamp,
        }


class CollectorSink(Sink):
    """Sink that stores every received item (tests, examples, small replays)."""

    def __init__(self, name: Optional[str] = None):
        super().__init__(name=name or "collector")
        self.items: List[StreamItem] = []

    def consume_batch(self, items: Sequence[StreamItem]) -> None:
        self.items.extend(items)


class FunctionSink(Sink):
    """Sink that hands every chunk to a callback (e.g. the detection engine)."""

    def __init__(
        self,
        callback: Callable[[Sequence[StreamItem]], None],
        name: Optional[str] = None,
        on_flush: Optional[Callable[[], None]] = None,
    ):
        super().__init__(name=name or "callback-sink")
        self._callback = callback
        self._on_flush = on_flush

    def consume_batch(self, items: Sequence[StreamItem]) -> None:
        self._callback(items)

    def flush(self) -> None:
        if self._on_flush is not None:
            self._on_flush()
