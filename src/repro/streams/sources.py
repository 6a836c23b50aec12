"""Data-source wrappers.

"At the data source level, [the engine] consists of several wrappers that
either consume live streams or replay existing datasets for experiments."
A source is the root of an operator DAG: it produces time-ordered
:class:`StreamItem` tuples and pushes them into its consumers.  Replay is
pull-driven (``run()`` iterates the backing dataset) but everything
downstream of the source is push-based, matching the paper's architecture.
"""

from __future__ import annotations

import heapq
from typing import Callable, Iterable, Iterator, List, Optional, Sequence

from repro.streams.item import StreamItem
from repro.streams.operators import Operator


class Source(Operator):
    """Base class for stream sources."""

    def push(self, item: StreamItem) -> None:
        raise TypeError("sources are roots of the DAG and cannot receive items")

    def push_batch(self, items) -> None:
        raise TypeError("sources are roots of the DAG and cannot receive items")

    def run(self, limit: Optional[int] = None,
            batch_size: Optional[int] = None) -> int:
        """Replay the backing stream, pushing items downstream.

        Returns the number of items emitted.  ``limit`` caps the emission
        count, which is convenient for incremental replays in tests and in
        the interactive examples.  With ``batch_size`` set, items are pushed
        as chunks of up to that many items through the DAG's batch protocol
        instead of one at a time.
        """
        if batch_size is not None and batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        emitted = 0
        batch: List[StreamItem] = []
        for item in self.stream():
            if limit is not None and emitted >= limit:
                break
            emitted += 1
            if batch_size is None:
                self.emit(item)
            else:
                batch.append(item)
                if len(batch) >= batch_size:
                    self.emit_batch(batch)
                    batch = []
        if batch:
            self.emit_batch(batch)
        if limit is None:
            self.flush()
        return emitted

    def stream(self) -> Iterator[StreamItem]:
        raise NotImplementedError


class IterableSource(Source):
    """Source backed by any iterable of pre-built stream items."""

    def __init__(
        self,
        items: Iterable[StreamItem],
        name: Optional[str] = None,
    ):
        super().__init__(name=name or "iterable-source")
        self._items = items

    def stream(self) -> Iterator[StreamItem]:
        previous: Optional[float] = None
        for item in self._items:
            if previous is not None and item.timestamp < previous:
                raise ValueError(
                    "source items must be ordered by timestamp: "
                    f"{item.timestamp} < {previous}"
                )
            previous = item.timestamp
            yield item


class DocumentStreamSource(Source):
    """Source that adapts dataset documents into stream items.

    ``documents`` can be any iterable of objects exposing ``timestamp``,
    ``doc_id``, ``tags``, ``text`` (the dataset generators in
    :mod:`repro.datasets` all do); ``adapter`` can override the default
    conversion.
    """

    def __init__(
        self,
        documents: Iterable,
        source_name: str = "",
        adapter: Optional[Callable[[object], StreamItem]] = None,
        name: Optional[str] = None,
    ):
        super().__init__(name=name or (source_name or "document-source"))
        self._documents = documents
        self._source_name = source_name
        self._adapter = adapter or self._default_adapter

    def _default_adapter(self, document: object) -> StreamItem:
        return StreamItem(
            timestamp=float(getattr(document, "timestamp")),
            doc_id=str(getattr(document, "doc_id")),
            tags=frozenset(getattr(document, "tags", ()) or ()),
            text=str(getattr(document, "text", "") or ""),
            source=self._source_name,
            metadata=dict(getattr(document, "metadata", {}) or {}),
        )

    def stream(self) -> Iterator[StreamItem]:
        previous: Optional[float] = None
        for document in self._documents:
            item = self._adapter(document)
            if previous is not None and item.timestamp < previous:
                raise ValueError(
                    "documents must be ordered by timestamp: "
                    f"{item.timestamp} < {previous}"
                )
            previous = item.timestamp
            yield item


class MergedSource(Source):
    """Merge several time-ordered sources into one time-ordered stream.

    Show case 2 consumes Twitter and several RSS feeds at once; the merged
    source interleaves them by timestamp so downstream operators see a single
    coherent stream.
    """

    def __init__(self, sources: Sequence[Source], name: Optional[str] = None):
        super().__init__(name=name or "merged-source")
        if not sources:
            raise ValueError("at least one source is required")
        self._sources = list(sources)

    def stream(self) -> Iterator[StreamItem]:
        iterators: List[Iterator[StreamItem]] = [s.stream() for s in self._sources]
        heap: List = []
        for index, iterator in enumerate(iterators):
            first = next(iterator, None)
            if first is not None:
                heapq.heappush(heap, (first.timestamp, index, first))
        while heap:
            _, index, item = heapq.heappop(heap)
            yield item
            nxt = next(iterators[index], None)
            if nxt is not None:
                heapq.heappush(heap, (nxt.timestamp, index, nxt))
