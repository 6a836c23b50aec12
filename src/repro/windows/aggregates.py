"""Windowed tag statistics over the document stream.

The seed-tag selector needs the windowed popularity of every tag, and the
correlation tracker needs windowed document counts per tag as the
denominators of its pair measures.  :class:`TagFrequencyWindow` keeps the
per-document events so that evictions are exact;
:func:`record_count_history` folds its per-evaluation snapshots into the
count series the volatility criterion reads.  The approximate counterpart
of the pair counts is the sketch tier in :mod:`repro.sketches`.
"""

from __future__ import annotations

import heapq
from collections import Counter, deque
from itertools import chain, filterfalse, repeat
from typing import (
    Deque, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, TypeVar,
)

from repro.persistence.snapshot import require_compatible, require_state


_Score = TypeVar("_Score", int, float)


def require_ordered(
    timestamp: float, latest: Optional[float], complaint: str
) -> None:
    """Reject a timestamp behind a window's clock, NaN included: negated
    >=, and a first timestamp held against itself, so NaN fails the check
    instead of passing it and switching it (and eviction) off for good."""
    if not timestamp >= (timestamp if latest is None else latest):
        raise ValueError(f"{complaint}: {timestamp} < {latest}")


def top_scored(
    scored: Iterable[Tuple[str, _Score]], k: int
) -> List[Tuple[str, _Score]]:
    """The ``k`` highest-scoring ``(name, score)`` items, best first.

    Ties are broken by name.  The one ordering rule behind the window's
    most frequent tags and every seed criterion; a bounded heap, so the
    cost beyond one pass over the items depends on ``k``, not on how many
    items there are.  Equal to ``sorted(scored, key=...)[:k]``.
    """
    return heapq.nsmallest(k, scored, key=_best_first)


def _best_first(item: Tuple[str, _Score]) -> Tuple[_Score, str]:
    return -item[1], item[0]


class TagFrequencyWindow:
    """Windowed per-tag document counts over the stream.

    This is the statistic behind both seed-tag popularity and the
    denominators of the pairwise correlation measures: for each tag it tracks
    how many documents inside the sliding window carry that tag, and it also
    tracks the total number of documents in the window.

    One writer at a time: the counts are a plain ``Counter`` with no lock.
    Every owner (a tracker, the sharded coordinator) updates its window
    from one thread, and hands :attr:`counts` to other threads only while
    that thread is blocked waiting for them.
    """

    def __init__(self, horizon: float):
        if horizon <= 0:
            raise ValueError("window horizon must be positive")
        self.horizon = float(horizon)
        self._events: Deque[Tuple[float, Tuple[str, ...]]] = deque()
        self._counts: Counter = Counter()
        self._latest: Optional[float] = None

    @property
    def latest_timestamp(self) -> Optional[float]:
        return self._latest

    @property
    def document_count(self) -> int:
        """Number of documents currently inside the window."""
        return len(self._events)

    @property
    def counts(self) -> Counter:
        """The live per-tag ``Counter`` (read-only; do not mutate).

        Hot loops (the tracker's evaluation samples hundreds of pairs per
        boundary) read this directly instead of paying two method calls per
        tag via :meth:`count`.
        """
        return self._counts

    def add_document(self, timestamp: float, tags: Iterable[str]) -> None:
        """Register a document and its (deduplicated) tag set."""
        self.add_documents(((timestamp, tags),))

    def add_documents(
        self, documents: Iterable[Tuple[float, Iterable[str]]]
    ) -> int:
        """Register a time-ordered chunk of ``(timestamp, tags)`` documents.

        The whole chunk is validated before any state is touched, so a
        rejected document leaves the window unchanged; it then goes in
        through :meth:`add_ordered_run`.  Returns the number of documents
        added.
        """
        latest = self._latest
        timestamps: List[float] = []
        tag_sets: List[Tuple[str, ...]] = []
        for timestamp, tags in documents:
            require_ordered(timestamp, latest, "out-of-order insertion")
            latest = timestamp
            timestamps.append(timestamp)
            tag_sets.append(tuple(sorted(set(tags))))
        self.add_ordered_run(timestamps, tag_sets)
        return len(timestamps)

    def add_ordered_run(
        self, timestamps: Sequence[float], tag_sets: Sequence[Tuple[str, ...]]
    ) -> None:
        """Register a run the caller has validated: the trusted bulk entry.

        ``timestamps`` must be non-decreasing and ``tag_sets[i]`` document
        ``i``'s deduplicated, sorted tag tuple; only the first timestamp is
        checked.  Two C-level passes and one eviction leave the window as one
        :meth:`add_document` each would (eviction is monotone in time).
        """
        if not timestamps:
            return
        require_ordered(timestamps[0], self._latest, "out-of-order insertion")
        self._events.extend(zip(timestamps, tag_sets))
        self._counts.update(chain.from_iterable(tag_sets))
        self._latest = timestamps[-1]
        self._evict(self._latest)

    def advance_to(self, timestamp: float) -> None:
        require_ordered(timestamp, self._latest, "cannot advance backwards")
        self._latest = timestamp
        self._evict(timestamp)

    def count(self, tag: str) -> int:
        """Documents in the window tagged with ``tag``."""
        return self._counts.get(tag, 0)

    def frequency(self, tag: str) -> float:
        """Fraction of windowed documents tagged with ``tag``."""
        if not self._events:
            return 0.0
        return self._counts.get(tag, 0) / len(self._events)

    def tags(self) -> List[str]:
        """Tags with at least one live occurrence."""
        return [tag for tag, count in self._counts.items() if count > 0]

    def top_tags(self, k: int, min_count: int = 1) -> List[Tuple[str, int]]:
        """The ``k`` most frequent tags in the window, ties broken by name.

        Only tags with at least ``min_count`` (>= 1) live occurrences
        qualify.
        """
        counts = self.counts
        # The k-th largest count bounds the answer.  Finding it is one
        # allocation-free C pass over the bare counts; only the handful of
        # tags that reach it are then paired up and ordered.
        largest = heapq.nlargest(k, counts.values())
        if not largest:
            return []
        floor = max(largest[-1], min_count)
        return top_scored(
            [(tag, count) for tag, count in counts.items() if count >= floor],
            k,
        )

    def snapshot(self) -> Dict[str, int]:
        """Copy of the live per-tag counts."""
        # Eviction deletes a tag the moment its count reaches zero, so the
        # counter holds live tags only.  ``dict.copy`` clones the hash
        # table as is (``dict(...)`` would re-insert every key) and
        # returns a plain dict, not a Counter.
        return dict.copy(self._counts)

    # -- persistence ----------------------------------------------------------

    def state_dict(self) -> dict:
        """The window's complete state as a versioned, JSON-safe dict.

        (Named ``state_dict`` rather than the ``Snapshotable`` protocol's
        ``snapshot`` because :meth:`snapshot` — the per-tag counts copy —
        predates the persistence layer and feeds the seed selector.)  Only
        the event deque and the latest timestamp are stored: the per-tag
        counters and the document count are derived exactly from the events
        on restore.
        """
        return {
            "kind": "tag-frequency-window",
            "version": 1,
            "horizon": self.horizon,
            "latest": self._latest,
            "events": [
                [timestamp, list(tags)] for timestamp, tags in self._events
            ],
        }

    def restore_state(self, state: dict) -> None:
        """Replace this window's state with a :meth:`state_dict` snapshot."""
        require_state(state, "tag-frequency-window", 1)
        require_compatible(
            "tag-frequency-window", {"horizon": self.horizon}, state
        )
        events: Deque[Tuple[float, Tuple[str, ...]]] = deque()
        counts: Counter = Counter()
        for timestamp, tags in state["events"]:
            unique_tags = tuple(str(tag) for tag in tags)
            events.append((float(timestamp), unique_tags))
            counts.update(unique_tags)
        self._events = events
        self._counts = counts
        latest = state["latest"]
        self._latest = None if latest is None else float(latest)

    def _evict(self, now: float) -> None:
        cutoff = now - self.horizon
        events = self._events
        expired: List[str] = []
        while events and events[0][0] <= cutoff:
            expired.extend(events.popleft()[1])
        if not expired:
            return
        counts = self._counts
        for tag, gone in Counter(expired).items():
            left = counts[tag] - gone
            if left > 0:
                counts[tag] = left
            else:
                counts.pop(tag, None)  # not del: that is interpreted


def record_count_history(
    history: Dict[str, Deque[int]],
    snapshot: Mapping[str, int],
    history_length: int,
) -> None:
    """Fold one evaluation's per-tag count snapshot into ``history`` in place.

    Tags absent from the window record an explicit zero so volatility
    reflects disappearance as well as growth; each tag's series is a deque
    bounded to ``history_length``, so the append itself trims to the last
    ``history_length`` points.  The single rule behind the volatility seed
    criterion, shared by the tracker, the sharded coordinator (its global
    count history must evolve identically) and the journal replay.

    The history holds every tag ever seen, so the row is folded in by
    C-level iteration, not a Python loop over the vocabulary: tags new to
    the history enter first, in row order (which keeps the history's
    first-appearance key order), then every series appends its tag's count
    in the row, zero when the row lacks it, in one ``map`` pass.
    """
    maxlen = int(history_length)
    for tag in filterfalse(history.__contains__, snapshot):
        history[tag] = deque(maxlen=maxlen)
    appends = map(
        deque.append, history.values(), map(snapshot.get, history, repeat(0))
    )
    deque(appends, maxlen=0)  # exhaust the iterator, keeping nothing
