"""MRV-style striped counters for hot shared tallies.

The two hottest shared dictionaries of the pipeline — the tag-frequency
window's per-tag counts and the tracker's co-tag usage counters — are
written on every ingested document.  Under the ``threads`` shard backend a
single :class:`collections.Counter` guarded by one lock would serialize all
writers on one hot dict; the Multi-Record-Values idea (split one hot value
into per-worker records, merge on read) removes that: each writer thread
lands its increments in its own stripe under a stripe-local lock, and
readers sum the stripes.

Counts are integers, so the merge is exact — a striped counter reports
*bit-identical* totals to the plain ``Counter`` it replaces, which is what
lets :class:`~repro.windows.aggregates.TagFrequencyWindow` switch between
the two representations without perturbing a single correlation value.

Reads are proportionally more expensive (one dict merge per read), so the
default everywhere stays ``stripes=1`` — a plain ``Counter`` — and striping
is opted into where concurrent writers exist.
"""

from __future__ import annotations

import threading
import zlib
from collections import Counter, deque
from itertools import filterfalse, repeat
from typing import Deque, Dict, Iterable, Iterator, List, Mapping, Tuple


class StripedCounter:
    """A ``Counter`` split into per-thread stripes, merged on read.

    Writes (``update``, ``subtract``, ``__setitem__``) pick a stripe from
    the calling thread's identity and mutate it under that stripe's lock,
    so concurrent writers on different stripes never contend.  Reads
    (``__getitem__``, ``get``, ``items``, ``merged``) sum the stripes;
    integer sums are associative and exact, so the merged view equals the
    single-counter history of the same operations.

    Read-modify-write sequences (``counter[k] -= 1`` followed by a delete)
    are *not* atomic across threads — the callers in this repository
    perform them only from the owning coordinator thread, exactly as they
    did against the plain ``Counter``.
    """

    def __init__(self, stripes: int = 2):
        if stripes < 1:
            raise ValueError("stripes must be at least 1")
        self._counters: List[Counter] = [Counter() for _ in range(stripes)]
        self._locks: List[threading.Lock] = [
            threading.Lock() for _ in range(stripes)
        ]

    @property
    def stripes(self) -> int:
        return len(self._counters)

    def _stripe(self) -> int:
        # Thread identity spreads concurrent writers across stripes; any
        # assignment is *correct* (the merge is a plain integer sum), this
        # one just keeps a steady writer on a steady stripe.
        return threading.get_ident() % len(self._counters)

    # -- writes ---------------------------------------------------------------

    def update(self, keys: Iterable[str]) -> None:
        """Count every element of ``keys`` (Counter.update semantics)."""
        index = self._stripe()
        with self._locks[index]:
            self._counters[index].update(keys)

    def subtract(self, keys: Iterable[str]) -> None:
        """Subtract one per element of ``keys`` (Counter.subtract semantics)."""
        index = self._stripe()
        with self._locks[index]:
            self._counters[index].subtract(keys)

    def increment(self, key: str, amount: int = 1) -> None:
        index = self._stripe()
        with self._locks[index]:
            self._counters[index][key] += amount

    def __setitem__(self, key: str, value: int) -> None:
        """Set the *merged* total of ``key`` to ``value``.

        Clears the key from every stripe and records the total in the
        calling thread's stripe; used by the read-modify-write eviction
        paths, which only ever run on the owning thread.
        """
        for index, lock in enumerate(self._locks):
            with lock:
                self._counters[index].pop(key, None)
        self.increment(key, value)

    def __delitem__(self, key: str) -> None:
        for index, lock in enumerate(self._locks):
            with lock:
                self._counters[index].pop(key, None)

    def seed(self, counts: Mapping[str, int]) -> None:
        """Adopt ``counts`` wholesale (restore path); lands in one stripe."""
        for index, lock in enumerate(self._locks):
            with lock:
                self._counters[index].clear()
        with self._locks[0]:
            self._counters[0].update(counts)

    # -- reads ----------------------------------------------------------------

    def merged(self) -> Counter:
        """One exact ``Counter`` summing every stripe."""
        totals: Counter = Counter()
        for index, lock in enumerate(self._locks):
            with lock:
                totals.update(self._counters[index])
        return totals

    def __getitem__(self, key: str) -> int:
        return self.get(key, 0)

    def get(self, key: str, default: int = 0) -> int:
        total = 0
        present = False
        for index, lock in enumerate(self._locks):
            with lock:
                counter = self._counters[index]
                if key in counter:
                    present = True
                    total += counter[key]
        return total if present else default

    def __contains__(self, key: str) -> bool:
        return any(key in counter for counter in self._counters)

    def items(self) -> Iterator[Tuple[str, int]]:
        return iter(self.merged().items())

    def __iter__(self) -> Iterator[str]:
        return iter(self.merged())

    def __len__(self) -> int:
        return len(self.merged())

    def __bool__(self) -> bool:
        return any(self._counters)


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
    criterion, shared by the tracker, the sharded coordinator (plain and
    striped — its global count history must evolve identically) and the
    journal replay.

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


class StripedCountHistory:
    """The coordinator's per-tag count-history deques, striped by tag.

    The sharded coordinator appends one row to the count history at every
    evaluation boundary while — under the ``threads`` backend — checkpoint
    and status threads read it concurrently.  One dict under one lock would
    hold every reader for the full row append (one entry per live tag);
    here each tag's series lives in exactly one stripe (stable CRC-32
    routing, the same family as the pair partitioner), and
    :meth:`record_row` takes the stripe locks one at a time, so readers of
    other stripes proceed while one stripe's row lands.

    The merged view is a plain dict union — stripes partition the tag
    space, no key lives twice — so reads are *bit-identical* to the plain
    ``dict`` of deques this replaces, which is what lets the seed
    selectors and the snapshot path swap the representation freely.
    """

    def __init__(self, history_length: int, stripes: int = 2):
        if stripes < 1:
            raise ValueError("stripes must be at least 1")
        if history_length < 1:
            raise ValueError("history_length must be at least 1")
        self.history_length = int(history_length)
        self._maps: List[Dict[str, Deque[int]]] = [
            {} for _ in range(stripes)
        ]
        self._locks: List[threading.Lock] = [
            threading.Lock() for _ in range(stripes)
        ]

    @property
    def stripes(self) -> int:
        return len(self._maps)

    def _stripe(self, tag: str) -> int:
        # Stable content routing: a tag's whole series stays in one
        # stripe, so a read never merges partial series across stripes.
        return zlib.crc32(tag.encode("utf-8")) % len(self._maps)

    # -- writes ---------------------------------------------------------------

    def record_row(self, snapshot: Mapping[str, int]) -> None:
        """Fold one evaluation's per-tag count row in, stripe by stripe.

        Stripes partition the tag space, so applying
        :func:`record_count_history` to each stripe with its share of the
        row — under that stripe's lock only — is the same rule as applying
        it to the whole history at once.
        """
        per_stripe: List[Dict[str, int]] = [{} for _ in self._maps]
        for tag, count in snapshot.items():
            per_stripe[self._stripe(tag)][tag] = count
        for index, lock in enumerate(self._locks):
            with lock:
                record_count_history(
                    self._maps[index], per_stripe[index], self.history_length
                )

    def seed(self, history: Mapping[str, Iterable[int]]) -> None:
        """Adopt ``history`` wholesale (the restore path)."""
        for lock in self._locks:
            lock.acquire()
        try:
            for series_map in self._maps:
                series_map.clear()
            for tag, values in history.items():
                name = str(tag)
                self._maps[self._stripe(name)][name] = deque(
                    (int(value) for value in values),
                    maxlen=self.history_length,
                )
        finally:
            for lock in self._locks:
                lock.release()

    # -- reads ----------------------------------------------------------------

    def merged(self) -> Dict[str, Tuple[int, ...]]:
        """One plain dict of immutable series, consistent per stripe."""
        totals: Dict[str, Tuple[int, ...]] = {}
        for index, lock in enumerate(self._locks):
            with lock:
                for tag, series in self._maps[index].items():
                    totals[tag] = tuple(series)
        return totals

    def __getitem__(self, tag: str) -> Tuple[int, ...]:
        index = self._stripe(tag)
        with self._locks[index]:
            return tuple(self._maps[index][tag])

    def get(self, tag: str, default=None):
        index = self._stripe(tag)
        with self._locks[index]:
            series = self._maps[index].get(tag)
            return tuple(series) if series is not None else default

    def __contains__(self, tag: str) -> bool:
        index = self._stripe(tag)
        with self._locks[index]:
            return tag in self._maps[index]

    def items(self) -> Iterator[Tuple[str, Tuple[int, ...]]]:
        return iter(self.merged().items())

    def __iter__(self) -> Iterator[str]:
        return iter(self.merged())

    def __len__(self) -> int:
        return sum(len(series_map) for series_map in self._maps)

    def __bool__(self) -> bool:
        return any(self._maps)
