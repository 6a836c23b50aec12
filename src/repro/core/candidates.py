"""Stage (i) pruning made incremental: a tag→supported-pairs postings index.

The paper's efficiency argument is that only pairs that contain a *seed*
tag **and** have enough windowed support need a correlation sample.
:class:`CandidateIndex` keeps exactly those findable: one ``Counter`` holds
the windowed count of every live pair, and per tag a postings dictionary
records — membership only — the pairs containing it whose count has
reached ``min_support``.  Candidate generation walks the seeds' postings
and reads one count per pair it *emits*: no support test is left at
evaluation time, so its cost follows the answer, not the live pairs.

A pair touches a posting only when a batch carries its count across the
threshold.  Below it a birth is one increment inside ``Counter.update`` (a
C loop) and a death one ``pop``; noticing a crossing costs one look per
arriving occurrence and one comparison per distinct expiring pair.  Where
most live pairs never reach support (``replay_zipf``: 7,168 live, 36
supported) an evaluation visits those 36 instead of the ≈ 3,000 pairs in
the seeds' all-pairs buckets, and ≈ 3,400 bucket dictionaries per window
are never allocated; where nearly all do (``replay_tweets``: 464 live, 426
supported) the look is the whole difference, ≈ 0.15 µs per document.  The
one O(live pairs) step is a change of ``min_support`` (or a restore),
which rebuilds the postings from the counts — never taken on the stream.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Dict, Iterable, Iterator, List, Mapping, Tuple

from repro.core.types import TagPair
from repro.persistence.snapshot import require_state

_EMPTY: Dict[TagPair, None] = {}


class CandidateIndex:
    """One count per live pair, plus per-tag postings of the supported ones.

    Every live pair has a positive count in exactly one mapping; a pair is
    a member of its two tags' postings dictionaries iff that count is at
    least ``min_support`` (the tracker's ``min_pair_support``), and a tag
    with no supported pair has no postings dictionary.  Pairs below the
    threshold stay in the counts — they may regain support.
    """

    def __init__(self, min_support: int = 1):
        self._reset({}, min_support)

    def _reset(self, counts: Mapping[TagPair, int], min_support: int) -> None:
        """Start over from ``counts`` under ``min_support``: O(live pairs)."""
        min_support = int(min_support)
        if min_support < 1:
            raise ValueError("min_support must be at least 1")
        self._min_support = min_support
        self._counts: Counter = Counter()
        # A bucket is born on its first write and deleted with its last
        # pair; reads go through .get so they never create one.
        self._postings: Dict[str, Dict[TagPair, None]] = defaultdict(dict)
        self.add_many(counts)

    @property
    def min_support(self) -> int:
        """Support threshold a live pair must reach to be a candidate.

        Mutable between evaluations: pairs below it keep their counts, so
        a changed value rebuilds the postings from them.  Every write path
        — the tracker's ``min_pair_support`` setter or a direct assignment
        — is validated by the one check in :meth:`_reset`.
        """
        return self._min_support

    @min_support.setter
    def min_support(self, value: int) -> None:
        if int(value) != self._min_support:
            self._reset(self._counts, value)

    # -- introspection --------------------------------------------------------

    def __len__(self) -> int:
        """Number of distinct live pairs."""
        return len(self._counts)

    def __contains__(self, pair: TagPair) -> bool:
        return pair in self._counts

    def count(self, pair: TagPair) -> int:
        """Windowed co-occurrence count of ``pair`` (0 when absent)."""
        return self._counts.get(pair, 0)

    def items(self) -> Iterator[Tuple[TagPair, int]]:
        """Iterate over ``(pair, count)`` for every live pair, once each."""
        return iter(self._counts.items())

    # -- persistence ----------------------------------------------------------

    def snapshot(self) -> dict:
        """The index's complete state as a versioned, JSON-safe dict.

        Pairs are stored once each (sorted, with their windowed counts);
        the postings are rebuilt on restore.
        """
        return {
            "kind": "candidate-index",
            "version": 1,
            "min_support": self._min_support,
            "pairs": [
                [pair.first, pair.second, count]
                for pair, count in sorted(self._counts.items())
            ],
        }

    def restore(self, state: Mapping) -> None:
        """Replace the index with a :meth:`snapshot`'s state."""
        require_state(state, "candidate-index", 1)
        rows: Counter = Counter()
        for first, second, count in state["pairs"]:
            if int(count) > 0:
                rows[TagPair(str(first), str(second))] += int(count)
        self._reset(rows, state["min_support"])

    def check_invariants(self) -> None:
        """Raise ``AssertionError`` naming a pair the invariant fails for.

        Every count is a positive integer; a pair is in a posting iff its
        count is at least ``min_support``, and then in exactly its two
        tags' buckets; no bucket is empty.  For tests — O(live pairs),
        never called on the stream.
        """
        counts, postings = self._counts, self._postings
        for pair, count in counts.items():
            if type(count) is not int or count < 1:
                raise AssertionError(f"{pair!r} has count {count!r}")
            supported = count >= self._min_support
            for tag in pair:
                if (pair in postings.get(tag, _EMPTY)) != supported:
                    raise AssertionError(
                        f"{pair!r} has count {count} against min_support "
                        f"{self._min_support} but is "
                        f"{'missing from' if supported else 'listed in'} "
                        f"the postings of {tag!r}"
                    )
        for tag, bucket in postings.items():
            if not bucket:
                raise AssertionError(f"empty postings bucket for {tag!r}")
            for pair in bucket:
                if pair not in counts or tag not in pair:
                    raise AssertionError(
                        f"the postings of {tag!r} list {pair!r}, which is "
                        f"not a live pair containing it"
                    )

    # -- maintenance ----------------------------------------------------------

    def add(self, pair: TagPair) -> None:
        """Record one co-occurrence of ``pair``."""
        self.add_many((pair,))

    def add_many(self, pairs: Iterable[TagPair]) -> None:
        """Record a batch of co-occurrences (duplicates allowed; a
        ``{pair: n}`` mapping records ``n`` of each, as ``Counter.update``).
        A pair the batch carries to ``min_support`` enters its postings."""
        if not isinstance(pairs, Mapping):
            pairs = list(pairs)
        counts = self._counts
        min_support = self._min_support
        count_of = counts.get
        # Only a pair below the threshold can cross it; the increments stay C.
        below = [pair for pair in pairs if count_of(pair, 0) < min_support]
        counts.update(pairs)
        postings = self._postings
        for pair in below:
            if counts[pair] >= min_support:
                for tag in pair:
                    postings[tag][pair] = None

    def discard(self, pair: TagPair) -> None:
        """Remove one co-occurrence of ``pair``, dropping dead postings."""
        self.remove_many((pair,))

    def remove_many(self, pairs: Iterable[TagPair]) -> None:
        """Remove a batch of co-occurrences (duplicates allowed).

        A pair whose count reaches zero dies and leaves the counts; one
        that falls below ``min_support`` (dead or not) leaves its
        postings.  A pair that is not live is ignored.
        """
        counts = self._counts
        postings = self._postings
        min_support = self._min_support
        for pair, expired in Counter(pairs).items():
            count = counts.get(pair, 0)
            left = count - expired
            if left > 0:
                counts[pair] = left
            elif count:
                counts.pop(pair)  # not del: Counter.__delitem__ is interpreted
            if count >= min_support > left:
                for tag in pair:
                    bucket = postings[tag]
                    del bucket[pair]
                    if not bucket:
                        del postings[tag]

    # -- candidate generation -------------------------------------------------

    def iter_candidates(
        self, seeds: Iterable[str]
    ) -> List[Tuple[TagPair, str, int]]:
        """Supported pairs containing at least one seed, in no fixed order.

        Returns ``(pair, seed_tag, count)`` triples; when both tags are
        seeds the lexicographically smaller one is reported as the trigger,
        matching the semantics of the original full scan.  Evaluation hot
        paths use this unsorted form — per-pair work is order-independent
        and the final ranking applies a total order of its own.

        A pair whose tags are both seeds occurs in two postings lists; it is
        collected only from its trigger's list — ``seed``'s when ``seed`` is
        its first tag or its first tag is no seed at all — which
        deduplicates the union without a seen-set.
        """
        seed_set = set(seeds)
        postings = self._postings
        counts = self._counts
        selected: List[Tuple[TagPair, str, int]] = []
        append = selected.append
        for seed in seed_set:
            for pair in postings.get(seed, _EMPTY):
                first = pair[0]
                if first == seed or first not in seed_set:
                    append((pair, seed, counts[pair]))
        return selected

    def candidates(self, seeds: Iterable[str]) -> List[Tuple[TagPair, str]]:
        """``(pair, seed_tag)`` tuples sorted by pair (the public contract)."""
        selected = [
            (pair, trigger) for pair, trigger, _ in self.iter_candidates(seeds)
        ]
        selected.sort(key=lambda item: item[0])
        return selected

    def scan_candidates(self, seeds: Iterable[str]) -> List[Tuple[TagPair, str]]:
        """Reference implementation: the seed revision's full scan over all
        pairs.  Kept for equivalence testing; the hot path uses
        :meth:`candidates`."""
        seed_set = set(seeds)
        if not seed_set:
            return []
        selected: List[Tuple[TagPair, str]] = []
        for pair, count in self.items():
            if count < self.min_support:
                continue
            if pair.first in seed_set:
                selected.append((pair, pair.first))
            elif pair.second in seed_set:
                selected.append((pair, pair.second))
        selected.sort(key=lambda item: item[0])
        return selected
