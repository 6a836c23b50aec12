"""Stage (i) pruning made incremental: a tag→pairs postings index.

The paper's efficiency argument is that only pairs containing a *seed* tag
need correlation sampling.  The seed implementation honoured that at
evaluation time by scanning every windowed pair — linear in the number of
live pairs however few seeds there are.  :class:`CandidateIndex` maintains
the inverse mapping as documents arrive and expire: one ``Counter`` holds
the windowed count of every live pair, and per tag a postings dictionary
records *which* live pairs contain it — membership only.  Candidate
generation unions the seeds' postings, one count lookup per visited pair.

Keeping the counts out of the postings keeps ingestion cheap: a recurring
pair costs one increment inside ``Counter.update`` (a C loop) and one
in-line decrement when an occurrence expires, and the postings are touched
only when a pair is *born* or *dies*.  With the count inside both postings
entries every distinct pair of every chunk cost an interpreted call on
arrival and on eviction (``replay_tweets``: tracker ingest 2.75 → 2.0
µs/doc).  The price is that lookup, which hashes the pair: +0.15 ms per
evaluation on ``replay_zipf``, whose seeds' buckets hold ≈ 3,000 pairs.
Candidate generation stays an interpreted loop on purpose: as C-level
passes (``dict.fromkeys``, ``map(counts.__getitem__, ...)``, ``compress``)
it measured slower still (``replay_zipf`` 17.2 → 19.4 µs/doc) — a
``TagPair``'s hash is not cached, so every pass re-hashes every pair.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from itertools import islice
from typing import Dict, FrozenSet, Iterable, Iterator, List, Mapping, Tuple

from repro.core.types import TagPair
from repro.persistence.snapshot import require_state

_EMPTY: Dict[TagPair, None] = {}


class CandidateIndex:
    """One count per live pair, plus per-tag postings of which pairs are live.

    Every live pair has a positive count in exactly one mapping and is a
    member of exactly two postings dictionaries (one per tag); a tag with
    no live pair has no postings dictionary.  ``min_support`` mirrors the
    tracker's ``min_pair_support``: pairs with a lower count stay in the
    index (they may regain support) but are not reported as candidates.
    """

    def __init__(self, min_support: int = 1):
        self._counts: Counter = Counter()
        # A bucket is born on its first write and deleted with its last
        # pair; reads go through .get so they never create one.
        self._postings: Dict[str, Dict[TagPair, None]] = defaultdict(dict)
        self.min_support = min_support

    @property
    def min_support(self) -> int:
        """Support threshold below which live pairs are not reported.

        Mutable between evaluations: pairs below the threshold *stay in the
        index* with their counts (they may regain support, and lowering
        the threshold must bring them back), so changing the value takes
        effect on the next candidate query without any rebuild.  Validation
        lives here so every write path — the tracker's ``min_pair_support``
        setter or a direct assignment — enforces the same invariant.
        """
        return self._min_support

    @min_support.setter
    def min_support(self, value: int) -> None:
        value = int(value)
        if value < 1:
            raise ValueError("min_support must be at least 1")
        self._min_support = value

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

    def pairs_for(self, tag: str) -> FrozenSet[TagPair]:
        """The live pairs containing ``tag`` (the tag's postings list)."""
        return frozenset(self._postings.get(tag, _EMPTY))

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
        self._counts = Counter()
        self._postings = defaultdict(dict)
        self.min_support = state["min_support"]
        for first, second, count in state["pairs"]:
            if int(count) > 0:
                self.add_many({TagPair(str(first), str(second)): int(count)})

    # -- maintenance ----------------------------------------------------------

    def add(self, pair: TagPair) -> None:
        """Record one co-occurrence of ``pair``."""
        self.add_many((pair,))

    def add_many(self, pairs: Iterable[TagPair]) -> None:
        """Record a batch of co-occurrences (duplicates allowed; a
        ``{pair: n}`` mapping records ``n`` of each, as ``Counter.update``)."""
        counts = self._counts
        size_before = len(counts)
        counts.update(pairs)
        born = len(counts) - size_before
        if not born:
            return
        # An increment does not move a key and a new key goes to the end,
        # so the pairs born here are the last ``born`` keys; walked oldest
        # first, so a bucket lists its pairs in arrival order either way.
        postings = self._postings
        for pair in reversed(list(islice(reversed(counts), born))):
            for tag in pair:
                postings[tag][pair] = None

    def discard(self, pair: TagPair) -> None:
        """Remove one co-occurrence of ``pair``, dropping dead postings."""
        self.remove_many((pair,))

    def remove_many(self, pairs: Iterable[TagPair]) -> None:
        """Remove a batch of co-occurrences (duplicates allowed).

        A pair whose count reaches zero dies: it leaves the counts and both
        its tags' postings.  A pair that is not live is ignored.
        """
        counts = self._counts
        postings = self._postings
        for pair, expired in Counter(pairs).items():
            count = counts.get(pair, 0)
            if count > expired:
                counts[pair] = count - expired
            elif count:
                counts.pop(pair)  # not del: Counter.__delitem__ is interpreted
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
        min_support = self.min_support
        postings = self._postings
        counts = self._counts
        selected: List[Tuple[TagPair, str, int]] = []
        append = selected.append
        for seed in seed_set:
            for pair in postings.get(seed, _EMPTY):
                count = counts[pair]
                if count >= min_support:
                    first = pair[0]
                    if first == seed or first not in seed_set:
                        append((pair, seed, count))
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
