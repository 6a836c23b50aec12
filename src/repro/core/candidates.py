"""Stage (i) pruning made incremental: the set of supported pairs.

The paper's efficiency argument is that only pairs that contain a *seed*
tag **and** have enough windowed support need a correlation sample.
:class:`CandidateIndex` keeps the second test answered: one ``Counter``
holds the windowed count of every live pair, and one insertion-ordered
dictionary, :attr:`CandidateIndex.supported`, the pairs whose count has
reached ``min_support``.  The seed test is left, row-wise over that set:
the scalar path scans it against the seeds, the fused evaluator maps it
to its rows and selects them with one seed mask over their tag ids.

A pair enters or leaves the set only when a batch carries its count across
the threshold.  Below it a birth is one increment inside ``Counter.update``
(a C loop) and a death one ``pop``; noticing a crossing costs one look per
arriving occurrence and one comparison per distinct expiring pair.  Where
most live pairs never reach support (``replay_zipf``: 7,168 live, 36
supported) an evaluation visits those 36; where nearly all do
(``replay_tweets``: 464 live, 426 supported) the look is the whole
difference, ≈ 0.15 µs per document.  The one O(live pairs) step is a
change of ``min_support`` (or a restore), which rebuilds the set from the
counts — never taken on the stream.

Pairs here are the plain canonical tuples of
:func:`~repro.core.types.canonical_pair`, which the cyclic collector stops
tracking; the index holds one per live pair, for as long as the stream
runs, and a tuple subclass would be walked at every full collection.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, Iterator, List, Mapping, Tuple

from repro.core.types import Pair

_NO_COUNTS: Mapping[Pair, int] = {}


class CandidateIndex:
    """One count per live pair, plus the set of the supported ones.

    Every live pair has a positive count in exactly one mapping; a pair is
    in :attr:`supported` iff that count is at least ``min_support`` (the
    tracker's ``min_pair_support``).  Pairs below the threshold stay in the
    counts — they may regain support.
    """

    def __init__(
        self, min_support: int = 1, counts: Mapping[Pair, int] = _NO_COUNTS,
    ):
        """An index under ``min_support`` holding ``counts`` — ``{pair: n}``,
        how a restore rebuilds it from the pair multiset of its events."""
        self._reset(counts, min_support)

    def _reset(self, counts: Mapping[Pair, int], min_support: int) -> None:
        """Start over from ``counts`` under ``min_support``: O(live pairs)."""
        min_support = int(min_support)
        if min_support < 1:
            raise ValueError("min_support must be at least 1")
        self._min_support = min_support
        self._counts: Counter = Counter()
        self._supported: Dict[Pair, int] = {}
        self.add_many(counts)

    @property
    def min_support(self) -> int:
        """Support threshold a live pair must reach to be a candidate.

        Mutable between evaluations: pairs below it keep their counts, so
        a changed value rebuilds the supported set from them.  Every write
        path — the tracker's ``min_pair_support`` setter or a direct
        assignment — is validated by the one check in :meth:`_reset`.
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

    def __contains__(self, pair: Pair) -> bool:
        return pair in self._counts

    def count(self, pair: Pair) -> int:
        """Windowed co-occurrence count of ``pair`` (0 when absent)."""
        return self._counts.get(pair, 0)

    def items(self) -> Iterator[Tuple[Pair, int]]:
        """Iterate over ``(pair, count)`` for every live pair, once each."""
        return iter(self._counts.items())

    @property
    def counts(self) -> Mapping[Pair, int]:
        """The live ``{pair: count}`` (read-only; do not mutate)."""
        return self._counts

    @property
    def supported(self) -> Dict[Pair, int]:
        """The pairs at ``min_support`` or above, each mapped to its row in
        the fused evaluator reading this index: -1 until that evaluator
        writes it, the one writer of the values.  A ``min_support`` change
        replaces the dict."""
        return self._supported

    def check_invariants(self) -> None:
        """Raise ``AssertionError`` naming a pair the invariant fails for.

        Every count is a positive integer; a pair is supported iff its
        count is at least ``min_support``; every supported pair is live.
        For tests — O(live pairs), never called on the stream.
        """
        counts, supported = self._counts, self._supported
        for pair, count in counts.items():
            if type(count) is not int or count < 1:
                raise AssertionError(f"{pair!r} has count {count!r}")
            if (pair in supported) != (count >= self._min_support):
                raise AssertionError(
                    f"{pair!r} has count {count} against min_support "
                    f"{self._min_support} but is "
                    f"{'listed in' if pair in supported else 'missing from'}"
                    f" the supported set"
                )
        for pair in supported.keys() - counts.keys():
            raise AssertionError(f"the supported set lists dead {pair!r}")

    # -- maintenance ----------------------------------------------------------

    def add(self, pair: Pair) -> None:
        """Record one co-occurrence of ``pair``."""
        self.add_many((pair,))

    def add_many(self, pairs: Iterable[Pair]) -> None:
        """Record a batch of co-occurrences (duplicates allowed; a
        ``{pair: n}`` mapping records ``n`` of each, as ``Counter.update``).
        A pair the batch carries to ``min_support`` becomes supported."""
        if not isinstance(pairs, Mapping):
            pairs = list(pairs)
        counts = self._counts
        min_support = self._min_support
        count_of = counts.get
        # Only a pair below the threshold can cross it; the increments stay C.
        below = [pair for pair in pairs if count_of(pair, 0) < min_support]
        counts.update(pairs)
        supported = self._supported
        for pair in below:
            if counts[pair] >= min_support:
                supported[pair] = -1

    def discard(self, pair: Pair) -> None:
        """Remove one co-occurrence of ``pair``."""
        self.remove_many((pair,))

    def remove_many(self, pairs: Iterable[Pair]) -> None:
        """Remove a batch of co-occurrences (duplicates allowed).

        A pair whose count reaches zero dies and leaves the counts; one
        that falls below ``min_support`` (dead or not) leaves the supported
        set.  A pair that is not live is ignored.
        """
        counts = self._counts
        supported = self._supported
        min_support = self._min_support
        for pair, expired in Counter(pairs).items():
            count = counts.get(pair, 0)
            left = count - expired
            if left > 0:
                counts[pair] = left
            elif count:
                counts.pop(pair)  # not del: Counter.__delitem__ is interpreted
            if count >= min_support > left:
                del supported[pair]

    # -- candidate generation -------------------------------------------------

    def iter_candidates(
        self, seeds: Iterable[str]
    ) -> List[Tuple[Pair, str, int]]:
        """Supported pairs containing at least one seed, in no fixed order.

        Returns ``(pair, seed_tag, count)`` triples; when both tags are
        seeds the lexicographically smaller one is reported as the trigger,
        matching the semantics of the original full scan.  One scan of the
        supported set against the seed set — the scalar sampler's source;
        the fused evaluator selects its rows without it.
        """
        seed_set = set(seeds)
        if not seed_set:
            return []
        counts = self._counts
        selected: List[Tuple[Pair, str, int]] = []
        append = selected.append
        for pair in self._supported:
            first, second = pair
            if first in seed_set:
                append((pair, first, counts[pair]))
            elif second in seed_set:
                append((pair, second, counts[pair]))
        return selected

    def candidates(self, seeds: Iterable[str]) -> List[Tuple[Pair, str]]:
        """``(pair, seed_tag)`` tuples sorted by pair (the public contract)."""
        selected = [
            (pair, trigger) for pair, trigger, _ in self.iter_candidates(seeds)
        ]
        selected.sort(key=lambda item: item[0])
        return selected

    def scan_candidates(self, seeds: Iterable[str]) -> List[Tuple[Pair, str]]:
        """Reference implementation: the seed revision's full scan over all
        live pairs and their counts.  Kept for equivalence testing; the hot
        path uses :meth:`candidates`."""
        seed_set = set(seeds)
        if not seed_set:
            return []
        selected: List[Tuple[Pair, str]] = []
        for pair, count in self.items():
            if count < self.min_support:
                continue
            first, second = pair
            if first in seed_set:
                selected.append((pair, first))
            elif second in seed_set:
                selected.append((pair, second))
        selected.sort(key=lambda item: item[0])
        return selected
