"""Core value types: tag pairs, emergent topics and rankings."""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple


def normalize_tag(tag: object) -> str:
    """Canonical tag identity: stripped and lower-cased.

    The single definition shared by the tracker's ingestion, the stream
    normaliser operator and the engine's query surface, so "Athens " and
    "athens" always name the same tag everywhere.
    """
    return str(tag).strip().lower()


def normalize_tags(tags: Iterable[object]) -> Set[str]:
    """The set of ``normalize_tag(tag)`` over ``tags``, in one C-level pass.

    ``str.strip`` and ``str.lower`` applied to ``str(tag)`` are exactly
    :func:`normalize_tag`, without an interpreted call per member.
    """
    return set(map(str.lower, map(str.strip, map(str, tags))))


#: A canonical pair inside the engine: the plain tuple ``(first, second)``
#: of two distinct, non-empty tags with ``first < second``.
Pair = Tuple[str, str]


def canonical_pair(first: str, second: str) -> Pair:
    """Validate two tags and return them as the canonical plain pair.

    The one pair rule: both tags non-empty, distinct, and ordered
    lexicographically, so ``("b", "a")`` and ``("a", "b")`` are one pair.
    Inside the engine a pair is this plain tuple, which CPython's cyclic
    collector stops tracking once it has seen it; :class:`TagPair` is the
    same tuple for code outside the engine.
    """
    if not first or not second:
        raise ValueError("both tags of a pair must be non-empty")
    if first == second:
        raise ValueError("a pair needs two distinct tags")
    return (first, second) if first < second else (second, first)


class TagPair(tuple):
    """An unordered pair of tags, the unit of an emergent topic, as the
    engine hands it out.

    Inside the engine a pair is the plain tuple :func:`canonical_pair`
    returns; ``TagPair`` is that tuple where a pair leaves the engine, on
    :attr:`EmergentTopic.pair`, with ``first``/``second`` accessors.  It
    is a tuple subclass, so it hashes, compares and orders in C and equals
    the plain tuple of its tags (``TagPair("b", "a") == ("a", "b")``):
    either one finds the other in a dictionary.  Nothing about it is
    cached, so a pair unpickled in a spawn-started worker (where ``str``
    hashes are salted differently) hashes like one built there.  The
    engine keeps none of them: the collector never untracks an instance
    of a tuple subclass, so millions of them would be walked at every
    full collection.
    """

    __slots__ = ()

    def __new__(cls, first: str, second: str) -> "TagPair":
        return tuple.__new__(cls, canonical_pair(first, second))

    first = property(itemgetter(0), doc="The lexicographically smaller tag.")
    second = property(itemgetter(1), doc="The lexicographically larger tag.")

    def __getnewargs__(self) -> Tuple[str, str]:
        return tuple(self)

    def __repr__(self) -> str:
        return f"TagPair(first={self.first!r}, second={self.second!r})"

    @classmethod
    def of(cls, tag_a: str, tag_b: str) -> "TagPair":
        return cls(tag_a, tag_b)

    @classmethod
    def from_tuple(cls, pair: Tuple[str, str]) -> "TagPair":
        return cls(pair[0], pair[1])

    def as_tuple(self) -> Tuple[str, str]:
        return (self.first, self.second)

    def contains(self, tag: str) -> bool:
        return tag in (self.first, self.second)

    def other(self, tag: str) -> str:
        """The partner of ``tag`` inside the pair."""
        if tag == self.first:
            return self.second
        if tag == self.second:
            return self.first
        raise KeyError(f"{tag!r} is not part of this pair")

    def __str__(self) -> str:
        return f"({self.first}, {self.second})"


@dataclass(frozen=True)
class EmergentTopic:
    """One entry of an emergent-topic ranking.

    ``pair`` may be given as a plain pair, as the engine holds it; the
    topic always carries a :class:`TagPair`.
    """

    pair: TagPair
    score: float
    correlation: float = 0.0
    predicted_correlation: float = 0.0
    prediction_error: float = 0.0
    seed_tag: Optional[str] = None
    timestamp: float = 0.0

    def __post_init__(self) -> None:
        if self.score < 0:
            raise ValueError("topic scores are non-negative")
        if type(self.pair) is not TagPair:
            object.__setattr__(self, "pair", TagPair(*self.pair))

    @property
    def tags(self) -> Tuple[str, str]:
        return self.pair.as_tuple()

    def describe(self) -> str:
        return (
            f"{self.pair} score={self.score:.4f} "
            f"corr={self.correlation:.4f} predicted={self.predicted_correlation:.4f}"
        )


@dataclass
class Ranking:
    """A top-k emergent-topic ranking produced at one point in time."""

    timestamp: float
    topics: List[EmergentTopic] = field(default_factory=list)
    label: str = ""

    def __post_init__(self) -> None:
        # Total order shared with repro.core.ranking.topic_sort_key (spelled
        # out here because types must not import ranking): score descending,
        # then canonical pair ascending as the deterministic tie-break.
        self.topics = sorted(
            self.topics, key=lambda topic: (-topic.score, topic.pair)
        )

    def __len__(self) -> int:
        return len(self.topics)

    def __iter__(self) -> Iterator[EmergentTopic]:
        return iter(self.topics)

    def __getitem__(self, index: int) -> EmergentTopic:
        return self.topics[index]

    def top(self, k: int) -> List[EmergentTopic]:
        if k <= 0:
            return []
        return self.topics[:k]

    def pairs(self) -> List[TagPair]:
        return [topic.pair for topic in self.topics]

    def position_of(self, pair: TagPair) -> Optional[int]:
        """Zero-based rank of ``pair`` or ``None`` when absent."""
        for index, topic in enumerate(self.topics):
            if topic.pair == pair:
                return index
        return None

    def contains_pair(self, pair: TagPair) -> bool:
        return self.position_of(pair) is not None

    def scores(self) -> Dict[TagPair, float]:
        return {topic.pair: topic.score for topic in self.topics}

    def describe(self, k: Optional[int] = None) -> str:
        """Multi-line, human-readable rendering (used by examples/benches)."""
        selected = self.topics if k is None else self.top(k)
        lines = [f"ranking at t={self.timestamp:.0f}" + (f" [{self.label}]" if self.label else "")]
        for position, topic in enumerate(selected, start=1):
            lines.append(f"  {position:2d}. {topic.describe()}")
        if not selected:
            lines.append("  (empty)")
        return "\n".join(lines)


def overlap_at_k(first: Ranking, second: Ranking, k: int) -> float:
    """Fraction of shared pairs among the top-k of two rankings."""
    if k <= 0:
        return 0.0
    top_first = {topic.pair for topic in first.top(k)}
    top_second = {topic.pair for topic in second.top(k)}
    if not top_first and not top_second:
        return 1.0
    denominator = max(len(top_first), len(top_second))
    if denominator == 0:
        return 1.0
    return len(top_first & top_second) / denominator
