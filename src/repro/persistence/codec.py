"""JSON-safe encodings of the core value types.

Snapshots must round-trip through JSON without losing a bit: floats are
written with Python's shortest-repr rule (which round-trips exactly),
:class:`~repro.core.types.TagPair` keys become two-element lists (JSON
objects only allow string keys), and rankings/topics are flattened to
positional lists so the per-pair state stays compact.  Only value types
live here — the stateful components encode themselves via their own
``snapshot``/``restore`` methods.
"""

from __future__ import annotations

from itertools import chain
from typing import (
    Any, Dict, Hashable, Iterable, List, Mapping, Optional, Sequence, Tuple,
)

from repro.core.types import EmergentTopic, Ranking, TagPair
from repro.persistence.snapshot import SnapshotCorruptionError


def index_table(keys: Iterable[Hashable]) -> Tuple[Dict[Any, int], list]:
    """``(position, table)`` for the distinct ``keys``, in first-seen order.

    Journal deltas write every recurring tag set and pair once, into a
    table, and refer to it by position everywhere else — most of the
    difference between a cadence tick sized by what changed and one sized
    by the repeated strings.  Shared (with :func:`intern_rows`) by the
    tracker, the shift detector and the sharded coordinator, so they
    cannot drift from the decoders in :mod:`repro.persistence.delta`.
    """
    position = dict.fromkeys(keys)
    position = dict(zip(position, range(len(position))))
    return position, list(position)


def intern_rows(*tables: Sequence[Sequence[str]]) -> tuple:
    """``(tags, *tables)``: each table's rows (tuples of tags: ordered
    tag sets, canonical pairs) as lists of positions into one ``tags``
    table, so a delta spells a tag once however often it occurs.
    """
    tag_at, tags = index_table(
        chain.from_iterable(chain.from_iterable(tables))
    )
    position = tag_at.__getitem__
    return (tags, *(
        [list(map(position, row)) for row in table] for table in tables
    ))


def pair_to_state(pair: TagPair) -> List[str]:
    """A canonical pair as the two-element list ``[first, second]``."""
    return [pair.first, pair.second]


def pair_from_state(state: Sequence[str]) -> TagPair:
    """Rebuild a pair; :class:`TagPair` re-canonicalises and validates."""
    try:
        first, second = state
        return TagPair(str(first), str(second))
    except (TypeError, ValueError) as exc:
        raise SnapshotCorruptionError(
            f"malformed tag-pair state {state!r}: {exc}"
        ) from exc


def topic_to_state(topic: EmergentTopic) -> List[Any]:
    """One ranking entry as a positional list (order matches the fields)."""
    return [
        topic.pair.first,
        topic.pair.second,
        topic.score,
        topic.correlation,
        topic.predicted_correlation,
        topic.prediction_error,
        topic.seed_tag,
        topic.timestamp,
    ]


def topic_from_state(state: Sequence[Any]) -> EmergentTopic:
    try:
        first, second, score, correlation, predicted, error, seed, ts = state
        return EmergentTopic(
            pair=TagPair(str(first), str(second)),
            score=float(score),
            correlation=float(correlation),
            predicted_correlation=float(predicted),
            prediction_error=float(error),
            seed_tag=None if seed is None else str(seed),
            timestamp=float(ts),
        )
    except (TypeError, ValueError) as exc:
        raise SnapshotCorruptionError(
            f"malformed topic state {state!r}: {exc}"
        ) from exc


def ranking_to_state(ranking: Ranking) -> dict:
    return {
        "timestamp": ranking.timestamp,
        "label": ranking.label,
        "topics": [topic_to_state(topic) for topic in ranking.topics],
    }


def ranking_from_state(state: Mapping[str, Any]) -> Ranking:
    try:
        return Ranking(
            timestamp=float(state["timestamp"]),
            topics=[topic_from_state(entry) for entry in state["topics"]],
            label=str(state.get("label", "")),
        )
    except (KeyError, TypeError) as exc:
        raise SnapshotCorruptionError(
            f"malformed ranking state: {exc}"
        ) from exc


def optional_float(value: Any) -> Optional[float]:
    """A float or None, the encoding of nullable stream timestamps."""
    return None if value is None else float(value)
