"""JSON-safe encodings of the core value types, and the tables they share.

Snapshots must round-trip through JSON without losing a bit: floats are
written with Python's shortest-repr rule (which round-trips exactly),
:class:`~repro.core.types.TagPair` keys become two-element lists (JSON
objects only allow string keys), and rankings/topics are flattened to
positional lists so the per-pair state stays compact.  A base snapshot
spells each tag and each sample timestamp once, in a table per
component, and refers to it by position (dictionary encoding): the
tables are built by :func:`index_table` in first-seen order over the
component's own deterministic traversal, so equal states encode to equal
bytes.  Only value types live here — the stateful components encode
themselves via their own ``snapshot``/``restore`` methods.
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

    Snapshots and journal segments write every recurring tag, timestamp
    and tag set once, into a table, and refer to it by position
    everywhere else — most of the difference between a checkpoint sized
    by what it holds and one sized by the repeated strings.
    """
    position = dict.fromkeys(keys)
    position = dict(zip(position, range(len(position))))
    return position, list(position)


def intern_rows(rows: Sequence[Sequence[str]]) -> tuple:
    """``(tags, rows)``: the rows (tuples of tags, such as ordered tag
    sets) as lists of positions into one ``tags`` table, so a journal
    segment spells a tag once however often it occurs.
    """
    tag_at, tags = index_table(chain.from_iterable(rows))
    position = tag_at.__getitem__
    return tags, [list(map(position, row)) for row in rows]


def names(table: Sequence[Any], positions: Iterable[int]) -> list:
    """The entries of ``table`` at ``positions``: a row decoded."""
    return list(map(table.__getitem__, positions))


def topic_from_state(state: Sequence[Any]) -> EmergentTopic:
    """One positional ranking entry, in the order of the topic's fields."""
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


def ranking_from_state(state: Mapping[str, Any]) -> Ranking:
    """A named ranking as version-1 engine states wrote them."""
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


def _topic_tags(topic: EmergentTopic) -> Tuple[str, ...]:
    pair = topic.pair
    return pair if topic.seed_tag is None else (*pair, topic.seed_tag)


def ranking_history_state(rankings: Sequence[Ranking]) -> dict:
    """The published rankings, each tag spelled once in ``tags``.

    A ranking is ``[timestamp, label, topics]`` and a topic
    ``[first, second, score, correlation, predicted, error, seed]`` with
    the tags as positions (``seed`` null when there is none).  A topic's
    timestamp is its ranking's, so it is not written; a topic stamped
    otherwise is refused rather than silently restamped.
    """
    tag_at, tags = index_table(chain.from_iterable(
        _topic_tags(topic) for ranking in rankings for topic in ranking.topics
    ))
    rows = []
    for ranking in rankings:
        timestamp = ranking.timestamp
        topics = []
        for topic in ranking.topics:
            if topic.timestamp != timestamp:
                raise ValueError(
                    f"topic {topic.pair} is stamped {topic.timestamp}, its "
                    f"ranking {timestamp}"
                )
            first, second = topic.pair
            seed = topic.seed_tag
            topics.append([
                tag_at[first], tag_at[second], topic.score,
                topic.correlation, topic.predicted_correlation,
                topic.prediction_error,
                None if seed is None else tag_at[seed],
            ])
        rows.append([timestamp, ranking.label, topics])
    return {"tags": tags, "rankings": rows}


def ranking_history_from_state(state: Mapping[str, Any]) -> List[Ranking]:
    """The rankings a :func:`ranking_history_state` dict holds."""
    try:
        tags = [str(tag) for tag in state["tags"]]
        rankings = []
        for timestamp, label, topics in state["rankings"]:
            timestamp = float(timestamp)
            rankings.append(Ranking(
                timestamp=timestamp,
                topics=[
                    EmergentTopic(
                        pair=TagPair(tags[first], tags[second]),
                        score=float(score),
                        correlation=float(correlation),
                        predicted_correlation=float(predicted),
                        prediction_error=float(error),
                        seed_tag=None if seed is None else tags[seed],
                        timestamp=timestamp,
                    )
                    for first, second, score, correlation, predicted, error,
                    seed in topics
                ],
                label=str(label),
            ))
        return rankings
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise SnapshotCorruptionError(
            f"malformed ranking history state: {exc}"
        ) from exc


def optional_float(value: Any) -> Optional[float]:
    """A float or None, the encoding of nullable stream timestamps."""
    return None if value is None else float(value)
