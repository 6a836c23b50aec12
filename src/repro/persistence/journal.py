"""A journal segment: the engine's input between two checkpoint ticks.

enBlogue is a deterministic function of its document stream, so a
journal records the stream, not the state it produced (a command log
rather than a log of state changes): a segment holds the documents the
engine ingested since the previous tick and the forced evaluations
(``evaluate_now``) among them, and a reader replays them through the
engine restored from the base.  The rankings, correlation samples,
scores and count rows the documents cause are recomputed, never written.

A document is its timestamp and its ordered tag set — the tags it was
ingested with, entity-tagger output included, normalised and sorted as
the decomposition memo holds them — so a replay needs no tagger.  The
segment is columnar::

    {"kind": "command-log", "version": 1, "since": <generation>,
     "tags": [...],               each tag spelled once
     "tag_sets": [[0, 3], ...],   each distinct tag set once, as positions
     "times": [...],              one timestamp per document
     "sets": [...],               one tag-set position per document
     "evaluations": [[position, timestamp], ...]}

An evaluation's ``position`` is the number of the segment's documents
ingested before it.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Any, Callable, Iterable, List, Mapping, Tuple, Union

from repro.persistence.codec import index_table, intern_rows, names
from repro.persistence.snapshot import SnapshotCorruptionError, require_state

KIND = "command-log"
VERSION = 1

#: A replayed document: what ``process_batch`` reads of one (no entities,
#: no text — its tags are already the ordered set it was ingested with).
Input = namedtuple("Input", "timestamp tags")

#: One replay step: a run of documents, or a forced evaluation's timestamp.
Command = Union[List[Input], float]


def encode_segment(
    generation: int,
    entries: Iterable[Any],
    ordered: Callable[[Any, Any], Tuple[str, ...]],
) -> dict:
    """The segment of an engine's recorded input.

    ``entries`` are runs of prepared ``(timestamp, tags, entities)``
    observations and the float timestamps of forced evaluations, in the
    order they happened; ``ordered`` maps a document's tags and entities
    to the ordered tag set the engine ingested.
    """
    times: List[float] = []
    sets: List[Tuple[str, ...]] = []
    evaluations: List[list] = []
    for entry in entries:
        if type(entry) is float:
            evaluations.append([len(times), entry])
            continue
        for timestamp, tags, entities in entry:
            times.append(timestamp)
            sets.append(ordered(tags, entities))
    set_at, tag_sets = index_table(sets)
    tags, tag_sets = intern_rows(tag_sets)
    return {
        "kind": KIND,
        "version": VERSION,
        "since": int(generation),
        "tags": tags,
        "tag_sets": tag_sets,
        "times": times,
        "sets": list(map(set_at.__getitem__, sets)),
        "evaluations": evaluations,
    }


def decode_segment(segment: Mapping[str, Any]) -> List[Command]:
    """A segment's input as replay steps, in the order they happened."""
    require_state(segment, KIND, VERSION)
    try:
        tags = segment["tags"]
        tag_sets = [frozenset(names(tags, row)) for row in segment["tag_sets"]]
        documents = [
            Input(float(timestamp), tag_sets[position])
            for timestamp, position in zip(
                segment["times"], segment["sets"], strict=True)
        ]
        commands: List[Command] = []
        start = 0
        for position, timestamp in segment["evaluations"]:
            if documents[start:position]:
                commands.append(documents[start:position])
            commands.append(float(timestamp))
            start = position
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise SnapshotCorruptionError(
            f"malformed journal segment: {exc}"
        ) from exc
    if documents[start:]:
        commands.append(documents[start:])
    return commands
