"""Folding journal deltas onto base snapshots, at the dict level.

Every stateful component that implements
:class:`~repro.persistence.snapshot.DeltaSnapshotable` externalizes *what
changed* since its last base snapshot: appended window events, dirty
per-pair entries, replayable count-history rows, absolute counters.  The
functions here are their pure inverses — they take a base ``snapshot()``
dict plus one ``delta_since()`` dict and return exactly the dict a fresh
``snapshot()`` would produce at the later point in time, so a chain of
deltas restores through the *unchanged* ``restore`` path.

Two rules make the fold exact without shipping the whole window:

* **Eviction is replayed, not recorded.**  Windows evict by the one
  monotone rule ``timestamp <= latest - horizon``; given the delta's final
  ``latest``, dropping expired events from the merged list reproduces the
  live deque bit for bit (intermediate evictions with earlier ``now``
  values are subsumed by the final cutoff).
* **Derived state is not folded.**  A state holds no candidate table, no
  pair events and no usage events: restore derives them from the tag
  window, and the usage events a delta still ships are skipped.
  :func:`upgrade_engine_state` drops the derived tables an older base
  still wrote.

A component's state spells each tag and sample timestamp once, in its
own tables.  A fold decodes the base through the component's decoder,
folds the named rows, and re-encodes through the encoder ``snapshot()``
itself writes with, so a folded state equals a live one byte for byte.

Apply functions treat their inputs as consumable and may mutate/alias
them; callers needing the originals must copy first (the store's reader
owns its freshly decoded dicts, which is the intended call site).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Dict, List, Mapping, Sequence, Tuple

from repro.core.shift import scores_from_state, scores_state
from repro.core.tracker import (
    _DELTA_DOC, histories_from_state, histories_state,
)
from repro.persistence.codec import (
    names, ranking_from_state, ranking_history_from_state,
    ranking_history_state,
)
from repro.persistence.snapshot import SnapshotMismatchError, require_state
from repro.windows.aggregates import (
    record_count_history, window_events, window_state,
)

#: The sketch tier's configuration fields, which an older checkpoint's
#: configuration may still carry.
_TIER_FIELDS = ("tracking", "promote_support", "sketch_width", "sketch_depth")


def evict_events(events: List[list], latest, horizon: float) -> List[list]:
    """Drop leading events at or past the horizon, the windows' one rule."""
    if latest is None:
        return events
    cutoff = float(latest) - float(horizon)
    drop = 0
    while drop < len(events) and float(events[drop][0]) <= cutoff:
        drop += 1
    return events[drop:] if drop else events


def _merge_keyed(base: List[Sequence], updates: List[Sequence]) -> list:
    """Replace/extend per-pair rows, re-emitting in snapshot order.

    ``base`` and ``updates`` are ``(first, second, ...)`` rows keyed by
    their canonical pair; the result is sorted exactly like the
    components' ``snapshot()`` methods sort (canonical pairs order as
    their ``(first, second)`` tuples).
    """
    table: Dict[Tuple, Sequence] = {tuple(row[:2]): row for row in base}
    for row in updates:
        table[tuple(row[:2])] = row
    return [table[key] for key in sorted(table)]


def _merge_histories(
    base: List[tuple], samples: List[list], history_length: int,
) -> List[tuple]:
    """Extend per-pair correlation series with their delta points.

    ``base`` rows are ``(first, second, timestamps, values)``;
    ``samples`` are ``[timestamp, pairs, values]``, one record per
    evaluation since the base.  Extending each series in record order and
    re-trimming to ``history_length`` reproduces the live ring bit for bit
    (a pair sampled more often than its ring holds keeps the tail that
    survived); a new pair starts an empty ring.
    """
    table: Dict[Tuple[str, str], tuple] = {
        tuple(row[:2]): row for row in base
    }
    for timestamp, pairs, values in samples:
        for pair, value in zip(pairs, values):
            key = tuple(pair)
            row = table.get(key)
            if row is None:
                row = table[key] = (key[0], key[1], [], [])
            row[2].append(timestamp)
            row[3].append(value)
    return [
        (first, second, timestamps[-history_length:],
         values[-history_length:])
        for first, second, timestamps, values
        in (table[key] for key in sorted(table))
    ]


def _named(tags: List[str], rows: List[list]) -> List[List[str]]:
    """``rows`` of positions into a delta's ``tags`` table, as tag names."""
    return [names(tags, row) for row in rows]


def _replay_count_rows(
    count_history: Mapping[str, list], rows: List[Mapping[str, int]],
    history_length: int,
) -> Dict[str, List[int]]:
    """Replay per-evaluation tag-count rows through the one shared rule."""
    history: Dict[str, Any] = {
        str(tag): deque((int(v) for v in values), maxlen=int(history_length))
        for tag, values in count_history.items()
    }
    for row in rows:
        record_count_history(history, row, int(history_length))
    return {tag: list(values) for tag, values in history.items()}


def _fold_window(
    window: Mapping[str, Any], events: List[Sequence], latest,
) -> dict:
    """A tag window state extended by ``(timestamp, tags)`` events and
    evicted at its new ``latest``, re-encoded."""
    horizon = window["horizon"]
    merged = window_events(window)
    merged.extend(events)
    return window_state(
        horizon, latest, evict_events(merged, latest, float(horizon))
    )


def _fold_rankings(state: dict, rankings: List[Mapping[str, Any]]) -> None:
    """Append a delta's named rankings to the base's ranking history,
    under the engine's ``max_ranking_history`` bound."""
    history = ranking_history_from_state(state["rankings"])
    history.extend(map(ranking_from_state, rankings))
    limit = (state.get("config") or {}).get("max_ranking_history")
    if limit is not None and len(history) > int(limit):
        history = history[-int(limit):]
    state["rankings"] = ranking_history_state(history)


def _upgrade_window(window: dict) -> dict:
    """A version-1 tag window (tags spelled per event) at version 2."""
    if window.get("version") != 1:
        return window
    return window_state(window["horizon"], window["latest"], window["events"])


def _upgrade_tracker(tracker: dict) -> None:
    """Bring a tracker state to version 3, in place.

    Version 1 loses its candidate table (for its ``min_support``) and its
    pair events; version 2 its usage events, and its window and histories
    are re-encoded with tables (a series' ``maxlen`` was the tracker's
    ``history_length``).
    """
    if tracker.get("version") == 1:
        tracker["version"] = 2
        tracker["min_support"] = int(tracker.pop("candidates")["min_support"])
        del tracker["pair_events"]
    if tracker.get("version") != 2:
        return
    tracker["version"] = 3
    tracker.pop("usage_events", None)
    tracker["tag_window"] = _upgrade_window(tracker["tag_window"])
    length = int(tracker["history_length"])
    tracker.update(histories_state(
        (first, second, series["timestamps"][-length:],
         series["values"][-length:])
        for first, second, series in tracker["histories"]
    ))


def _upgrade_detector(detector: dict) -> None:
    """Bring a version-1 detector state (tags and times spelled per row)
    to version 2, in place."""
    if detector.get("version") != 1:
        return
    detector["version"] = 2
    detector.update(scores_state(detector["scores"]))


def upgrade_engine_state(state: dict) -> dict:
    """Bring an older engine state to the current layout, in place.

    A configuration that still carries the sketch tier's fields loses
    them if it describes exact tracking: ``tracking`` other than
    ``"tiered"``, or a ``promote_support`` below 2, which never built a
    tier.  Any other is refused with
    :class:`~repro.persistence.snapshot.SnapshotMismatchError`: the tier
    is gone, and its admitted pairs are not the exact engine's state.
    A version-1 engine's named rankings become a ranking history with a
    tag table, and its coordinator window (sharded) gets its tables; each
    tracker is brought to version 3 and each detector to version 2 (see
    :func:`_upgrade_tracker`).  Any other state passes through untouched.
    """
    kind = state.get("kind") if isinstance(state, Mapping) else None
    if kind == "enblogue":
        components = [state]
    elif kind == "sharded-enblogue":
        components = state["shards"]
    else:
        return state
    config = state.get("config")
    if isinstance(config, dict) and not config.keys().isdisjoint(_TIER_FIELDS):
        if (config.get("tracking") == "tiered"
                and int(config.get("promote_support", 0)) >= 2):
            raise SnapshotMismatchError(
                "checkpoint was taken under tiered tracking "
                f"(promote_support={config['promote_support']}); the sketch "
                "tier has been removed and its state cannot restore into "
                "exact tracking: replay the stream to take a new checkpoint"
            )
        for name in _TIER_FIELDS:
            config.pop(name, None)
    if state.get("version") == 1:
        state["version"] = 2
        state["rankings"] = ranking_history_state(
            [ranking_from_state(ranking) for ranking in state["rankings"]]
        )
        if kind == "sharded-enblogue":
            state["tag_window"] = _upgrade_window(state["tag_window"])
    for component in components:
        if not isinstance(component, dict):
            continue
        if isinstance(component.get("tracker"), dict):
            _upgrade_tracker(component["tracker"])
        if isinstance(component.get("detector"), dict):
            _upgrade_detector(component["detector"])
    return state


def apply_tracker_delta(state: dict, delta: Mapping[str, Any]) -> dict:
    """Fold a tracker delta onto a tracker snapshot dict.

    A document event in the delta names only its ordered tag set, which
    extends the tag window; restore derives the document's pair and usage
    events.  The pair events an older shard delta carries, and the usage
    events every delta carries, are skipped.
    """
    require_state(state, "correlation-tracker", 3)
    require_state(delta, "correlation-tracker-delta", (1, 2))
    table = delta["tags"]
    if delta["version"] == 1:
        # Still folded — a stopped server always leaves a journal tick
        # behind: tags and pairs spelled in place as positions in ``tags``,
        # history points as ``[first, second, value]`` rows per timestamp.
        payloads = [
            names(table, payload) if kind == _DELTA_DOC
            else _named(table, payload)
            for kind, _, payload in delta["events"]
        ]
        samples = [
            [timestamp, _named(table, [row[:2] for row in rows]),
             [row[2] for row in rows]]
            for timestamp, rows in delta["histories"]
        ]
    else:
        tag_sets = _named(table, delta["tag_sets"])
        pair_table = _named(table, delta["pairs"])
        payloads = [
            list(tag_sets[payload]) if kind == _DELTA_DOC
            else [list(pair_table[position]) for position in payload]
            for kind, _, payload in delta["events"]
        ]
        samples = [
            [timestamp, [pair_table[position] for position in positions],
             values]
            for timestamp, positions, values in delta["samples"]
        ]
    latest = delta["latest"]
    state["tag_window"] = _fold_window(
        state["tag_window"],
        [(timestamp, payload)
         for (kind, timestamp, _), payload in zip(delta["events"], payloads)
         if kind == _DELTA_DOC],
        delta["tag_window_latest"],
    )
    state["min_support"] = int(delta["min_support"])
    history_length = int(state["history_length"])
    state.update(histories_state(_merge_histories(
        histories_from_state(state), samples, history_length,
    )))
    state["count_history"] = _replay_count_rows(
        state["count_history"], delta["count_rows"], history_length,
    )
    state["documents_seen"] = int(delta["documents_seen"])
    state["latest"] = latest
    return state


def apply_detector_delta(state: dict, delta: Mapping[str, Any]) -> dict:
    """Fold a shift-detector delta (dirty decayed-score rows) onto a base.

    The delta names each dirty pair once (``pairs``, positions into its
    ``tags`` table) with its absolute state in the parallel ``values`` /
    ``last_updates`` columns (version 1: ``[first, second, value]`` rows
    grouped under their ``last_update``); the merge replaces entries.
    """
    require_state(state, "shift-detector", 2)
    require_state(delta, "shift-detector-delta", (1, 2))
    tags = delta["tags"]
    if delta["version"] == 1:
        updates = [
            [tags[first], tags[second], value, last_update]
            for last_update, rows in delta["scores"]
            for first, second, value in rows
        ]
    else:
        updates = [
            [tags[first], tags[second], value, last_update]
            for (first, second), value, last_update in zip(
                delta["pairs"], delta["values"], delta["last_updates"]
            )
        ]
    state.update(scores_state(
        _merge_keyed(scores_from_state(state), updates)
    ))
    return state


def apply_builder_delta(state: dict, delta: Mapping[str, Any]) -> dict:
    """Adopt the ranking policy carried by a builder delta (tiny, absolute)."""
    require_state(state, "ranking-builder", 1)
    require_state(delta, "ranking-builder-delta", 1)
    state["top_k"] = int(delta["top_k"])
    state["min_score"] = float(delta["min_score"])
    return state


def apply_worker_delta(state: dict, delta: Mapping[str, Any]) -> dict:
    """Fold a shard-worker delta onto one shard's snapshot dict."""
    require_state(state, "shard-worker", 1)
    require_state(delta, "shard-worker-delta", (1, 2))
    if state.get("shard_id") != delta.get("shard_id"):
        raise SnapshotMismatchError(
            f"shard-worker delta is addressed to shard "
            f"{delta.get('shard_id')!r} but the base snapshot belongs to "
            f"shard {state.get('shard_id')!r}"
        )
    state["tracker"] = apply_tracker_delta(state["tracker"], delta["tracker"])
    state["detector"] = apply_detector_delta(
        state["detector"], delta["detector"]
    )
    state["builder"] = apply_builder_delta(state["builder"], delta["builder"])
    return state


def _apply_base_bookkeeping(state: dict, delta: Mapping[str, Any]) -> None:
    """The boundary bookkeeping shared by both engines: absolute + append."""
    state["documents_processed"] = int(delta["documents_processed"])
    state["current_seeds"] = list(delta["current_seeds"])
    state["next_evaluation"] = delta["next_evaluation"]
    _fold_rankings(state, delta["rankings"])


def apply_engine_delta(state: dict, delta: Mapping[str, Any]) -> dict:
    """Fold one engine-level journal delta onto an engine snapshot dict.

    Dispatches on the base's ``kind`` (``enblogue`` / ``sharded-enblogue``)
    and validates the delta matches; the sharded fold requires one shard
    delta per base shard (a chain never changes the shard count — restore
    into a different count re-partitions the *merged* state afterwards,
    exactly as for a full checkpoint).
    """
    kind = state.get("kind") if isinstance(state, Mapping) else None
    if kind == "enblogue":
        require_state(state, "enblogue", 2)
        require_state(delta, "enblogue-delta", 1)
        _apply_base_bookkeeping(state, delta)
        state["tracker"] = apply_tracker_delta(
            state["tracker"], delta["tracker"]
        )
        state["detector"] = apply_detector_delta(
            state["detector"], delta["detector"]
        )
        state["builder"] = apply_builder_delta(
            state["builder"], delta["builder"]
        )
        return state
    if kind == "sharded-enblogue":
        # Version 3 names each distinct ordered tag set once ("tag_sets",
        # an event is a position into it), as the tracker deltas do;
        # version 2 spelled an event's tag positions in place; version-1
        # journals predate the "tags" table and fail the envelope check.
        require_state(state, "sharded-enblogue", 2)
        require_state(delta, "sharded-enblogue-delta", (2, 3))
        tags = delta["tags"]
        tag_sets = delta["tag_sets"] if delta["version"] == 3 else None
        tag_events = [
            [timestamp, [
                tags[position] for position in
                (payload if tag_sets is None else tag_sets[payload])
            ]]
            for timestamp, payload in delta["tag_events"]
        ]
        _apply_base_bookkeeping(state, delta)
        latest = delta["latest"]
        state["latest"] = latest
        state["tag_window"] = _fold_window(
            state["tag_window"], tag_events, delta["tag_window_latest"]
        )
        config = state.get("config") or {}
        state["count_history"] = _replay_count_rows(
            state["count_history"], delta["count_rows"],
            int(config["history_length"]),
        )
        state["builder"] = apply_builder_delta(
            state["builder"], delta["builder"]
        )
        base_shards = state["shards"]
        shard_deltas = delta["shards"]
        if len(shard_deltas) != len(base_shards):
            raise SnapshotMismatchError(
                f"delta carries {len(shard_deltas)} shard state(s) but the "
                f"base checkpoint holds {len(base_shards)}; a delta chain "
                f"cannot change the shard count"
            )
        state["shards"] = [
            apply_worker_delta(shard_state, shard_delta)
            for shard_state, shard_delta in zip(base_shards, shard_deltas)
        ]
        return state
    raise SnapshotMismatchError(
        f"cannot apply a journal delta to engine kind {kind!r}; this build "
        f"folds ['enblogue', 'sharded-enblogue'] states"
    )
