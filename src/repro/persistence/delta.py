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
* **Derived state is recomputed.**  The candidate postings counts are by
  construction the pair multiset of the live pair events, so the merged
  events determine them exactly — the delta only carries the (mutable)
  ``min_support`` threshold.

Apply functions treat their inputs as consumable and may mutate/alias
them; callers needing the originals must copy first (the store's reader
owns its freshly decoded dicts, which is the intended call site).
"""

from __future__ import annotations

from collections import Counter, deque
from itertools import combinations
from typing import Any, Dict, List, Mapping, Tuple

from repro.core.tracker import _DELTA_DOC
from repro.persistence.snapshot import SnapshotMismatchError, require_state
from repro.sketches.tier import SketchTier
from repro.windows.aggregates import record_count_history


def evict_events(events: List[list], latest, horizon: float) -> List[list]:
    """Drop leading events at or past the horizon, the windows' one rule."""
    if latest is None:
        return events
    cutoff = float(latest) - float(horizon)
    drop = 0
    while drop < len(events) and float(events[drop][0]) <= cutoff:
        drop += 1
    return events[drop:] if drop else events


def _merge_keyed(base: List[list], updates: List[list]) -> List[list]:
    """Replace/extend per-pair table entries, re-emitting in snapshot order.

    ``base`` and ``updates`` are lists of ``[first, second, ...]`` rows,
    keyed by their canonical pair; the result is sorted exactly like the
    components' ``snapshot()`` methods sort (canonical pairs order as
    their ``(first, second)`` tuples).
    """
    table: Dict[Tuple, list] = {tuple(row[:2]): row for row in base}
    for row in updates:
        table[tuple(row[:2])] = row
    return [table[key] for key in sorted(table)]


def _merge_histories(
    base: List[list], samples: List[list], history_length: int,
) -> List[list]:
    """Extend per-pair correlation series with their delta points.

    ``base`` rows are ``[first, second, series_snapshot]``; ``samples``
    are ``[timestamp, pairs, values]``, one record per evaluation since
    the base.  Extending each series in record order and re-trimming to
    its ``maxlen`` reproduces the live ring bit for bit (a pair sampled
    more often than its ring holds keeps the tail that survived); a new
    pair starts an empty ring bounded to the tracker's ``history_length``.
    """
    table: Dict[Tuple[str, str], list] = {
        tuple(row[:2]): row for row in base
    }
    for timestamp, pairs, values in samples:
        for pair, value in zip(pairs, values):
            key = tuple(pair)
            row = table.get(key)
            if row is None:
                row = table[key] = [key[0], key[1], {
                    "kind": "timeseries",
                    "version": 1,
                    "maxlen": int(history_length),
                    "timestamps": [],
                    "values": [],
                }]
            series = row[2]
            series["timestamps"].append(timestamp)
            series["values"].append(value)
    for row in table.values():
        series = row[2]
        maxlen = series.get("maxlen")
        if maxlen is not None and len(series["timestamps"]) > int(maxlen):
            series["timestamps"] = series["timestamps"][-int(maxlen):]
            series["values"] = series["values"][-int(maxlen):]
    return [table[key] for key in sorted(table)]


def _named(tags: List[str], rows: List[list]) -> List[List[str]]:
    """``rows`` of positions into a delta's ``tags`` table, as tag names."""
    return [[tags[position] for position in row] for row in rows]


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


def derive_candidates(tracker_state: dict) -> dict:
    """Recompute a tracker state's candidate postings from its live events.

    The candidate counts are by construction the pair multiset of the
    live pair events, so this is the one derivation a folded chain needs;
    it costs O(window) and is therefore run once per restore
    (:func:`apply_tracker_delta` with ``derive=False`` defers it), not
    once per folded segment.
    """
    counts: Counter = Counter()
    for _, pairs in tracker_state["pair_events"]:
        counts.update(tuple(pair) for pair in pairs)
    tracker_state["candidates"] = {
        "kind": "candidate-index",
        "version": 1,
        "min_support": int(tracker_state["candidates"]["min_support"]),
        "pairs": [[first, second, count]
                  for (first, second), count in sorted(counts.items())],
    }
    return tracker_state


def finalize_engine_state(state: dict) -> dict:
    """Run the deferred per-restore derivations on a folded engine state.

    The inverse bracket of folding segments with ``derive=False``: call
    once after the last fold (the store's reader does) and the state is
    indistinguishable from one produced by fully-deriving folds.
    """
    kind = state.get("kind") if isinstance(state, Mapping) else None
    if kind == "enblogue":
        derive_candidates(state["tracker"])
    elif kind == "sharded-enblogue":
        for shard_state in state["shards"]:
            derive_candidates(shard_state["tracker"])
    return state


def apply_tracker_delta(
    state: dict, delta: Mapping[str, Any], derive: bool = True
) -> dict:
    """Fold a tracker delta onto a tracker snapshot dict.

    A document event in the delta names only its ordered tag set; its
    tag-window entry and its pair list — every ``(i, j)`` combination of
    the sorted tags, the one decomposition rule of the system — are
    derived here, where restore-time cost is paid once instead of on
    every cadence tick.  ``derive=False`` additionally defers the
    O(window) candidate-postings recomputation to one
    :func:`derive_candidates` call after the *last* fold of a chain
    (only ``min_support`` is carried through), keeping an N-segment
    restore O(window + journal) instead of O(N × window).
    """
    require_state(state, "correlation-tracker", 1)
    require_state(delta, "correlation-tracker-delta", (1, 2))
    names = delta["tags"]
    if delta["version"] == 1:
        # Still folded — a stopped server always leaves a journal tick
        # behind: tags and pairs spelled in place as positions in ``names``,
        # history points as ``[first, second, value]`` rows per timestamp.
        payloads = [
            [names[position] for position in payload] if kind == _DELTA_DOC
            else _named(names, payload)
            for kind, _, payload in delta["events"]
        ]
        samples = [
            [timestamp, _named(names, [row[:2] for row in rows]),
             [row[2] for row in rows]]
            for timestamp, rows in delta["histories"]
        ]
    else:
        tag_sets = _named(names, delta["tag_sets"])
        pair_table = _named(names, delta["pairs"])
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
    horizon = float(state["window_horizon"])
    latest = delta["latest"]

    # A tiered tracker journals raw documents; re-running admission from
    # the base snapshot's tier reproduces both the admitted weighted pair
    # stream and the advanced tier state, exactly as the live run did.
    tier_state = state.get("tier")
    tier = (
        SketchTier.from_snapshot(tier_state)
        if tier_state is not None else None
    )

    events = list(state["pair_events"])
    window = state["tag_window"]
    window_events = list(window["events"])
    for (kind, timestamp, _), payload in zip(delta["events"], payloads):
        if kind == _DELTA_DOC:
            window_events.append([timestamp, payload])
            pairs = list(combinations(payload, 2))
            if tier is not None and pairs:
                pairs = tier.filter_pairs(timestamp, pairs)
            payload = list(map(list, pairs))
        events.append([timestamp, payload])
    events = evict_events(events, latest, horizon)
    state["pair_events"] = events

    state["candidates"]["min_support"] = int(delta["min_support"])
    if derive:
        derive_candidates(state)

    usage = list(state["usage_events"])
    usage.extend(delta["usage_events"])
    state["usage_events"] = evict_events(usage, latest, horizon)

    window_latest = delta["tag_window_latest"]
    window["events"] = evict_events(
        window_events, window_latest, float(window["horizon"])
    )
    window["latest"] = window_latest

    state["histories"] = _merge_histories(
        list(state["histories"]), samples, int(state["history_length"]),
    )
    state["count_history"] = _replay_count_rows(
        state["count_history"], delta["count_rows"],
        int(state["history_length"]),
    )
    state["documents_seen"] = int(delta["documents_seen"])
    state["latest"] = latest
    if tier is not None:
        state["tier"] = tier.snapshot()
    return state


def apply_detector_delta(state: dict, delta: Mapping[str, Any]) -> dict:
    """Fold a shift-detector delta (dirty decayed-score rows) onto a base.

    The delta names each dirty pair once (``pairs``, positions into its
    ``tags`` table) with its absolute state in the parallel ``values`` /
    ``last_updates`` columns (version 1: ``[first, second, value]`` rows
    grouped under their ``last_update``); the merge replaces entries.
    """
    require_state(state, "shift-detector", 1)
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
    state["scores"] = _merge_keyed(list(state["scores"]), updates)
    return state


def apply_builder_delta(state: dict, delta: Mapping[str, Any]) -> dict:
    """Adopt the ranking policy carried by a builder delta (tiny, absolute)."""
    require_state(state, "ranking-builder", 1)
    require_state(delta, "ranking-builder-delta", 1)
    state["top_k"] = int(delta["top_k"])
    state["min_score"] = float(delta["min_score"])
    return state


def apply_worker_delta(
    state: dict, delta: Mapping[str, Any], derive: bool = True
) -> dict:
    """Fold a shard-worker delta onto one shard's snapshot dict."""
    require_state(state, "shard-worker", 1)
    require_state(delta, "shard-worker-delta", 1)
    if state.get("shard_id") != delta.get("shard_id"):
        raise SnapshotMismatchError(
            f"shard-worker delta is addressed to shard "
            f"{delta.get('shard_id')!r} but the base snapshot belongs to "
            f"shard {state.get('shard_id')!r}"
        )
    state["tracker"] = apply_tracker_delta(
        state["tracker"], delta["tracker"], derive=derive
    )
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
    rankings = list(state["rankings"])
    rankings.extend(delta["rankings"])
    limit = (state.get("config") or {}).get("max_ranking_history")
    if limit is not None and len(rankings) > int(limit):
        rankings = rankings[-int(limit):]
    state["rankings"] = rankings


def apply_engine_delta(
    state: dict, delta: Mapping[str, Any], derive: bool = True
) -> dict:
    """Fold one engine-level journal delta onto an engine snapshot dict.

    Dispatches on the base's ``kind`` (``enblogue`` / ``sharded-enblogue``)
    and validates the delta matches; the sharded fold requires one shard
    delta per base shard (a chain never changes the shard count — restore
    into a different count re-partitions the *merged* state afterwards,
    exactly as for a full checkpoint).  Folding a multi-segment chain?
    Pass ``derive=False`` per fold and call :func:`finalize_engine_state`
    once at the end, as the store's reader does.
    """
    kind = state.get("kind") if isinstance(state, Mapping) else None
    if kind == "enblogue":
        require_state(delta, "enblogue-delta", 1)
        _apply_base_bookkeeping(state, delta)
        state["tracker"] = apply_tracker_delta(
            state["tracker"], delta["tracker"], derive=derive
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
        window = state["tag_window"]
        window_events = list(window["events"])
        window_events.extend(tag_events)
        window["events"] = evict_events(
            window_events, delta["tag_window_latest"], float(window["horizon"])
        )
        window["latest"] = delta["tag_window_latest"]
        # A tiered coordinator's shard deltas already carry the admitted
        # weighted pairs (shard workers are tier-less), so admission is
        # re-run here only to advance the coordinator's tier state — the
        # returned weights are deliberately discarded.
        tier_state = state.get("tier")
        if tier_state is not None:
            tier = SketchTier.from_snapshot(tier_state)
            for timestamp, tags in tag_events:
                for first, second in combinations(tags, 2):
                    tier.admit(timestamp, first, second)
            state["tier"] = tier.snapshot()
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
            apply_worker_delta(shard_state, shard_delta, derive=derive)
            for shard_state, shard_delta in zip(base_shards, shard_deltas)
        ]
        return state
    raise SnapshotMismatchError(
        f"cannot apply a journal delta to engine kind {kind!r}; this build "
        f"folds ['enblogue', 'sharded-enblogue'] states"
    )
