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
from typing import Any, Dict, List, Mapping, Tuple

from repro.core.tracker import _DELTA_DOC
from repro.persistence.snapshot import SnapshotMismatchError, require_state
from repro.sketches.tier import SketchTier
from repro.windows.striped import record_count_history


def _require_delta(state: Any, kind: str, version: int = 1) -> Mapping[str, Any]:
    return require_state(state, kind, version)


def _evict_events(events: List[list], latest, horizon: float) -> List[list]:
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
    base: List[list], groups: List[list], tags: List[str],
    history_length: int,
) -> List[list]:
    """Extend per-pair correlation series with their delta points.

    ``base`` rows are ``[first, second, series_snapshot]``; ``groups``
    are ``[timestamp, [[first_idx, second_idx, value], ...]]`` — the
    points appended since the base, grouped under their evaluation
    timestamp, tag names interned through ``tags``.  Extending each
    series in group order and re-trimming to its ``maxlen`` reproduces
    the live bounded ring bit for bit (``maxlen`` appended points are the
    whole ring); new pairs start an empty ring bounded to the tracker's
    ``history_length``.
    """
    table: Dict[Tuple[str, str], list] = {
        tuple(row[:2]): row for row in base
    }
    for timestamp, rows in groups:
        for first_idx, second_idx, value in rows:
            key = (tags[first_idx], tags[second_idx])
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

    A document event in the delta carries only the ordered tag set; its
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
    _require_delta(delta, "correlation-tracker-delta")
    horizon = float(state["window_horizon"])
    latest = delta["latest"]
    table = delta["tags"]

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
    for kind, timestamp, payload in delta["events"]:
        if kind == _DELTA_DOC:
            tags = [table[index] for index in payload]
            window_events.append([timestamp, tags])
            pairs = [
                (tags[i], tags[j])
                for i in range(len(tags))
                for j in range(i + 1, len(tags))
            ]
            if tier is not None and pairs:
                pairs = tier.filter_pairs(timestamp, pairs)
            events.append(
                [timestamp, [[first, second] for first, second in pairs]]
            )
        else:
            events.append([timestamp, [
                [table[first_idx], table[second_idx]]
                for first_idx, second_idx in payload
            ]])
    events = _evict_events(events, latest, horizon)
    state["pair_events"] = events

    state["candidates"]["min_support"] = int(delta["min_support"])
    if derive:
        derive_candidates(state)

    usage = list(state["usage_events"])
    usage.extend(delta["usage_events"])
    state["usage_events"] = _evict_events(usage, latest, horizon)

    window_latest = delta["tag_window_latest"]
    window["events"] = _evict_events(
        window_events, window_latest, float(window["horizon"])
    )
    window["latest"] = window_latest

    state["histories"] = _merge_histories(
        list(state["histories"]), list(delta["histories"]), table,
        int(state["history_length"]),
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

    Delta rows arrive grouped under their shared ``last_update`` with tag
    names interned through the delta's ``tags`` table; each carries the
    pair's absolute state, so the merge replaces table entries outright.
    """
    require_state(state, "shift-detector", 1)
    _require_delta(delta, "shift-detector-delta")
    tags = delta["tags"]
    updates = [
        [tags[first_idx], tags[second_idx], value, last_update]
        for last_update, rows in delta["scores"]
        for first_idx, second_idx, value in rows
    ]
    state["scores"] = _merge_keyed(list(state["scores"]), updates)
    return state


def apply_builder_delta(state: dict, delta: Mapping[str, Any]) -> dict:
    """Adopt the ranking policy carried by a builder delta (tiny, absolute)."""
    require_state(state, "ranking-builder", 1)
    _require_delta(delta, "ranking-builder-delta")
    state["top_k"] = int(delta["top_k"])
    state["min_score"] = float(delta["min_score"])
    return state


def apply_worker_delta(
    state: dict, delta: Mapping[str, Any], derive: bool = True
) -> dict:
    """Fold a shard-worker delta onto one shard's snapshot dict."""
    require_state(state, "shard-worker", 1)
    _require_delta(delta, "shard-worker-delta")
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
        _require_delta(delta, "enblogue-delta")
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
        # Version 2 interned the coordinator's tag events (one string
        # table per delta, events reference it by index) — the same
        # encoding the tracker deltas use; version-1 journals predate the
        # table and are rejected by the envelope check below.
        _require_delta(delta, "sharded-enblogue-delta", 2)
        _apply_base_bookkeeping(state, delta)
        latest = delta["latest"]
        state["latest"] = latest
        table = delta["tags"]
        window = state["tag_window"]
        window_events = list(window["events"])
        window_events.extend(
            [timestamp, [table[index] for index in indices]]
            for timestamp, indices in delta["tag_events"]
        )
        window["events"] = _evict_events(
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
            for timestamp, indices in delta["tag_events"]:
                if len(indices) < 2:
                    continue
                tags = [table[index] for index in indices]
                for i in range(len(tags)):
                    for j in range(i + 1, len(tags)):
                        tier.admit(timestamp, tags[i], tags[j])
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
