"""Restore-time re-partitioning of checkpointed shard state.

A checkpoint taken with N shards can be restored into M: every statistic a
shard's snapshot holds is keyed by a canonical pair (correlation
histories, decayed shift scores), so it re-routes through the same stable
CRC-32 hash (:class:`~repro.sharding.partitioner.PairPartitioner`) that
partitioned the live stream.  A shard's windowed pair events are not
re-partitioned here: the coordinator derives them on restore by routing
its own tag-window events through the new partitioner, exactly as a
from-scratch M-shard run would have routed them.  The merged union of
the old shards' states equals the single-engine state, and splitting it M
ways reproduces the per-pair state a from-scratch M-shard run would hold —
which is why a re-sharded resume stays bit-identical.

This is the offline half of the ROADMAP's live-rebalancing item: changing
the shard count of a running deployment now only needs the online transfer
of this same re-routing, not a cold replay.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, List, Mapping, Optional, Sequence

from repro.core.shift import scores_from_state, scores_state
from repro.core.tracker import histories_from_state, histories_state
from repro.core.types import canonical_pair
from repro.persistence.snapshot import (
    SnapshotMismatchError,
    require_state,
)
from repro.sharding.partitioner import PairPartitioner

#: Tracker parameters every shard of one checkpoint must agree on.
_TRACKER_FINGERPRINT = (
    "window_horizon",
    "history_length",
    "use_entities",
    "track_usage",
    "min_support",
)

#: Detector parameters every shard of one checkpoint must agree on.
_DETECTOR_FINGERPRINT = ("min_history", "penalize_drops", "decay_half_life")


def _require_agreement(
    states: Sequence[Mapping[str, Any]], keys: Sequence[str], component: str
) -> None:
    reference = states[0]
    for index, state in enumerate(states[1:], start=1):
        for key in keys:
            if state.get(key) != reference.get(key):
                raise SnapshotMismatchError(
                    f"shard states disagree on {component} parameter "
                    f"{key!r}: shard 0 has {reference.get(key)!r}, shard "
                    f"{index} has {state.get(key)!r} — not one checkpoint?"
                )


def _require_pair_only(tracker_state: Mapping[str, Any], index: int) -> None:
    # Windowed documents (whose usage updates the tracker derives) and count
    # histories are tag-level, document-scoped statistics; shard trackers
    # never populate them (the coordinator owns both), so their presence
    # means this is not a shard-worker checkpoint.
    if (tracker_state["tag_window"].get("events")
            or tracker_state.get("count_history")):
        raise SnapshotMismatchError(
            f"shard {index} carries tag-level window/count-history state, "
            f"which cannot be re-partitioned by pair; only shard-worker "
            f"checkpoints can be re-sharded"
        )


def reshard_worker_states(
    states: Sequence[Mapping[str, Any]], num_shards: int
) -> List[dict]:
    """Re-partition shard-worker snapshots into ``num_shards`` new ones.

    ``states`` are :meth:`~repro.sharding.worker.ShardWorker.snapshot`
    dicts (any count ≥ 1), with or without their pair events; the result
    is one snapshot per new shard, addressed ``shard_id = 0..num_shards-1``,
    without pair events and with an event count of 0 — the coordinator
    sets both from the events it routes to the shard before handing the
    states to ``ShardBackend.restore_states``.  Deterministic: the same
    input always produces byte-identical output (per-pair tables are
    emitted sorted).
    """
    if not states:
        raise SnapshotMismatchError("cannot re-shard an empty state list")
    for state in states:
        require_state(state, "shard-worker", 1)
    trackers = [state["tracker"] for state in states]
    detectors = [state["detector"] for state in states]
    for tracker in trackers:
        require_state(tracker, "correlation-tracker", 3)
    for detector in detectors:
        require_state(detector, "shift-detector", 2)
    _require_agreement(trackers, _TRACKER_FINGERPRINT, "tracker")
    _require_agreement(detectors, _DETECTOR_FINGERPRINT, "detector")
    for index, tracker in enumerate(trackers):
        _require_pair_only(tracker, index)

    partitioner = PairPartitioner(num_shards)

    def owner(row: Sequence[Any]) -> int:
        return partitioner.shard_of(canonical_pair(row[0], row[1]))

    latests = [
        tracker["latest"] for tracker in trackers
        if tracker["latest"] is not None
    ]
    latest: Optional[float] = max(latests) if latests else None

    new_histories: List[list] = [[] for _ in range(num_shards)]
    for tracker in trackers:
        for row in histories_from_state(tracker):
            new_histories[owner(row)].append(row)

    new_scores: List[list] = [[] for _ in range(num_shards)]
    for detector in detectors:
        for row in scores_from_state(detector):
            new_scores[owner(row)].append(row)

    resharded: List[dict] = []
    for shard_id in range(num_shards):
        # Shard trackers never ingest documents (their tag windows hold no
        # events, only the stream clock) nor keep tag-level usage or count
        # history, so shard 0's state is every new shard's but for the
        # event count, the clocks and the per-pair tables.
        tracker = trackers[0]
        tracker_state = {
            **{key: value for key, value in tracker.items()
               if key != "pair_events"},
            "documents_seen": 0,
            "latest": latest,
            "tag_window": {**tracker["tag_window"], "latest": latest},
            **histories_state(sorted(new_histories[shard_id],
                                     key=itemgetter(0, 1))),
        }
        detector_state = {
            **detectors[0],
            **scores_state(sorted(new_scores[shard_id],
                                  key=itemgetter(0, 1))),
        }
        resharded.append({
            "kind": "shard-worker",
            "version": 1,
            "shard_id": shard_id,
            "tracker": tracker_state,
            "detector": detector_state,
            "builder": dict(states[0]["builder"]),
        })
    return resharded
