"""Restore-time re-partitioning of checkpointed shard state.

A checkpoint taken with N shards can be restored into M: every statistic a
shard holds is keyed by a canonical pair (windowed pair events, postings
counts, correlation histories, decayed shift scores), so the whole state
re-routes through the same stable CRC-32 hash
(:class:`~repro.sharding.partitioner.PairPartitioner`) that partitioned
the live stream.  The merged union of the old shards' states equals the
single-engine state, and splitting that union M ways reproduces exactly
the per-pair state a from-scratch M-shard run would hold — which is why a
re-sharded resume stays bit-identical.

This is the offline half of the ROADMAP's live-rebalancing item: changing
the shard count of a running deployment now only needs the online transfer
of this same re-routing, not a cold replay.
"""

from __future__ import annotations

import heapq
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.types import TagPair
from repro.persistence.delta import derive_candidates, evict_events
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
    # Usage distributions and count histories are tag-level, document-scoped
    # statistics; shard trackers never populate them (the coordinator owns
    # both), so their presence means this is not a shard-worker checkpoint.
    if tracker_state.get("usage_events") or tracker_state.get("count_history"):
        raise SnapshotMismatchError(
            f"shard {index} carries tag-level usage/count-history state, "
            f"which cannot be re-partitioned by pair; only shard-worker "
            f"checkpoints can be re-sharded"
        )


def reshard_worker_states(
    states: Sequence[Mapping[str, Any]], num_shards: int
) -> List[dict]:
    """Re-partition shard-worker snapshots into ``num_shards`` new ones.

    ``states`` are :meth:`~repro.sharding.worker.ShardWorker.snapshot`
    dicts (any count ≥ 1); the result is one snapshot per new shard,
    addressed ``shard_id = 0..num_shards-1``, ready for
    ``ShardBackend.restore_states``.  Deterministic: the same input always
    produces byte-identical output (events merge in stable timestamp
    order, per-pair tables are emitted sorted).
    """
    if not states:
        raise SnapshotMismatchError("cannot re-shard an empty state list")
    for state in states:
        require_state(state, "shard-worker", 1)
    trackers = [state["tracker"] for state in states]
    detectors = [state["detector"] for state in states]
    candidates = [tracker["candidates"] for tracker in trackers]
    for tracker in trackers:
        require_state(tracker, "correlation-tracker", 1)
    _require_agreement(trackers, _TRACKER_FINGERPRINT, "tracker")
    _require_agreement(detectors, _DETECTOR_FINGERPRINT, "detector")
    _require_agreement(
        candidates, ("min_support",), "candidate-index"
    )
    for index, tracker in enumerate(trackers):
        _require_pair_only(tracker, index)

    partitioner = PairPartitioner(num_shards)

    def owner(pair_state: Sequence[str]) -> int:
        return partitioner.shard_of(TagPair(str(pair_state[0]), str(pair_state[1])))

    latests = [
        tracker["latest"] for tracker in trackers
        if tracker["latest"] is not None
    ]
    latest: Optional[float] = max(latests) if latests else None
    horizon = trackers[0]["tag_window"]["horizon"]

    # Pair events: merge the old shards' time-ordered event lists into one
    # stream (stable for equal timestamps), then split each event's pairs by
    # the new partitioner.  Granularity may differ from a from-scratch run —
    # one document can appear as two same-timestamp events on a new shard —
    # but counts, eviction times and per-pair state are identical, which is
    # all the detection math reads.  The windows' one eviction rule runs
    # against the merged clock first: a shard last advanced earlier may
    # hold events no tracker at that clock can (its next ingest, or a
    # journal fold, would evict them).
    new_events: List[List[list]] = [[] for _ in range(num_shards)]
    merged = evict_events(
        list(heapq.merge(
            *(tracker["pair_events"] for tracker in trackers),
            key=lambda event: event[0],
        )),
        latest, trackers[0]["window_horizon"],
    )
    for timestamp, pairs in merged:
        split: Dict[int, list] = {}
        for pair_state in pairs:
            split.setdefault(owner(pair_state), []).append(list(pair_state))
        for shard_id, shard_pairs in split.items():
            new_events[shard_id].append([timestamp, shard_pairs])

    new_histories: List[list] = [[] for _ in range(num_shards)]
    for tracker in trackers:
        for entry in tracker["histories"]:
            new_histories[owner(entry)].append(entry)

    new_scores: List[list] = [[] for _ in range(num_shards)]
    for detector in detectors:
        for entry in detector["scores"]:
            new_scores[owner(entry)].append(entry)

    resharded: List[dict] = []
    for shard_id in range(num_shards):
        tracker_state = {
            "kind": "correlation-tracker",
            "version": 1,
            **{key: trackers[0][key] for key in _TRACKER_FINGERPRINT},
            # Event counts are the pair-restricted notion of documents_seen.
            "documents_seen": len(new_events[shard_id]),
            "latest": latest,
            # Shard trackers never ingest documents, so their tag windows
            # hold no events — only the advanced stream clock.
            "tag_window": {
                "kind": "tag-frequency-window",
                "version": 1,
                "horizon": horizon,
                "latest": latest,
                "events": [],
            },
            "pair_events": new_events[shard_id],
            # The counts are the pair multiset of the events that survived.
            "candidates": {"min_support": candidates[0]["min_support"]},
            "usage_events": [],
            "histories": sorted(new_histories[shard_id],
                                key=lambda entry: (entry[0], entry[1])),
            "count_history": {},
        }
        derive_candidates(tracker_state)
        detector_state = {
            "kind": "shift-detector",
            "version": 1,
            **{key: detectors[0][key] for key in _DETECTOR_FINGERPRINT},
            "scores": sorted(new_scores[shard_id],
                             key=lambda entry: (entry[0], entry[1])),
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
