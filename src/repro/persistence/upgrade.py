"""Bringing an older checkpoint's state to the current layout.

A checkpoint is read by builds newer than the one that wrote it, so every
layout change of a base state comes with its upgrade here: the sketch
tier's configuration fields go, version-1 rankings and tag windows get
their tables, trackers reach version 3 and detectors version 2.  A
restore derives what a state leaves out (a document-fed window's pair
events, the usage events, the candidate index), so an upgrade drops the
derived tables an older base still wrote.  Each upgraded table is
re-encoded through the encoder ``snapshot()`` itself writes with, so an
upgraded state equals a live one byte for byte.
"""

from __future__ import annotations

from typing import Mapping

from repro.core.shift import scores_state
from repro.core.tracker import histories_state
from repro.persistence.codec import ranking_from_state, ranking_history_state
from repro.persistence.snapshot import SnapshotMismatchError
from repro.windows.aggregates import window_state

#: The sketch tier's configuration fields, which an older checkpoint's
#: configuration may still carry.
_TIER_FIELDS = ("tracking", "promote_support", "sketch_width", "sketch_depth")


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
