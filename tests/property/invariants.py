"""``check_invariants()`` on whatever a restore, journal fold or re-shard made.

A live single engine is checked in place.  A sharded engine checks its
coordinator in place (buffers, clocks, memo); its trackers live behind its
backend, so they are checked through the complete worker states the
backend hands over.  A folded journal is only a dict: a single engine's
tracker state is restored into a fresh tracker (``restore`` adopts a state
as it stands — it does not evict, and derives what the state leaves out);
a sharded state is restored into a serial coordinator, which derives every
shard's pair events, and is checked as a live one.  An unreachable state
then fails where it was made, naming the pair, instead of three steps
later as a dict diff.
"""

from collections import Counter

from repro.core.config import EnBlogueConfig
from repro.core.tracker import CorrelationTracker
from repro.sharding import ShardedEnBlogue
from repro.sketches.tier import SketchTier


def check_invariants(engine_or_state):
    tracker = getattr(engine_or_state, "tracker", None)
    if tracker is not None:
        tracker.check_invariants()
        return
    if not isinstance(engine_or_state, dict):
        check_sharded(engine_or_state)
        return
    state = engine_or_state
    if state["kind"] == "sharded-enblogue":
        with ShardedEnBlogue(EnBlogueConfig(**state["config"]),
                             num_shards=state["num_shards"],
                             backend="serial") as engine:
            engine.restore(state)
            check_sharded(engine)
        return
    check_tracker_state(state["tracker"])


def check_sharded(engine):
    """The coordinator's own invariants, every worker's tracker, and under
    exact tracking the identity a sharded base stands on: each worker's
    pair events inside the coordinator's window are its routing of the
    windowed documents (older ones are a shard's not yet evicted, gone at
    its next advance).  A tier's admitted pairs are not derivable."""
    engine.check_invariants()
    engine.snapshot()  # flushes the buffered chunks
    worker_states = engine.backend.collect_states()
    for worker_state in worker_states:
        check_tracker_state(worker_state["tracker"])
    if engine._tier is not None:
        return
    window = engine._tag_window
    cutoff = window.latest_timestamp - window.horizon \
        if window.latest_timestamp is not None else float("-inf")
    derived = engine._shard_pair_events()
    for worker_state, events in zip(worker_states, derived):
        tracker_state = worker_state["tracker"]
        live = [
            (timestamp, tuple(map(tuple, pairs)))
            for timestamp, pairs in tracker_state.get("pair_events", ())
            if timestamp > cutoff
        ]
        assert live == [(timestamp, tuple(map(tuple, pairs)))
                        for timestamp, pairs in events], (
            f"shard {worker_state['shard_id']}'s pair events are not the "
            "routing of the coordinator's window"
        )


def check_tracker_state(tracker_state):
    restored_tracker(tracker_state).check_invariants()


def restored_tracker(tracker_state):
    tier = tracker_state.get("tier")
    tracker = CorrelationTracker(
        window_horizon=tracker_state["window_horizon"],
        history_length=tracker_state["history_length"],
        use_entities=tracker_state["use_entities"],
        track_usage=tracker_state["track_usage"],
        tier=None if tier is None else SketchTier.from_snapshot(tier),
    )
    tracker.restore(tracker_state)
    return tracker


def live_pair_state(engine):
    """The pair events and candidate counts an engine holds live — what a
    base no longer stores — as ``(sorted (timestamp, pair) occurrences,
    {pair: count})``, independent of the shard count.

    Seen at the coordinator's clock: a shard evicts what the window has
    passed only at its next advance, so its older events and their counts
    are left out.  A serial backend's live workers are read in place; any
    other backend's through the worker states it collects (their counts
    then rebuilt from their events).
    """
    if hasattr(engine, "tracker"):
        trackers, window = [engine.tracker], engine.tracker.tag_window
    else:
        engine.snapshot()  # flushes the buffered chunks
        window = engine._tag_window
        transports = engine.backend._transports
        if all(hasattr(transport, "_server") for transport in transports):
            trackers = [transport._server.worker.tracker
                        for transport in transports]
        else:
            trackers = []
            for worker_state in engine.backend.collect_states():
                trackers.append(restored_tracker(worker_state["tracker"]))
    cutoff = window.latest_timestamp - window.horizon \
        if window.latest_timestamp is not None else float("-inf")
    occurrences, counts = [], Counter()
    for tracker in trackers:
        counts.update(dict(tracker.candidate_index.items()))
        for timestamp, pairs in tracker._pair_events:
            if timestamp > cutoff:
                occurrences.extend((timestamp, tuple(pair)) for pair in pairs)
            else:
                counts.subtract(pairs)
    return sorted(occurrences), {
        tuple(pair): count for pair, count in counts.items() if count
    }
