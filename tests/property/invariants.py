"""``check_invariants()`` on whatever a restore, journal fold or re-shard made.

A live single engine is checked in place.  A sharded engine checks its
coordinator in place (buffers, clocks, memo); its trackers live behind its
backend and a folded journal is only a dict, so both are checked through
their snapshot: every tracker state in it is restored into a fresh tracker
(``restore`` adopts a state as it stands — it does not evict) and that
tracker's invariants are run.  An unreachable state then fails where it
was made, naming the pair, instead of three steps later as a dict diff.
"""

from repro.core.tracker import CorrelationTracker
from repro.sketches.tier import SketchTier


def check_invariants(engine_or_state):
    tracker = getattr(engine_or_state, "tracker", None)
    if tracker is not None:
        tracker.check_invariants()
        return
    state = engine_or_state
    if not isinstance(state, dict):
        engine_or_state.check_invariants()  # the sharded coordinator's own
        state = engine_or_state.snapshot()
    if state["kind"] == "sharded-enblogue":
        tracker_states = [shard["tracker"] for shard in state["shards"]]
    else:
        tracker_states = [state["tracker"]]
    for tracker_state in tracker_states:
        tier = tracker_state.get("tier")
        tracker = CorrelationTracker(
            window_horizon=tracker_state["window_horizon"],
            history_length=tracker_state["history_length"],
            use_entities=tracker_state["use_entities"],
            track_usage=tracker_state["track_usage"],
            tier=None if tier is None else SketchTier.from_snapshot(tier),
        )
        tracker.restore(tracker_state)
        tracker.check_invariants()
