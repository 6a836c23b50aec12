"""Component-level snapshot round trips and their error surfaces.

Every implementer of the ``Snapshotable`` protocol must (a) round-trip its
complete state through JSON bit-identically and (b) reject snapshots that
are foreign, future-versioned or structurally incompatible — loudly, at
the door, before any state is touched.
"""

import json

import pytest

from repro.core.candidates import CandidateIndex
from repro.core.ranking import RankingBuilder
from repro.core.shift import ShiftDetector
from repro.core.tracker import CorrelationTracker, PairObservation
from repro.core.types import TagPair
from repro.persistence.snapshot import (
    Snapshotable,
    SnapshotCorruptionError,
    SnapshotMismatchError,
    SnapshotVersionError,
    require_compatible,
    require_state,
)
from repro.windows.aggregates import TagFrequencyWindow
from repro.windows.decay import DecayedMaximum, ExponentialDecay

from differential import HOUR


def json_roundtrip(state):
    """Snapshots must survive the actual serialisation they are stored in."""
    return json.loads(json.dumps(state))


def pair(a, b):
    return TagPair(a, b)


class TestEnvelopeHelpers:
    def test_require_state_accepts_matching_envelope(self):
        state = {"kind": "widget", "version": 1, "payload": 3}
        assert require_state(state, "widget", 1) is state

    def test_wrong_kind_is_a_mismatch(self):
        with pytest.raises(SnapshotMismatchError, match="expected a 'widget'"):
            require_state({"kind": "gadget", "version": 1}, "widget", 1)

    def test_future_version_is_a_version_error(self):
        with pytest.raises(SnapshotVersionError, match="version 2"):
            require_state({"kind": "widget", "version": 2}, "widget", 1)

    def test_non_mapping_is_corruption(self):
        with pytest.raises(SnapshotCorruptionError):
            require_state(["not", "a", "dict"], "widget", 1)

    def test_require_compatible_names_every_differing_key(self):
        with pytest.raises(SnapshotMismatchError) as excinfo:
            require_compatible(
                "widget", {"horizon": 10.0, "depth": 4},
                {"kind": "widget", "horizon": 20.0, "depth": 5},
            )
        message = str(excinfo.value)
        assert "horizon" in message and "depth" in message
        assert "20.0" in message and "10.0" in message


class TestTagFrequencyWindow:
    def test_roundtrip_rebuilds_counts_exactly(self):
        window = TagFrequencyWindow(10 * HOUR)
        window.add_document(0.0, ("a", "b"))
        window.add_document(HOUR, ("a",))
        window.add_document(2 * HOUR, ("b", "c"))
        restored = TagFrequencyWindow(10 * HOUR)
        restored.restore_state(json_roundtrip(window.state_dict()))
        assert restored.snapshot() == window.snapshot()
        assert restored.document_count == window.document_count
        assert restored.latest_timestamp == window.latest_timestamp
        # Eviction arithmetic continues exactly: both windows drop the same
        # documents on the same advance.
        window.advance_to(11 * HOUR)
        restored.advance_to(11 * HOUR)
        assert restored.snapshot() == window.snapshot()

    def test_horizon_mismatch_rejected(self):
        window = TagFrequencyWindow(10.0)
        window.add_document(0.0, ("a",))
        other = TagFrequencyWindow(20.0)
        with pytest.raises(SnapshotMismatchError, match="horizon"):
            other.restore_state(window.state_dict())


class TestDecayedMaximum:
    def test_state_roundtrip_decays_identically(self):
        decay = ExponentialDecay(half_life=100.0)
        maximum = DecayedMaximum(decay)
        maximum.update(10.0, 0.5)
        restored = DecayedMaximum(decay)
        restored.restore_state(*maximum.state())
        assert restored.value_at(210.0) == maximum.value_at(210.0)

    def test_negative_value_rejected(self):
        with pytest.raises(ValueError):
            DecayedMaximum().restore_state(-0.1, None)


class TestCandidateIndex:
    """A snapshot holds no candidate table: restore builds the index from
    the pair multiset of the events, through the constructor."""

    def build(self):
        index = CandidateIndex(min_support=2)
        index.add_many([pair("a", "b"), pair("a", "b"), pair("a", "c"),
                        pair("b", "c"), pair("b", "c"), pair("b", "c")])
        return index

    def test_built_from_counts_matches_incremental_index(self):
        index = self.build()
        restored = CandidateIndex(2, dict(index.items()))
        assert sorted(restored.items()) == sorted(index.items())
        assert restored.min_support == 2
        assert restored.candidates(["b"]) == index.candidates(["b"])
        # The supported set is rebuilt: the supported pairs findable from
        # both their tags, the sub-threshold (a, c) in the counts only —
        # and a removal takes a pair out for either tag.
        restored.check_invariants()
        assert restored.supported == index.supported \
            == {pair("a", "b"): -1, pair("b", "c"): -1}
        assert restored.candidates(["c"]) == [(pair("b", "c"), "c")]
        restored.remove_many([pair("b", "c")] * 3)
        assert pair("b", "c") not in restored
        assert restored.candidates(["b"]) == [(pair("a", "b"), "b")]
        assert restored.candidates(["c"]) == []
        restored.check_invariants()

    def test_building_costs_one_step_per_pair_whatever_the_count(self):
        # A count is written as a count, not replayed as that many
        # occurrences: a pair counted 10**15 times is built at once.
        restored = CandidateIndex(2, {pair("a", "b"): 10 ** 15,
                                      pair("c", "d"): 1})
        assert dict(restored.items()) \
            == {pair("a", "b"): 10 ** 15, pair("c", "d"): 1}
        # Only the pair that reaches min_support is supported.
        assert restored.supported == {pair("a", "b"): -1}
        assert restored.candidates(["a", "c"]) == [(pair("a", "b"), "a")]
        restored.check_invariants()


class TestCorrelationTracker:
    def build(self, track_usage=False):
        tracker = CorrelationTracker(
            window_horizon=6 * HOUR, min_pair_support=1,
            history_length=5, track_usage=track_usage,
        )
        tracker.observe(0.0, ["a", "b", "c"])
        tracker.observe(HOUR, ["a", "b"])
        tracker.evaluate(2 * HOUR, ["a"])
        tracker.observe(2.5 * HOUR, ["b", "c"])
        return tracker

    def fresh(self, track_usage=False):
        return CorrelationTracker(
            window_horizon=6 * HOUR, min_pair_support=1,
            history_length=5, track_usage=track_usage,
        )

    def test_roundtrip_is_bit_identical(self):
        tracker = self.build()
        restored = self.fresh()
        restored.restore(json_roundtrip(tracker.snapshot()))
        assert restored.snapshot() == tracker.snapshot()
        # Continuation is identical too: same evaluation, same histories.
        for instance in (tracker, restored):
            instance.observe(3 * HOUR, ["a", "c"])
        left = tracker.evaluate(4 * HOUR, ["a", "b"])
        right = restored.evaluate(4 * HOUR, ["a", "b"])
        assert left == right
        assert tracker.count_history() == restored.count_history()
        for candidate in tracker.tracked_pairs():
            assert list(tracker.history(candidate)) \
                == list(restored.history(candidate))

    def test_usage_distributions_roundtrip(self):
        tracker = self.build(track_usage=True)
        restored = self.fresh(track_usage=True)
        restored.restore(json_roundtrip(tracker.snapshot()))
        assert restored._usage == tracker._usage
        # Usage eviction stays exact after the round trip.
        tracker.advance_to(7 * HOUR)
        restored.advance_to(7 * HOUR)
        assert restored._usage == tracker._usage

    def test_structural_mismatch_names_the_parameter(self):
        tracker = self.build()
        other = CorrelationTracker(
            window_horizon=12 * HOUR, min_pair_support=1, history_length=5,
        )
        with pytest.raises(SnapshotMismatchError, match="window_horizon"):
            other.restore(tracker.snapshot())

    def test_conforms_to_protocol(self):
        assert isinstance(self.build(), Snapshotable)

    def test_pair_events_are_derived_not_stored(self):
        tracker = self.build()
        state = tracker.snapshot()
        assert state["version"] == 3
        assert "pair_events" not in state and "candidates" not in state
        restored = self.fresh()
        restored.restore(json_roundtrip(state))
        assert list(restored._pair_events) == list(tracker._pair_events)
        assert dict(restored.candidate_index.items()) \
            == dict(tracker.candidate_index.items())
        restored.check_invariants()

    def test_restore_replaces_previous_state(self):
        restored = self.fresh()
        restored.observe(0.0, ["x", "y"])
        restored.restore(self.fresh().snapshot())
        assert pair("x", "y") not in restored.candidate_index
        assert not restored._pair_events

    def test_tracker_fed_pair_events_keeps_them(self):
        tracker = self.fresh()
        tracker.observe_pair_events([(0.0, (pair("a", "b"),))])
        state = json_roundtrip(tracker.snapshot())
        assert state["pair_events"] == [[0.0, [["a", "b"]]]]
        restored = self.fresh()
        restored.restore(state)
        assert restored.pair_count(pair("a", "b")) == 1
        restored.check_invariants()

    def test_one_way_of_feeding(self):
        tracker = self.build()
        with pytest.raises(ValueError, match="fed documents cannot"):
            tracker.observe_pair_events([(3 * HOUR, (pair("a", "b"),))])
        assert tracker.pair_count(pair("a", "b")) == 2

    def test_version_1_is_upgraded_by_the_reader_not_restore(self):
        state = self.build().snapshot()
        state["version"] = 1
        with pytest.raises(SnapshotVersionError, match="version 3"):
            self.fresh().restore(state)


class TestShiftDetector:
    def test_roundtrip_preserves_decayed_scores(self):
        detector = ShiftDetector(min_history=1)
        observation = PairObservation(
            pair=pair("a", "b"), timestamp=100.0, correlation=0.8,
            counts=None, seed_tag="a",
        )
        detector.update(observation, [0.1, 0.2, 0.1])
        restored = ShiftDetector(min_history=1)
        restored.restore(json_roundtrip(detector.snapshot()))
        assert restored.snapshot() == detector.snapshot()
        assert restored.score_at(pair("a", "b"), 500.0) \
            == detector.score_at(pair("a", "b"), 500.0)

    def test_decay_mismatch_rejected(self):
        detector = ShiftDetector()
        other = ShiftDetector(decay=ExponentialDecay(half_life=1.0))
        with pytest.raises(SnapshotMismatchError, match="decay_half_life"):
            other.restore(detector.snapshot())


class TestRankingBuilder:
    def test_roundtrip_preserves_policy(self):
        builder = RankingBuilder(top_k=7, min_score=0.25)
        restored = RankingBuilder(top_k=3)
        restored.restore(json_roundtrip(builder.snapshot()))
        assert restored.top_k == 7
        assert restored.min_score == 0.25

    def test_invalid_policy_rejected(self):
        state = RankingBuilder(top_k=5).snapshot()
        state["top_k"] = 0
        with pytest.raises(ValueError):
            RankingBuilder().restore(state)
