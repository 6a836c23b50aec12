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
from repro.windows.timeseries import TimeSeries

HOUR = 3600.0


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


class TestTimeSeries:
    def test_roundtrip_preserves_points_and_bound(self):
        series = TimeSeries(maxlen=3)
        for i in range(5):
            series.append(float(i), i * 0.1)
        restored = TimeSeries.from_snapshot(json_roundtrip(series.snapshot()))
        assert list(restored) == list(series)
        assert restored.maxlen == series.maxlen
        # The bound stays live: appending still evicts the oldest point.
        restored.append(10.0, 1.0)
        assert len(restored) == 3

    def test_unbounded_series_roundtrips(self):
        series = TimeSeries(points=[(1.0, 0.5), (2.0, 0.25)])
        restored = TimeSeries.from_snapshot(json_roundtrip(series.snapshot()))
        assert list(restored) == [(1.0, 0.5), (2.0, 0.25)]
        assert restored.maxlen is None


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
    def build(self):
        index = CandidateIndex(min_support=2)
        index.add_many([pair("a", "b"), pair("a", "b"), pair("a", "c"),
                        pair("b", "c"), pair("b", "c"), pair("b", "c")])
        return index

    def test_roundtrip_preserves_postings_and_threshold(self):
        index = self.build()
        restored = CandidateIndex()
        restored.restore(json_roundtrip(index.snapshot()))
        assert sorted(restored.items()) == sorted(index.items())
        assert restored.min_support == 2
        assert restored.candidates(["b"]) == index.candidates(["b"])
        # The postings are rebuilt: the supported pairs under both their
        # tags, the sub-threshold (a, c) in the counts only — and removal
        # through one tag's postings keeps the other side consistent.
        restored.check_invariants()
        assert restored._postings == index._postings
        assert set(restored._postings["c"]) == {pair("b", "c")}
        restored.remove_many([pair("b", "c")] * 3)
        assert pair("b", "c") not in restored
        assert "c" not in restored._postings
        restored.check_invariants()

    def test_restore_replaces_previous_state(self):
        index = self.build()
        restored = CandidateIndex()
        restored.add(pair("x", "y"))
        restored.restore(index.snapshot())
        assert pair("x", "y") not in restored
        assert len(restored) == len(index)

    def test_restore_costs_one_step_per_row_whatever_the_count(self):
        # Each row is written as a count, not replayed as that many
        # occurrences: a row claiming 10**15 returns at once.  Repeated
        # rows add up and a non-positive one is no live pair, as before.
        state = CandidateIndex(min_support=2).snapshot()
        state["pairs"] = [["a", "b", 10 ** 15], ["a", "c", 0],
                          ["b", "c", -3], ["a", "b", 2], ["c", "d", 1]]
        restored = CandidateIndex()
        restored.restore(state)
        assert dict(restored.items()) \
            == {pair("a", "b"): 10 ** 15 + 2, pair("c", "d"): 1}
        # Only the row that reaches min_support is in a posting.
        assert {tag: set(bucket)
                for tag, bucket in restored._postings.items()} \
            == {"a": {pair("a", "b")}, "b": {pair("a", "b")}}
        assert restored.candidates(["a", "c"]) == [(pair("a", "b"), "a")]
        restored.check_invariants()

    def test_foreign_snapshot_rejected(self):
        with pytest.raises(SnapshotMismatchError):
            CandidateIndex().restore({"kind": "timeseries", "version": 1})


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
