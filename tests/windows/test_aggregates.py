"""Tests for the windowed aggregates."""

import pytest

from repro.persistence.snapshot import SnapshotMismatchError
from repro.windows.aggregates import (
    TagFrequencyWindow,
    record_count_history,
    require_ordered,
    top_scored,
)


class TestTagFrequencyWindow:
    def test_counts_documents_per_tag(self):
        window = TagFrequencyWindow(100.0)
        window.add_document(1.0, ["a", "b"])
        window.add_document(2.0, ["a"])
        assert window.count("a") == 2
        assert window.count("b") == 1
        assert window.count("missing") == 0

    def test_duplicate_tags_in_one_document_count_once(self):
        window = TagFrequencyWindow(100.0)
        window.add_document(1.0, ["a", "a", "a"])
        assert window.count("a") == 1

    def test_document_count(self):
        window = TagFrequencyWindow(100.0)
        window.add_document(1.0, ["a"])
        window.add_document(2.0, ["b"])
        assert window.document_count == 2

    def test_frequency_is_fraction_of_documents(self):
        window = TagFrequencyWindow(100.0)
        window.add_document(1.0, ["a", "b"])
        window.add_document(2.0, ["a"])
        assert window.frequency("a") == pytest.approx(1.0)
        assert window.frequency("b") == pytest.approx(0.5)

    def test_frequency_of_empty_window_is_zero(self):
        assert TagFrequencyWindow(10.0).frequency("a") == 0.0

    def test_eviction_removes_counts_and_documents(self):
        window = TagFrequencyWindow(10.0)
        window.add_document(0.0, ["a", "b"])
        window.add_document(20.0, ["a"])
        assert window.count("a") == 1
        assert window.count("b") == 0
        assert window.document_count == 1
        assert "b" not in window.tags()

    def test_top_tags_ordering_and_tie_break(self):
        window = TagFrequencyWindow(100.0)
        window.add_document(1.0, ["b", "a"])
        window.add_document(2.0, ["a"])
        window.add_document(3.0, ["c"])
        assert window.top_tags(2) == [("a", 2), ("b", 1)]

    def test_top_tags_with_non_positive_k(self):
        window = TagFrequencyWindow(100.0)
        window.add_document(1.0, ["a"])
        assert window.top_tags(0) == []

    def test_snapshot_returns_copy(self):
        window = TagFrequencyWindow(100.0)
        window.add_document(1.0, ["a"])
        snapshot = window.snapshot()
        snapshot["a"] = 99
        assert window.count("a") == 1

    def test_rejects_out_of_order_documents(self):
        window = TagFrequencyWindow(100.0)
        window.add_document(5.0, ["a"])
        with pytest.raises(ValueError):
            window.add_document(4.0, ["b"])

    def test_advance_to_expires_documents(self):
        window = TagFrequencyWindow(10.0)
        window.add_document(0.0, ["a"])
        window.advance_to(100.0)
        assert window.document_count == 0

    @pytest.mark.parametrize("horizon", [0.0, -1.0])
    def test_rejects_non_positive_horizon(self, horizon):
        with pytest.raises(ValueError):
            TagFrequencyWindow(horizon)

    def test_empty_window(self):
        window = TagFrequencyWindow(10.0)
        assert window.document_count == 0
        assert window.latest_timestamp is None
        assert window.tags() == []
        assert window.top_tags(3) == []
        assert window.snapshot() == {}

    def test_eviction_boundary_is_exclusive(self):
        # A document exactly `horizon` old is evicted (half-open window).
        window = TagFrequencyWindow(10.0)
        window.add_document(0.0, ["boundary"])
        window.add_document(10.0, ["now"])
        assert window.snapshot() == {"now": 1}

    def test_document_just_inside_horizon_is_kept(self):
        window = TagFrequencyWindow(10.0)
        window.add_document(0.1, ["kept"])
        window.add_document(10.0, ["now"])
        assert window.snapshot() == {"kept": 1, "now": 1}

    def test_equal_timestamps_are_accepted(self):
        window = TagFrequencyWindow(10.0)
        window.add_document(3.0, ["a"])
        window.add_document(3.0, ["a"])
        assert window.count("a") == 2

    def test_advance_to_moves_the_clock_without_inserting(self):
        window = TagFrequencyWindow(10.0)
        window.add_document(0.0, ["a"])
        window.advance_to(5.0)
        assert window.latest_timestamp == 5.0
        assert window.document_count == 1
        window.advance_to(20.0)
        assert window.latest_timestamp == 20.0
        assert window.snapshot() == {}

    def test_advance_backwards_is_rejected(self):
        window = TagFrequencyWindow(10.0)
        window.add_document(5.0, ["a"])
        with pytest.raises(ValueError):
            window.advance_to(1.0)
        assert window.latest_timestamp == 5.0

    def test_top_tags_respects_min_count(self):
        window = TagFrequencyWindow(100.0)
        window.add_document(1.0, ["a", "b"])
        window.add_document(2.0, ["a"])
        assert window.top_tags(5, min_count=2) == [("a", 2)]
        assert window.top_tags(5, min_count=3) == []

    def test_state_dict_round_trip(self):
        window = TagFrequencyWindow(10.0)
        window.add_documents([(0.0, ["a", "b"]), (4.0, ["b"]), (12.0, ["c"])])
        restored = TagFrequencyWindow(10.0)
        restored.restore_state(window.state_dict())
        assert restored.state_dict() == window.state_dict()
        assert restored.snapshot() == window.snapshot()
        assert restored.latest_timestamp == 12.0
        # The restored clock keeps rejecting the past and evicting.
        with pytest.raises(ValueError):
            restored.add_document(11.0, ["d"])
        restored.add_document(30.0, ["d"])
        assert restored.snapshot() == {"d": 1}

    def test_restore_rejects_another_horizon(self):
        window = TagFrequencyWindow(10.0)
        window.add_document(1.0, ["a"])
        with pytest.raises(SnapshotMismatchError, match="horizon"):
            TagFrequencyWindow(20.0).restore_state(window.state_dict())


class TestBatchAddDocuments:
    def test_batch_add_matches_sequential_adds(self):
        sequential = TagFrequencyWindow(10.0)
        batched = TagFrequencyWindow(10.0)
        documents = [(0.0, ["a", "b"]), (4.0, ["b"]), (12.0, ["c", "a"])]
        for timestamp, tags in documents:
            sequential.add_document(timestamp, tags)
        assert batched.add_documents(documents) == 3
        assert sequential.snapshot() == batched.snapshot()
        assert sequential.document_count == batched.document_count
        assert sequential.latest_timestamp == batched.latest_timestamp

    def test_batch_deduplicates_each_tag_set(self):
        window = TagFrequencyWindow(100.0)
        window.add_documents([(0.0, ["b", "a", "b"]), (1.0, ("b",))])
        assert window.count("b") == 2
        assert window.count("a") == 1

    def test_empty_batch_is_a_noop(self):
        window = TagFrequencyWindow(10.0)
        assert window.add_documents([]) == 0
        assert window.document_count == 0

    def test_batch_rejects_out_of_order(self):
        window = TagFrequencyWindow(10.0)
        with pytest.raises(ValueError):
            window.add_documents([(5.0, ["a"]), (1.0, ["b"])])

    def test_rejected_batch_leaves_window_unchanged(self):
        window = TagFrequencyWindow(10.0)
        with pytest.raises(ValueError):
            window.add_documents([(5.0, ["a"]), (1.0, ["b"])])
        assert window.document_count == 0
        assert window.snapshot() == {}
        # Still consistent after the rejection: no phantom events to evict.
        window.add_document(20.0, ["c"])
        assert window.document_count == 1
        assert window.count("c") == 1


NAN = float("nan")

#: Every way a timestamp enters a TagFrequencyWindow.
ENTRY_POINTS = {
    "add_document": lambda window, t: window.add_document(t, ["x"]),
    "add_documents": lambda window, t: window.add_documents([(t, ["x"])]),
    "add_documents_mid_run":
        lambda window, t: window.add_documents([(1.0, ["w"]), (t, ["x"])]),
    "advance_to": lambda window, t: window.advance_to(t),
    "add_ordered_run":
        lambda window, t: window.add_ordered_run([t], [("x",)]),
}


@pytest.mark.parametrize("enter", ENTRY_POINTS.values(), ids=ENTRY_POINTS)
class TestTimestampOrderGuard:
    """A NaN timestamp passes ``t < latest``; it must not pass the guard."""

    @pytest.mark.parametrize("primed", [False, True], ids=["empty", "primed"])
    def test_nan_is_rejected_and_leaves_the_window_unchanged(
            self, enter, primed):
        window = TagFrequencyWindow(10.0)
        if primed:
            window.add_document(1.0, ["a"])
        before = window.state_dict()
        with pytest.raises(ValueError):
            enter(window, NAN)
        assert window.state_dict() == before
        assert window.document_count == int(primed)
        assert window.snapshot() == ({"a": 1} if primed else {})

    def test_the_order_check_and_eviction_survive_a_nan(self, enter):
        window = TagFrequencyWindow(10.0)
        window.add_document(1.0, ["a"])
        with pytest.raises(ValueError):
            enter(window, NAN)
        with pytest.raises(ValueError):
            window.add_document(0.5, ["c"])
        window.add_document(1000.0, ["d"])
        assert window.document_count == 1
        assert window.snapshot() == {"d": 1}

    @pytest.mark.parametrize("timestamp", [1.0, 2.5, float("inf")],
                             ids=["equal", "later", "inf"])
    def test_every_other_timestamp_is_accepted_as_before(
            self, enter, timestamp):
        window = TagFrequencyWindow(10.0)
        window.add_document(1.0, ["a"])
        enter(window, timestamp)
        assert window.latest_timestamp == timestamp


class TestAddOrderedRun:
    def test_matches_one_add_document_per_document(self):
        sequential = TagFrequencyWindow(10.0)
        bulk = TagFrequencyWindow(10.0)
        documents = [(0.0, ("a", "b")), (4.0, ("b",)), (4.0, ()),
                     (12.0, ("a", "c"))]
        for timestamp, tags in documents:
            sequential.add_document(timestamp, tags)
        bulk.add_ordered_run(*zip(*documents))
        assert bulk.state_dict() == sequential.state_dict()
        assert list(bulk.snapshot().items()) \
            == list(sequential.snapshot().items())
        assert bulk.document_count == sequential.document_count == 3

    def test_empty_run_is_a_noop(self):
        window = TagFrequencyWindow(10.0)
        window.add_ordered_run([], [])
        assert window.latest_timestamp is None
        assert window.document_count == 0

    def test_a_run_starting_behind_the_clock_is_rejected_whole(self):
        window = TagFrequencyWindow(10.0)
        window.add_document(5.0, ["a"])
        before = window.state_dict()
        with pytest.raises(ValueError):
            window.add_ordered_run([4.0, 6.0], [("b",), ("c",)])
        assert window.state_dict() == before
        # Still consistent after the rejection: no phantom events to evict.
        window.add_document(20.0, ["c"])
        assert window.document_count == 1
        assert window.snapshot() == {"c": 1}


class TestRequireOrdered:
    @pytest.mark.parametrize("timestamp,latest", [
        (0.0, None), (5.0, 5.0), (6.0, 5.0), (float("inf"), 5.0),
        (float("-inf"), None),
    ], ids=["first", "equal", "later", "inf", "first-minus-inf"])
    def test_accepts(self, timestamp, latest):
        require_ordered(timestamp, latest, "unused")

    @pytest.mark.parametrize("timestamp,latest", [
        (4.0, 5.0), (NAN, None), (NAN, 5.0), (float("-inf"), 5.0),
    ], ids=["behind", "nan-first", "nan-later", "minus-inf"])
    def test_rejects(self, timestamp, latest):
        with pytest.raises(ValueError, match="^complaint: "):
            require_ordered(timestamp, latest, "complaint")


class TestTopScored:
    SCORED = [("d", 2), ("a", 5), ("c", 2), ("b", 7), ("e", 0)]

    @pytest.mark.parametrize("k", [0, 1, 3, 5, 10])
    def test_equals_a_full_sort(self, k):
        expected = sorted(self.SCORED, key=lambda item: (-item[1], item[0]))[:k]
        assert top_scored(self.SCORED, k) == expected

    def test_ties_are_broken_by_name(self):
        assert top_scored([("z", 1.5), ("m", 1.5), ("a", 1.5)], 2) \
            == [("a", 1.5), ("m", 1.5)]


class TestRecordCountHistory:
    ROWS = [
        {"a": 3, "b": 1},
        {"a": 2, "c": 4},
        {"b": 5},
        {},
        {"a": 1, "b": 1, "c": 1, "d": 9},
    ]

    def test_absent_tags_record_zero_and_series_stay_bounded(self):
        history = {}
        for row in self.ROWS:
            record_count_history(history, row, 3)
        # First-appearance key order; a tag absent from a row records an
        # explicit zero; every series keeps its last three points.
        assert {tag: list(series) for tag, series in history.items()} == {
            "a": [0, 0, 1], "b": [5, 0, 1], "c": [0, 0, 1], "d": [9],
        }
        assert list(history) == ["a", "b", "c", "d"]

    def test_importable_from_the_tracker_module(self):
        from repro.core.tracker import record_count_history as from_tracker
        assert from_tracker is record_count_history
