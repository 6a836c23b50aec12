"""Tests for the time- and count-based sliding windows."""

import pytest

from repro.windows.sliding import CountSlidingWindow, TimeSlidingWindow, WindowEntry


class TestWindowEntry:
    def test_holds_timestamp_and_value(self):
        entry = WindowEntry(5.0, "payload")
        assert entry.timestamp == 5.0
        assert entry.value == "payload"

    def test_default_value_is_one(self):
        assert WindowEntry(1.0).value == 1.0

    def test_rejects_negative_timestamp(self):
        with pytest.raises(ValueError):
            WindowEntry(-1.0)


class TestTimeSlidingWindow:
    def test_rejects_non_positive_horizon(self):
        with pytest.raises(ValueError):
            TimeSlidingWindow(0.0)

    def test_empty_window_has_no_entries(self):
        window = TimeSlidingWindow(10.0)
        assert len(window) == 0
        assert not window
        assert window.latest_timestamp is None

    def test_append_retains_entries_inside_horizon(self):
        window = TimeSlidingWindow(10.0)
        window.append(1.0, "a")
        window.append(5.0, "b")
        assert window.values() == ["a", "b"]
        assert window.timestamps() == [1.0, 5.0]

    def test_old_entries_are_evicted_on_append(self):
        window = TimeSlidingWindow(10.0)
        window.append(0.0, "old")
        window.append(15.0, "new")
        assert window.values() == ["new"]

    def test_eviction_boundary_is_exclusive(self):
        # An entry exactly `horizon` old is evicted (half-open window).
        window = TimeSlidingWindow(10.0)
        window.append(0.0, "boundary")
        window.append(10.0, "now")
        assert window.values() == ["now"]

    def test_entry_just_inside_horizon_is_kept(self):
        window = TimeSlidingWindow(10.0)
        window.append(0.1, "kept")
        window.append(10.0, "now")
        assert window.values() == ["kept", "now"]

    def test_rejects_out_of_order_appends(self):
        window = TimeSlidingWindow(10.0)
        window.append(5.0)
        with pytest.raises(ValueError):
            window.append(4.0)

    def test_advance_to_evicts_without_inserting(self):
        window = TimeSlidingWindow(10.0)
        window.append(0.0, "a")
        window.advance_to(20.0)
        assert len(window) == 0
        assert window.latest_timestamp == 20.0

    def test_advance_backwards_is_rejected(self):
        window = TimeSlidingWindow(10.0)
        window.append(5.0)
        with pytest.raises(ValueError):
            window.advance_to(1.0)

    def test_count_with_predicate(self):
        window = TimeSlidingWindow(100.0)
        for i in range(6):
            window.append(float(i), i)
        assert window.count() == 6
        assert window.count(lambda v: v % 2 == 0) == 3

    def test_span_covers_live_entries(self):
        window = TimeSlidingWindow(100.0)
        window.append(2.0)
        window.append(9.0)
        assert window.span() == pytest.approx(7.0)

    def test_span_is_zero_for_single_entry(self):
        window = TimeSlidingWindow(100.0)
        window.append(2.0)
        assert window.span() == 0.0

    def test_clear_keeps_clock(self):
        window = TimeSlidingWindow(10.0)
        window.append(5.0)
        window.clear()
        assert len(window) == 0
        assert window.latest_timestamp == 5.0

    def test_iteration_yields_entries_in_order(self):
        window = TimeSlidingWindow(100.0)
        window.append(1.0, "x")
        window.append(2.0, "y")
        assert [entry.value for entry in window] == ["x", "y"]


class TestCountSlidingWindow:
    def test_rejects_non_positive_capacity(self):
        with pytest.raises(ValueError):
            CountSlidingWindow(0)

    def test_keeps_only_most_recent_entries(self):
        window = CountSlidingWindow(3)
        for i in range(5):
            window.append(float(i), i)
        assert window.values() == [2, 3, 4]

    def test_full_flag(self):
        window = CountSlidingWindow(2)
        assert not window.full
        window.append(1.0)
        window.append(2.0)
        assert window.full

    def test_rejects_out_of_order_appends(self):
        window = CountSlidingWindow(3)
        window.append(5.0)
        with pytest.raises(ValueError):
            window.append(4.0)

    def test_clear_empties_window(self):
        window = CountSlidingWindow(3)
        window.append(1.0)
        window.clear()
        assert len(window) == 0


NAN = float("nan")

#: Every way a timestamp enters the two bare windows.
ENTRY_POINTS = {
    "time_append": (lambda: TimeSlidingWindow(10.0),
                    lambda window, t: window.append(t, "v")),
    "time_advance_to": (lambda: TimeSlidingWindow(10.0),
                        lambda window, t: window.advance_to(t)),
    "count_append": (lambda: CountSlidingWindow(3),
                     lambda window, t: window.append(t, "v")),
}


@pytest.mark.parametrize("make,enter", ENTRY_POINTS.values(),
                         ids=ENTRY_POINTS)
class TestTimestampOrderGuard:
    """A NaN timestamp passes ``t < latest``; it must not pass the guard."""

    @pytest.mark.parametrize("primed", [False, True], ids=["empty", "primed"])
    def test_nan_is_rejected_and_leaves_the_window_unchanged(
            self, make, enter, primed):
        window = make()
        if primed:
            window.append(1.0, "a")
        with pytest.raises(ValueError):
            enter(window, NAN)
        assert window.values() == (["a"] if primed else [])
        assert window.latest_timestamp == (1.0 if primed else None)
        # The guard is still on: the past stays rejected, the future evicts.
        window.append(2.0, "b")
        with pytest.raises(ValueError):
            window.append(0.5, "c")
        window.append(1000.0, "d")
        assert window.values()[-1] == "d"
        if isinstance(window, TimeSlidingWindow):
            assert window.values() == ["d"]

    @pytest.mark.parametrize("timestamp", [1.0, 2.5, float("inf")],
                             ids=["equal", "later", "inf"])
    def test_every_other_timestamp_is_accepted_as_before(
            self, make, enter, timestamp):
        window = make()
        window.append(1.0, "a")
        enter(window, timestamp)
        assert window.latest_timestamp == timestamp

