"""MRV-striped counters: exact totals, including under concurrent writers."""

import threading
from collections import Counter

import pytest

from repro.windows.aggregates import TagFrequencyWindow
from repro.windows.striped import (
    StripedCounter, StripedCountHistory, record_count_history,
)


class TestStripedCounter:
    def test_stripes_validated(self):
        with pytest.raises(ValueError):
            StripedCounter(stripes=0)

    def test_update_and_reads_match_plain_counter(self):
        striped = StripedCounter(stripes=4)
        plain = Counter()
        for keys in (["a", "b", "a"], ["b"], ["c", "a"]):
            striped.update(keys)
            plain.update(keys)
        assert striped.merged() == plain
        assert striped["a"] == plain["a"]
        assert striped.get("missing", 7) == 7
        assert "c" in striped and "missing" not in striped
        assert sorted(striped.items()) == sorted(plain.items())
        assert sorted(striped) == sorted(plain)
        assert len(striped) == len(plain)
        assert bool(striped)

    def test_subtract_and_delete(self):
        striped = StripedCounter(stripes=3)
        striped.update(["a", "a", "b"])
        striped.subtract(["a"])
        assert striped["a"] == 1
        del striped["a"]
        assert striped["a"] == 0
        assert "a" not in striped

    def test_setitem_replaces_the_merged_total(self):
        striped = StripedCounter(stripes=3)
        # Scatter "a" across stripes via seed + caller-stripe increments.
        striped.seed({"a": 5})
        striped.increment("a", 2)
        assert striped["a"] == 7
        striped["a"] = 3
        assert striped["a"] == 3
        assert striped.merged() == Counter({"a": 3})

    def test_seed_adopts_counts_wholesale(self):
        striped = StripedCounter(stripes=2)
        striped.update(["junk"])
        striped.seed({"a": 4, "b": 1})
        assert striped.merged() == Counter({"a": 4, "b": 1})

    def test_concurrent_writers_sum_exactly(self):
        striped = StripedCounter(stripes=4)
        increments = 2000
        workers = 4

        def writer(tag):
            for _ in range(increments):
                striped.update([tag, "shared"])

        threads = [
            threading.Thread(target=writer, args=(f"tag-{n}",))
            for n in range(workers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        merged = striped.merged()
        assert merged["shared"] == workers * increments
        for n in range(workers):
            assert merged[f"tag-{n}"] == increments


class TestStripedTagFrequencyWindow:
    def test_striped_window_counts_match_plain(self):
        plain = TagFrequencyWindow(100.0)
        striped = TagFrequencyWindow(100.0, stripes=4)
        docs = [
            (0.0, ("a", "b")),
            (10.0, ("b",)),
            (50.0, ("a", "c")),
            (120.0, ("c", "d")),  # evicts the first document
        ]
        for timestamp, tags in docs:
            plain.add_document(timestamp, tags)
            striped.add_document(timestamp, tags)
        assert dict(striped.counts) == dict(plain.counts)
        assert striped.document_count == plain.document_count

    def test_striped_window_snapshot_roundtrip(self):
        striped = TagFrequencyWindow(100.0, stripes=4)
        striped.add_document(0.0, ("a", "b"))
        striped.add_document(10.0, ("b",))
        state = striped.state_dict()

        restored = TagFrequencyWindow(100.0, stripes=2)
        restored.restore_state(state)
        assert dict(restored.counts) == {"a": 1, "b": 2}
        assert restored.document_count == 2


class TestStripedCountHistory:
    ROWS = [
        {"a": 3, "b": 1},
        {"a": 2, "c": 4},
        {"b": 5},
        {},
        {"a": 1, "b": 1, "c": 1, "d": 9},
    ]

    def test_parameters_validated(self):
        with pytest.raises(ValueError):
            StripedCountHistory(history_length=4, stripes=0)
        with pytest.raises(ValueError):
            StripedCountHistory(history_length=0, stripes=2)

    def _plain(self, history_length=3):
        plain = {}
        for row in self.ROWS:
            record_count_history(plain, row, history_length)
        return plain

    def test_record_row_matches_the_shared_rule(self):
        striped = StripedCountHistory(history_length=3, stripes=4)
        for row in self.ROWS:
            striped.record_row(row)
        plain = self._plain()
        assert {tag: list(series) for tag, series in striped.items()} == \
            {tag: list(series) for tag, series in plain.items()}
        assert len(striped) == len(plain)
        for tag in plain:
            assert tag in striped
            assert list(striped[tag]) == list(plain[tag])
            assert list(striped.get(tag)) == list(plain[tag])
        assert striped.get("missing") is None
        assert "missing" not in striped
        assert bool(striped)
        assert sorted(striped) == sorted(plain)

    def test_seed_adopts_a_snapshot(self):
        striped = StripedCountHistory(history_length=3, stripes=4)
        striped.record_row({"junk": 1})
        striped.seed({"a": [1, 2], "b": [0, 0, 7]})
        assert dict(striped.merged()) == {"a": (1, 2), "b": (0, 0, 7)}
        # Seeded series are bounded: the next rows trim to history_length.
        striped.record_row({"a": 3, "b": 3})
        striped.record_row({"a": 4, "b": 4})
        assert list(striped["a"]) == [2, 3, 4]
        assert list(striped["b"]) == [7, 3, 4]

    def test_concurrent_readers_see_whole_series(self):
        striped = StripedCountHistory(history_length=8, stripes=4)
        stop = threading.Event()
        errors = []

        def reader():
            while not stop.is_set():
                for tag, series in striped.items():
                    # record_row appends one point to every live tag per
                    # row; a torn read would surface as a length skew of
                    # more than one row between tags of the same stripe.
                    if len(series) > 8:
                        errors.append((tag, series))

        threads = [threading.Thread(target=reader) for _ in range(2)]
        for thread in threads:
            thread.start()
        for index in range(200):
            striped.record_row({f"tag-{index % 10}": index})
        stop.set()
        for thread in threads:
            thread.join()
        assert not errors
