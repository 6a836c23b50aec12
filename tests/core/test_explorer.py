"""Tests for the archive explorer (range-based show case 1 queries)."""

import pytest

from repro.core.explorer import ArchiveExplorer, RangeShift
from repro.core.types import TagPair
from repro.datasets.synthetic import figure1_stream

from differential import HOUR, doc


@pytest.fixture(scope="module")
def figure1_explorer():
    corpus, schedule = figure1_stream(num_steps=50, shift_start=30, shift_length=12)
    explorer = ArchiveExplorer(partition_length=HOUR, min_pair_support=2)
    explorer.index_many(corpus)
    return explorer, schedule


class TestIndexing:
    def test_counts_and_time_range(self, figure1_explorer):
        explorer, _ = figure1_explorer
        assert explorer.documents_indexed > 0
        start, end = explorer.time_range()
        assert start < end

    def test_time_range_without_documents_raises(self):
        with pytest.raises(ValueError):
            ArchiveExplorer(partition_length=HOUR).time_range()

    def test_accepts_dataset_documents_and_lowercases_tags(self):
        explorer = ArchiveExplorer(partition_length=10.0)
        explorer.index(doc(1, ["Politics", "Volcano"]))
        assert explorer.top_tags(0.0, 10.0, k=5) == [("politics", 1), ("volcano", 1)]

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ArchiveExplorer(partition_length=HOUR, num_seeds=0)
        with pytest.raises(ValueError):
            ArchiveExplorer(partition_length=HOUR, min_pair_support=0)


class TestRangeRanking:
    def test_shift_window_ranks_the_emergent_pair_first(self, figure1_explorer):
        explorer, schedule = figure1_explorer
        event = schedule.events()[0]
        ranking = explorer.rank(event.start, event.end)
        assert len(ranking) > 0
        assert ranking[0].pair == TagPair.from_tuple(event.pair)

    def test_pre_shift_window_does_not_rank_the_pair_first(self, figure1_explorer):
        explorer, schedule = figure1_explorer
        event = schedule.events()[0]
        pair = TagPair.from_tuple(event.pair)
        quiet = explorer.rank(10 * HOUR, 25 * HOUR)
        position = quiet.position_of(pair)
        assert position is None or position > 0

    def test_explicit_reference_window(self, figure1_explorer):
        explorer, schedule = figure1_explorer
        event = schedule.events()[0]
        ranking = explorer.rank(event.start, event.end,
                                reference_start=0.0, reference_end=event.start)
        assert ranking.contains_pair(TagPair.from_tuple(event.pair))

    def test_correlation_accessor(self, figure1_explorer):
        explorer, schedule = figure1_explorer
        event = schedule.events()[0]
        pair = TagPair.from_tuple(event.pair)
        during = explorer.correlation(pair, event.start, event.end)
        before = explorer.correlation(pair, 0.0, event.start)
        assert during > before

    def test_rank_validation(self, figure1_explorer):
        explorer, _ = figure1_explorer
        with pytest.raises(ValueError):
            explorer.rank(10.0, 5.0)
        with pytest.raises(ValueError):
            explorer.rank(0.0, 10.0, top_k=0)

    def test_perennial_pairs_are_not_emergent(self):
        # A pair that is equally correlated in both windows scores zero.
        explorer = ArchiveExplorer(partition_length=10.0, min_pair_support=1)
        for t in range(40):
            explorer.index(doc(t, ["always", "together"]))
        ranking = explorer.rank(200.0, 400.0)
        assert not ranking.contains_pair(TagPair("always", "together"))


class TestDrillDown:
    def test_documents_for_detected_pair(self, figure1_explorer):
        explorer, schedule = figure1_explorer
        pair = TagPair.from_tuple(schedule.events()[0].pair)
        documents = explorer.documents_for(pair, limit=5)
        assert documents
        assert all(set(pair.as_tuple()) <= set(item.tags) for item in documents)

    def test_drill_down_disabled(self):
        explorer = ArchiveExplorer(partition_length=HOUR, keep_documents=False)
        explorer.index(doc(1, ["a", "b"]))
        with pytest.raises(RuntimeError):
            explorer.documents_for(TagPair("a", "b"))


class TestRangeShift:
    def test_shift_is_clamped_at_zero(self):
        shift = RangeShift(pair=TagPair("a", "b"), correlation=0.2,
                           reference_correlation=0.5)
        assert shift.shift == 0.0
        rising = RangeShift(pair=TagPair("a", "b"), correlation=0.5,
                            reference_correlation=0.2)
        assert rising.shift == pytest.approx(0.3)
