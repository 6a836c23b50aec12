"""Tests for the popularity baseline."""

import pytest

from repro.baselines.popularity import PopularityBaseline
from repro.core.types import TagPair

from differential import doc


class TestPopularityBaseline:
    def test_ranks_most_frequent_pairs(self):
        baseline = PopularityBaseline(window_horizon=100.0, evaluation_interval=10.0, top_k=3)
        stream = [doc(i, ["a", "b"]) for i in range(8)] + [doc(8, ["c", "d"])]
        baseline.process_many(stream)
        baseline.process(doc(20, ["a", "b"]))  # cross an evaluation boundary
        ranking = baseline.current_ranking()
        assert ranking is not None
        assert ranking[0].pair == TagPair("a", "b")
        assert ranking[0].score > ranking[-1].score or len(ranking) == 1

    def test_window_eviction_forgets_old_pairs(self):
        baseline = PopularityBaseline(window_horizon=10.0, evaluation_interval=10.0, top_k=5)
        baseline.process(doc(0, ["old", "pair"]))
        for t in range(30, 36):
            baseline.process(doc(t, ["new", "pair"]))
        baseline.process(doc(50, ["new", "pair"]))
        ranking = baseline.current_ranking()
        assert not ranking.contains_pair(TagPair("old", "pair"))

    def test_no_ranking_before_first_interval(self):
        baseline = PopularityBaseline(window_horizon=100.0, evaluation_interval=50.0)
        assert baseline.process(doc(0, ["a", "b"])) is None
        assert baseline.current_ranking() is None

    def test_ranking_history_accumulates(self):
        baseline = PopularityBaseline(window_horizon=100.0, evaluation_interval=10.0)
        for t in range(0, 45, 5):
            baseline.process(doc(t, ["a", "b"]))
        assert len(baseline.ranking_history()) >= 3

    def test_label_identifies_baseline(self):
        baseline = PopularityBaseline(window_horizon=10.0, evaluation_interval=5.0)
        baseline.process(doc(0, ["a", "b"]))
        baseline.process(doc(10, ["a", "b"]))
        assert baseline.current_ranking().label == "popularity"

    def test_validation(self):
        with pytest.raises(ValueError):
            PopularityBaseline(window_horizon=0.0)
        with pytest.raises(ValueError):
            PopularityBaseline(window_horizon=10.0, top_k=0)
