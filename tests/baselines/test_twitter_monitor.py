"""Tests for the TwitterMonitor-style burst-detection baseline."""

import pytest

from repro.baselines.twitter_monitor import TwitterMonitorBaseline
from repro.core.types import TagPair

from differential import HOUR, doc


def steady_stream(hours, tag_sets_per_hour):
    """A stream emitting the given tag sets every hour."""
    documents = []
    for hour in range(hours):
        for i, tags in enumerate(tag_sets_per_hour):
            documents.append(doc(hour * HOUR + i, tags))
    return documents


class TestTwitterMonitorBaseline:
    def make(self, **overrides):
        defaults = dict(window_horizon=4 * HOUR, evaluation_interval=HOUR,
                        top_k=5, burst_threshold=2.5, min_tag_count=2)
        defaults.update(overrides)
        return TwitterMonitorBaseline(**defaults)

    def test_detects_bursting_tag_pair(self):
        baseline = self.make()
        # 20 quiet hours of background, then a sudden burst of (storm, coast).
        documents = steady_stream(20, [["news", "politics"], ["news", "economy"]])
        burst_start = 20 * HOUR
        for i in range(30):
            documents.append(doc(burst_start + i, ["storm", "coast"]))
        documents.append(doc(burst_start + HOUR, ["news", "politics"]))
        baseline.process_many(documents)
        ranking = baseline.current_ranking()
        assert ranking is not None
        assert ranking.contains_pair(TagPair("coast", "storm"))

    def test_steady_popular_tags_do_not_trend(self):
        baseline = self.make()
        documents = steady_stream(30, [["news", "politics"]] * 5)
        baseline.process_many(documents)
        ranking = baseline.current_ranking()
        # Nothing bursts in a perfectly steady stream.
        assert ranking is not None
        assert len(ranking) == 0

    def test_misses_non_bursty_correlation_shift(self):
        # The Figure 1 situation: both tags keep their individual rates; only
        # the co-occurrence changes.  A burst detector sees nothing.
        baseline = self.make()
        documents = []
        for hour in range(30):
            base = hour * HOUR
            # "popular" appears 6 times per hour throughout, "rare" twice.
            for i in range(6):
                partner = "rare" if hour >= 20 and i < 2 else f"filler{i}"
                documents.append(doc(base + i, ["popular", partner]))
            for i in range(2):
                if hour < 20 or i >= 2:
                    documents.append(doc(base + 10 + i, ["rare", f"other{i}"]))
        baseline.process_many(documents)
        for ranking in baseline.ranking_history():
            assert not ranking.contains_pair(TagPair("popular", "rare"))

    def test_no_ranking_before_first_interval(self):
        baseline = self.make()
        assert baseline.process(doc(0, ["a", "b"])) is None

    def test_label(self):
        baseline = self.make()
        baseline.process(doc(0, ["a", "b"]))
        baseline.process(doc(2 * HOUR, ["a", "b"]))
        assert baseline.current_ranking().label == "twitter-monitor"

    def test_validation(self):
        with pytest.raises(ValueError):
            TwitterMonitorBaseline(window_horizon=0.0, evaluation_interval=1.0)
        with pytest.raises(ValueError):
            TwitterMonitorBaseline(window_horizon=1.0, evaluation_interval=0.0)
        with pytest.raises(ValueError):
            TwitterMonitorBaseline(window_horizon=1.0, evaluation_interval=1.0, top_k=0)
