"""Tests for seed-tag selection."""

import pytest

from repro.core.seeds import (
    HybridSeedSelector,
    PopularitySeedSelector,
    SeedSelector,
    VolatilitySeedSelector,
    make_seed_selector,
)
from repro.windows.aggregates import TagFrequencyWindow


def window_with(counts, horizon=1000.0):
    """Build a tag window where each tag appears ``counts[tag]`` times."""
    window = TagFrequencyWindow(horizon)
    t = 0.0
    for tag, count in counts.items():
        for _ in range(count):
            window.add_document(t, [tag])
            t += 0.001
    return window


class TestPopularitySeedSelector:
    def test_selects_most_frequent_tags(self):
        window = window_with({"hot": 20, "warm": 10, "cold": 3})
        seeds = PopularitySeedSelector(num_seeds=2, min_count=1).select(window)
        assert seeds == ["hot", "warm"]

    def test_min_count_filters_rare_tags(self):
        window = window_with({"hot": 20, "rare": 2})
        seeds = PopularitySeedSelector(num_seeds=10, min_count=3).select(window)
        assert seeds == ["hot"]

    def test_ties_broken_alphabetically(self):
        window = window_with({"b": 5, "a": 5})
        seeds = PopularitySeedSelector(num_seeds=2, min_count=1).select(window)
        assert seeds == ["a", "b"]

    def test_empty_window_gives_no_seeds(self):
        window = TagFrequencyWindow(10.0)
        assert PopularitySeedSelector().select(window) == []

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            PopularitySeedSelector(num_seeds=0)
        with pytest.raises(ValueError):
            PopularitySeedSelector(min_count=0)


class TestVolatilitySeedSelector:
    def test_prefers_fluctuating_tags(self):
        window = window_with({"steady": 10, "swinging": 10})
        history = {
            "steady": [10, 10, 10, 10],
            "swinging": [1, 20, 2, 18],
        }
        seeds = VolatilitySeedSelector(num_seeds=1, min_count=1).select(window, history)
        assert seeds == ["swinging"]

    def test_without_history_falls_back_gracefully(self):
        window = window_with({"a": 10, "b": 5})
        seeds = VolatilitySeedSelector(num_seeds=2, min_count=1).select(window, None)
        assert set(seeds) == {"a", "b"}

    def test_history_length_validation(self):
        with pytest.raises(ValueError):
            VolatilitySeedSelector(history_length=1)


class TestHybridSeedSelector:
    def test_combines_popularity_and_volatility(self):
        window = window_with({"popular-steady": 30, "popular-volatile": 28, "rare": 2})
        history = {
            "popular-steady": [30, 30, 30],
            "popular-volatile": [5, 40, 10],
            "rare": [2, 2, 2],
        }
        seeds = HybridSeedSelector(num_seeds=1, min_count=1).select(window, history)
        assert seeds == ["popular-volatile"]


class TestFactory:
    def test_builds_each_criterion(self):
        assert isinstance(make_seed_selector("popularity"), PopularitySeedSelector)
        assert isinstance(make_seed_selector("volatility"), VolatilitySeedSelector)
        assert isinstance(make_seed_selector("hybrid"), HybridSeedSelector)

    def test_unknown_criterion_rejected(self):
        with pytest.raises(ValueError):
            make_seed_selector("random")

    def test_num_seeds_forwarded(self):
        selector = make_seed_selector("popularity", num_seeds=3)
        window = window_with({f"t{i}": 10 - i for i in range(8)})
        assert len(selector.select(window)) == 3

    def test_only_popularity_ignores_the_count_history(self):
        # The engines record the per-tag count history for a selector that
        # reads it; a custom selector is assumed to, unless it says not.
        assert SeedSelector.reads_history
        assert not make_seed_selector("popularity").reads_history
        assert make_seed_selector("volatility").reads_history
        assert make_seed_selector("hybrid").reads_history
