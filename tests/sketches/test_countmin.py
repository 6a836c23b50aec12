"""Tests for the Count-Min sketch."""

import pytest

from repro.sketches.countmin import CountMinSketch


class TestCountMinSketch:
    def test_requires_dimensions_or_bounds(self):
        with pytest.raises(ValueError):
            CountMinSketch()

    def test_dimensions_from_error_bounds(self):
        sketch = CountMinSketch(epsilon=0.01, delta=0.01)
        assert sketch.width >= 100
        assert sketch.depth >= 4

    def test_rejects_invalid_bounds(self):
        with pytest.raises(ValueError):
            CountMinSketch(epsilon=1.5, delta=0.1)

    def test_estimate_never_underestimates(self):
        sketch = CountMinSketch(width=64, depth=4)
        for i in range(200):
            sketch.add(f"key-{i % 20}")
        for i in range(20):
            assert sketch.estimate(f"key-{i}") >= 10

    def test_exact_when_sparse(self):
        sketch = CountMinSketch(width=1024, depth=5)
        sketch.add("a", 3)
        sketch.add("b", 7)
        assert sketch.estimate("a") == 3
        assert sketch.estimate("b") == 7

    def test_unseen_key_can_only_be_overestimated(self):
        sketch = CountMinSketch(width=1024, depth=5)
        sketch.add("a", 3)
        assert sketch.estimate("zzz") >= 0

    def test_total_tracks_added_weight(self):
        sketch = CountMinSketch(width=16, depth=2)
        sketch.add("a", 3)
        sketch.add("b", 4)
        assert sketch.total == 7

    def test_negative_count_rejected(self):
        sketch = CountMinSketch(width=16, depth=2)
        with pytest.raises(ValueError):
            sketch.add("a", -1)

    def test_merge_adds_counts(self):
        first = CountMinSketch(width=64, depth=4, seed=1)
        second = CountMinSketch(width=64, depth=4, seed=1)
        first.add("a", 2)
        second.add("a", 3)
        first.merge(second)
        assert first.estimate("a") == 5
        assert first.total == 5

    def test_merge_requires_matching_dimensions(self):
        first = CountMinSketch(width=64, depth=4)
        second = CountMinSketch(width=32, depth=4)
        with pytest.raises(ValueError):
            first.merge(second)

    def test_merge_requires_matching_seed(self):
        first = CountMinSketch(width=64, depth=4, seed=1)
        second = CountMinSketch(width=64, depth=4, seed=2)
        with pytest.raises(ValueError):
            first.merge(second)
