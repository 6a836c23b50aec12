"""False-positive, merge and serialization guarantees of the Bloom filter.

The filter's false-positive rate stays near its design point, merges are
associative (the distributed-aggregation contract), and snapshots
round-trip bit for bit.
"""

import pytest

from repro.sketches.bloom import BloomFilter


class TestBloomFalsePositiveRate:
    def test_fpr_near_design_point(self):
        capacity, error_rate = 1000, 0.01
        bloom = BloomFilter(capacity=capacity, error_rate=error_rate, seed=3)
        bloom.update(f"member-{i}" for i in range(capacity))
        for i in range(capacity):
            assert f"member-{i}" in bloom
        false_positives = sum(
            1 for i in range(10000) if f"absent-{i}" in bloom
        )
        # At design load the realized FPR should be within 3x of the
        # design point (0.01); the fixed seed pins the instance.
        assert false_positives / 10000 < 0.03


class TestMergeAssociativity:
    def _bloom(self, members):
        bloom = BloomFilter(capacity=128, error_rate=0.01, seed=5)
        bloom.update(members)
        return bloom

    def test_bloom_merge_is_associative(self):
        parts = [["a", "b"], ["b", "c"], ["d"]]
        left = self._bloom(parts[0])
        left.merge(self._bloom(parts[1]))
        left.merge(self._bloom(parts[2]))
        right_tail = self._bloom(parts[1])
        right_tail.merge(self._bloom(parts[2]))
        right = self._bloom(parts[0])
        right.merge(right_tail)
        assert left.snapshot() == right.snapshot()
        for member in ("a", "b", "c", "d"):
            assert member in left

    def test_bloom_merge_rejects_mismatched_shape(self):
        with pytest.raises(ValueError):
            BloomFilter(capacity=64, error_rate=0.01).merge(
                BloomFilter(capacity=128, error_rate=0.01)
            )

    def test_bloom_merge_rejects_mismatched_seed(self):
        with pytest.raises(ValueError, match="seed"):
            BloomFilter(capacity=64, seed=1).merge(
                BloomFilter(capacity=64, seed=2)
            )

    def test_bloom_merge_is_the_filter_of_both_inputs(self):
        merged = self._bloom(["a", "b"])
        merged.merge(self._bloom(["c"]))
        assert merged.snapshot() == self._bloom(["a", "b", "c"]).snapshot()
        assert len(merged) == 3


class TestSnapshotRoundTrips:
    def test_bloom_round_trip(self):
        bloom = BloomFilter(capacity=64, error_rate=0.02, seed=7)
        bloom.update(["x", "y", "z"])
        restored = BloomFilter.from_snapshot(bloom.snapshot())
        assert restored.snapshot() == bloom.snapshot()
        assert "x" in restored and "q" not in restored

    @pytest.mark.parametrize("field,value", [
        ("kind", "count-min"),
        ("version", 2),
        ("capacity", 65),
        ("seed", 8),
        ("bits", "00"),
    ])
    def test_bloom_restore_rejects_a_foreign_snapshot(self, field, value):
        bloom = BloomFilter(capacity=64, error_rate=0.02, seed=7)
        bloom.add("x")
        before = bloom.snapshot()
        with pytest.raises(ValueError):
            bloom.restore({**before, field: value})
        assert bloom.snapshot() == before
