"""Unit tests for the stable pair partitioner."""

import pytest

from repro.core.types import TagPair
from repro.sharding.partitioner import PairPartitioner


class TestPairPartitioner:
    def test_validation(self):
        with pytest.raises(ValueError):
            PairPartitioner(0)

    def test_single_shard_owns_everything(self):
        partitioner = PairPartitioner(1)
        assert partitioner.shard_of(TagPair("a", "b")) == 0
        assert partitioner.shard_of(TagPair("x", "y")) == 0

    def test_shard_ids_in_range(self):
        partitioner = PairPartitioner(4)
        for i in range(50):
            shard = partitioner.shard_of(TagPair(f"tag{i}", f"tag{i + 1}"))
            assert 0 <= shard < 4

    def test_assignment_is_stable_across_instances(self):
        # A pure function of the canonical pair: two partitioners (or two
        # processes) must always agree.
        first = PairPartitioner(8)
        second = PairPartitioner(8)
        pairs = [TagPair(f"t{i}", f"t{i + 7}") for i in range(100)]
        assert [first.shard_of(p) for p in pairs] \
            == [second.shard_of(p) for p in pairs]

    def test_canonicalisation_makes_spelling_irrelevant(self):
        partitioner = PairPartitioner(5)
        assert partitioner.shard_of(TagPair("beta", "alpha")) \
            == partitioner.shard_of(TagPair("alpha", "beta"))

    def test_split_groups_by_owner_and_preserves_order(self):
        partitioner = PairPartitioner(3)
        pairs = [TagPair(f"a{i}", f"b{i}") for i in range(30)]
        routed = partitioner.route(pairs)
        assert sum(map(len, routed)) == len(pairs)
        for shard_id, shard_pairs in enumerate(routed):
            assert all(partitioner.shard_of(p) == shard_id for p in shard_pairs)
            # Order within a shard follows input order.
            indices = [pairs.index(p) for p in shard_pairs]
            assert indices == sorted(indices)

    def test_split_event_carries_timestamp_and_tuples(self):
        partitioner = PairPartitioner(2)
        pairs = (TagPair("a", "b"), TagPair("c", "d"), TagPair("e", "f"))
        events = partitioner.split_event(42.0, pairs)
        seen = []
        for shard_id, (timestamp, shard_pairs) in events:
            assert timestamp == 42.0
            assert isinstance(shard_pairs, tuple)
            seen.extend(shard_pairs)
        assert sorted(seen) == sorted(pairs)

    def test_route_is_dense_and_preserves_order_within_a_shard(self):
        partitioner = PairPartitioner(3)
        pairs = tuple(TagPair(f"a{i}", f"b{i}") for i in range(30))
        routed = partitioner.route(pairs)
        assert isinstance(routed, tuple) and len(routed) == 3
        for shard_id, shard_pairs in enumerate(routed):
            assert isinstance(shard_pairs, tuple)
            assert list(shard_pairs) == [
                p for p in pairs if partitioner.shard_of(p) == shard_id
            ]

    def test_route_leaves_an_empty_tuple_where_a_shard_owns_nothing(self):
        partitioner = PairPartitioner(8)
        pair = TagPair("a", "b")
        routed = partitioner.route((pair,))
        owner = partitioner.shard_of(pair)
        assert routed == tuple(
            (pair,) if shard_id == owner else () for shard_id in range(8)
        )
        assert partitioner.route(()) == ((),) * 8
        # split_event is route with the empty shards left out.
        assert partitioner.split_event(1.5, (pair,)) == [
            (owner, (1.5, (pair,)))
        ]
        assert partitioner.split_event(1.5, ()) == []

    def test_route_with_one_shard_is_the_pairs_themselves(self):
        pairs = [TagPair("a", "b"), TagPair("c", "d"), TagPair("a", "b")]
        assert PairPartitioner(1).route(pairs) == (tuple(pairs),)
        assert PairPartitioner(1).route(iter(())) == ((),)

    def test_distribution_is_not_degenerate(self):
        # CRC-32 over a realistic vocabulary should touch every shard.
        partitioner = PairPartitioner(4)
        shards = {
            partitioner.shard_of(TagPair(f"tag{i:03d}", f"tag{j:03d}"))
            for i in range(20) for j in range(i + 1, 20)
        }
        assert shards == {0, 1, 2, 3}
