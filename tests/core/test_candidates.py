"""Tests for the incremental seed-postings candidate index."""

import pytest

from repro.core.candidates import CandidateIndex
from repro.core.types import TagPair


def pair(a, b):
    return TagPair(a, b)


def postings(index, tag):
    """The pairs listed under ``tag`` — by the invariant, the supported ones."""
    return set(index._postings.get(tag, ()))


class TestMaintenance:
    def test_add_and_count(self):
        index = CandidateIndex()
        index.add(pair("a", "b"))
        index.add(pair("a", "b"))
        assert index.count(pair("a", "b")) == 2
        assert len(index) == 1
        assert pair("a", "b") in index

    def test_discard_decrements_and_drops_dead_pairs(self):
        index = CandidateIndex()
        index.add(pair("a", "b"))
        index.add(pair("a", "b"))
        index.discard(pair("a", "b"))
        assert index.count(pair("a", "b")) == 1
        index.discard(pair("a", "b"))
        assert index.count(pair("a", "b")) == 0
        assert pair("a", "b") not in index
        assert len(index) == 0

    def test_discard_of_unknown_pair_is_a_noop(self):
        index = CandidateIndex()
        index.discard(pair("a", "b"))
        assert len(index) == 0

    def test_postings_hold_the_supported_pairs_under_both_tags(self):
        index = CandidateIndex(min_support=2)
        index.add_many([pair("a", "b"), pair("a", "b"), pair("a", "c")])
        assert postings(index, "a") == postings(index, "b") == {pair("a", "b")}
        # Live but below support: counted, in no posting.
        assert index.count(pair("a", "c")) == 1
        assert postings(index, "c") == postings(index, "missing") == set()
        index.check_invariants()

    def test_postings_cleaned_up_after_removal(self):
        index = CandidateIndex()
        index.add(pair("a", "b"))
        index.discard(pair("a", "b"))
        assert index._postings == {}
        index.check_invariants()

    def test_batch_updates_match_single_updates(self):
        pairs = [pair("a", "b"), pair("a", "b"), pair("a", "c"), pair("b", "c")]
        singles = CandidateIndex()
        for p in pairs:
            singles.add(p)
        batched = CandidateIndex()
        batched.add_many(pairs)
        assert dict(singles.items()) == dict(batched.items())

        for p in pairs[:2]:
            singles.discard(p)
        batched.remove_many(pairs[:2])
        assert dict(singles.items()) == dict(batched.items())

    def test_items_lists_each_pair_once(self):
        index = CandidateIndex()
        index.add_many([pair("a", "b"), pair("b", "c"), pair("a", "b")])
        assert sorted(index.items()) == [(pair("a", "b"), 2), (pair("b", "c"), 1)]

    def test_min_support_validation(self):
        with pytest.raises(ValueError):
            CandidateIndex(min_support=0)


class TestCandidates:
    def test_union_over_seed_postings(self):
        index = CandidateIndex()
        index.add_many([pair("seed", "x"), pair("y", "z")])
        assert index.candidates(["seed"]) == [(pair("seed", "x"), "seed")]

    def test_min_support_filters_weak_pairs(self):
        index = CandidateIndex(min_support=2)
        index.add_many([pair("s", "x"), pair("s", "y"), pair("s", "y")])
        assert index.candidates(["s"]) == [(pair("s", "y"), "s")]

    def test_no_seeds_no_candidates(self):
        index = CandidateIndex()
        index.add(pair("a", "b"))
        assert index.candidates([]) == []
        assert index.iter_candidates([]) == []

    def test_double_seed_pair_reported_once_with_smaller_trigger(self):
        index = CandidateIndex()
        index.add(pair("a", "b"))
        assert index.candidates(["a", "b"]) == [(pair("a", "b"), "a")]

    def test_matches_reference_scan(self):
        index = CandidateIndex(min_support=2)
        index.add_many([
            pair("a", "b"), pair("a", "b"), pair("a", "c"),
            pair("b", "c"), pair("b", "c"), pair("c", "d"), pair("c", "d"),
        ])
        for seeds in ([], ["a"], ["a", "c"], ["d"], ["a", "b", "c", "d"]):
            assert index.candidates(seeds) == index.scan_candidates(seeds)

    def test_iter_candidates_carries_counts(self):
        index = CandidateIndex()
        index.add_many([pair("s", "x"), pair("s", "x"), pair("s", "y")])
        triples = sorted(index.iter_candidates(["s"]))
        assert triples == [(pair("s", "x"), "s", 2), (pair("s", "y"), "s", 1)]


class TestCheckInvariants:
    def build(self):
        index = CandidateIndex(min_support=2)
        index.add_many([pair("a", "b"), pair("a", "b"), pair("a", "c")])
        index.check_invariants()
        return index

    def test_names_a_supported_pair_missing_from_a_posting(self):
        index = self.build()
        del index._postings["b"]
        with pytest.raises(AssertionError, match=r"'a'.*'b'.*missing from"):
            index.check_invariants()

    def test_names_an_unsupported_pair_listed_in_a_posting(self):
        index = self.build()
        index._postings["c"][pair("a", "c")] = None
        with pytest.raises(AssertionError, match=r"'a'.*'c'.*listed in"):
            index.check_invariants()

    def test_names_a_dead_pair_an_empty_bucket_and_a_bad_count(self):
        index = self.build()
        index._postings["x"][pair("x", "y")] = None
        with pytest.raises(AssertionError, match="not a live pair"):
            index.check_invariants()
        del index._postings["x"][pair("x", "y")]
        with pytest.raises(AssertionError, match="empty postings bucket"):
            index.check_invariants()
        del index._postings["x"]
        index._counts[pair("a", "c")] = 0
        with pytest.raises(AssertionError, match="count 0"):
            index.check_invariants()
