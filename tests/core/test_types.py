"""Tests for tag pairs, emergent topics and rankings."""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.types import EmergentTopic, Ranking, TagPair, overlap_at_k


class TestTagPair:
    def test_canonical_ordering(self):
        assert TagPair("b", "a") == TagPair("a", "b")
        assert TagPair("b", "a").first == "a"
        assert hash(TagPair("b", "a")) == hash(TagPair("a", "b"))

    def test_rejects_identical_or_empty_tags(self):
        with pytest.raises(ValueError):
            TagPair("a", "a")
        with pytest.raises(ValueError):
            TagPair("", "a")

    def test_constructors(self):
        assert TagPair.of("x", "y") == TagPair.from_tuple(("y", "x"))

    def test_contains_and_other(self):
        pair = TagPair("a", "b")
        assert pair.contains("a")
        assert not pair.contains("c")
        assert pair.other("a") == "b"
        assert pair.other("b") == "a"
        with pytest.raises(KeyError):
            pair.other("c")

    def test_as_tuple_and_str(self):
        pair = TagPair("volcano", "air traffic")
        assert pair.as_tuple() == ("air traffic", "volcano")
        assert str(pair) == "(air traffic, volcano)"

    def test_pairs_are_sortable(self):
        pairs = [TagPair("c", "d"), TagPair("a", "b")]
        assert sorted(pairs)[0] == TagPair("a", "b")

    def test_a_pair_is_the_tuple_of_its_tags(self):
        # On purpose since the tuple-subclass rewrite: hashing, equality
        # and ordering are the tuple's own (C speed, nothing cached).
        pair = TagPair("b", "a")
        assert pair == ("a", "b")
        assert hash(pair) == hash(("a", "b"))
        assert {pair: 1}[("a", "b")] == 1
        assert pair < ("a", "c")
        first, second = pair
        assert (first, second) == ("a", "b")
        assert repr(pair) == "TagPair(first='a', second='b')"
        with pytest.raises(AttributeError):
            pair.first = "z"

    def test_pair_pickled_under_another_hash_seed_hashes_like_a_local_one(self):
        # str hashes are salted per process; a pair arriving from a
        # spawn-started worker must land on the same dict slot as an equal
        # pair built here.
        source = Path(__file__).resolve().parents[2] / "src"
        script = (
            "import pickle, sys\n"
            "from repro.core.types import TagPair\n"
            "pair = TagPair('volcano', 'air traffic')\n"
            "sys.stdout.buffer.write(pickle.dumps((pair, {pair: 7})))\n"
        )
        environment = dict(os.environ, PYTHONHASHSEED="4242",
                           PYTHONPATH=str(source))
        blob = subprocess.run(
            [sys.executable, "-c", script], env=environment,
            check=True, capture_output=True, timeout=60,
        ).stdout
        loaded, table = pickle.loads(blob)
        local = TagPair("air traffic", "volcano")
        assert type(loaded) is TagPair
        assert loaded == local and hash(loaded) == hash(local)
        assert table[local] == 7


class TestEmergentTopic:
    def test_rejects_negative_score(self):
        with pytest.raises(ValueError):
            EmergentTopic(pair=TagPair("a", "b"), score=-1.0)

    def test_tags_property_and_describe(self):
        topic = EmergentTopic(pair=TagPair("b", "a"), score=0.5, correlation=0.4)
        assert topic.tags == ("a", "b")
        assert "0.5" in topic.describe()


def ranking_from(scores, timestamp=0.0, label=""):
    topics = [
        EmergentTopic(pair=TagPair(*pair), score=score, timestamp=timestamp)
        for pair, score in scores
    ]
    return Ranking(timestamp=timestamp, topics=topics, label=label)


class TestRanking:
    def test_topics_sorted_by_score_descending(self):
        ranking = ranking_from([(("a", "b"), 0.1), (("c", "d"), 0.9)])
        assert ranking[0].pair == TagPair("c", "d")
        assert ranking[1].pair == TagPair("a", "b")

    def test_ties_broken_by_pair_order(self):
        ranking = ranking_from([(("x", "y"), 0.5), (("a", "b"), 0.5)])
        assert ranking[0].pair == TagPair("a", "b")

    def test_top_k(self):
        ranking = ranking_from([(("a", "b"), 0.9), (("c", "d"), 0.5), (("e", "f"), 0.1)])
        assert len(ranking.top(2)) == 2
        assert ranking.top(0) == []
        assert len(ranking.top(10)) == 3

    def test_position_of_and_contains(self):
        ranking = ranking_from([(("a", "b"), 0.9), (("c", "d"), 0.5)])
        assert ranking.position_of(TagPair("c", "d")) == 1
        assert ranking.position_of(TagPair("x", "y")) is None
        assert ranking.contains_pair(TagPair("a", "b"))

    def test_pairs_and_scores(self):
        ranking = ranking_from([(("a", "b"), 0.9)])
        assert ranking.pairs() == [TagPair("a", "b")]
        assert ranking.scores() == {TagPair("a", "b"): 0.9}

    def test_describe_renders_entries(self):
        ranking = ranking_from([(("a", "b"), 0.9)], timestamp=3600.0, label="demo")
        text = ranking.describe()
        assert "demo" in text
        assert "(a, b)" in text

    def test_describe_empty(self):
        assert "(empty)" in Ranking(timestamp=0.0).describe()

    def test_iteration_and_len(self):
        ranking = ranking_from([(("a", "b"), 0.9), (("c", "d"), 0.5)])
        assert len(ranking) == 2
        assert len(list(ranking)) == 2


class TestOverlapAtK:
    def test_identical_rankings_overlap_fully(self):
        first = ranking_from([(("a", "b"), 0.9), (("c", "d"), 0.5)])
        second = ranking_from([(("a", "b"), 0.8), (("c", "d"), 0.4)])
        assert overlap_at_k(first, second, 2) == 1.0

    def test_disjoint_rankings_do_not_overlap(self):
        first = ranking_from([(("a", "b"), 0.9)])
        second = ranking_from([(("c", "d"), 0.9)])
        assert overlap_at_k(first, second, 1) == 0.0

    def test_partial_overlap(self):
        first = ranking_from([(("a", "b"), 0.9), (("c", "d"), 0.5)])
        second = ranking_from([(("a", "b"), 0.9), (("e", "f"), 0.5)])
        assert overlap_at_k(first, second, 2) == pytest.approx(0.5)

    def test_empty_rankings_overlap_trivially(self):
        assert overlap_at_k(Ranking(0.0), Ranking(0.0), 5) == 1.0
        assert overlap_at_k(Ranking(0.0), Ranking(0.0), 0) == 0.0
