"""Tests for the top-k ranking builder."""

import pytest

from repro.core import ranking as ranking_module
from repro.core.engine import EnBlogue
from repro.core.ranking import RankingBuilder, topic_sort_key
from repro.core.shift import ShiftDetector, ShiftScore
from repro.core.tracker import PairObservation
from repro.core.correlation import PairCounts
from repro.core.types import EmergentTopic, TagPair
from repro.timeseries.predictors import LastValuePredictor
from repro.windows.decay import ExponentialDecay

from differential import config, signature, tweet_stream


def shift(pair, score, timestamp=0.0, error=None, correlation=0.5):
    return ShiftScore(
        pair=pair, timestamp=timestamp, correlation=correlation,
        predicted=0.1, error=error if error is not None else score,
        score=score, seed_tag=pair.first,
    )


class TestRankingBuilder:
    def test_builds_sorted_topk(self):
        builder = RankingBuilder(top_k=2)
        scores = [
            shift(TagPair("a", "b"), 0.2),
            shift(TagPair("c", "d"), 0.9),
            shift(TagPair("e", "f"), 0.5),
        ]
        ranking = builder.build(10.0, scores)
        assert len(ranking) == 2
        assert ranking[0].pair == TagPair("c", "d")
        assert ranking[1].pair == TagPair("e", "f")

    def test_min_score_filters_noise(self):
        builder = RankingBuilder(top_k=5, min_score=0.3)
        ranking = builder.build(1.0, [shift(TagPair("a", "b"), 0.1)])
        assert len(ranking) == 0

    def test_zero_score_topics_excluded_by_default(self):
        builder = RankingBuilder(top_k=5)
        ranking = builder.build(1.0, [shift(TagPair("a", "b"), 0.0)])
        assert len(ranking) == 0

    def test_label_attached(self):
        builder = RankingBuilder(top_k=5)
        ranking = builder.build(1.0, [shift(TagPair("a", "b"), 0.5)], label="config-x")
        assert ranking.label == "config-x"

    def test_validation(self):
        with pytest.raises(ValueError):
            RankingBuilder(top_k=0)
        with pytest.raises(ValueError):
            RankingBuilder(min_score=-1.0)

    def test_past_scored_pairs_compete_via_detector(self):
        # A pair scored strongly an hour ago but absent from the current
        # observations must still appear with its decayed score.
        decay = ExponentialDecay(half_life=7200.0)
        detector = ShiftDetector(predictor=LastValuePredictor(), min_history=1, decay=decay)
        old_pair = TagPair("old", "topic")
        detector.update(
            PairObservation(pair=old_pair, timestamp=0.0, correlation=0.9,
                            counts=PairCounts(2, 2, 2, 10), seed_tag="old"),
            [0.0],
        )
        builder = RankingBuilder(top_k=5)
        fresh = [shift(TagPair("new", "topic"), 0.1, timestamp=3600.0)]
        ranking = builder.build(3600.0, fresh, detector=detector)
        assert ranking.contains_pair(old_pair)
        assert ranking[0].pair == old_pair  # 0.9 decayed by half a half-life > 0.1

    def test_current_observation_takes_precedence_over_detector_entry(self):
        detector = ShiftDetector(predictor=LastValuePredictor(), min_history=1)
        pair = TagPair("a", "b")
        detector.update(
            PairObservation(pair=pair, timestamp=0.0, correlation=0.9,
                            counts=PairCounts(2, 2, 2, 10), seed_tag="a"),
            [0.0],
        )
        builder = RankingBuilder(top_k=5)
        ranking = builder.build(0.0, [shift(pair, 0.9, correlation=0.77)], detector=detector)
        # Only one entry for the pair, carrying the fresh correlation value.
        assert len([t for t in ranking if t.pair == pair]) == 1
        assert ranking[0].correlation == pytest.approx(0.77)


class TestDeterministicTieBreaking:
    """The documented total order: score descending, canonical pair ascending."""

    def test_equal_scores_break_by_canonical_pair(self):
        builder = RankingBuilder(top_k=5)
        scores = [
            shift(TagPair("zeta", "omega"), 0.5),
            shift(TagPair("alpha", "beta"), 0.5),
            shift(TagPair("beta", "gamma"), 0.5),
        ]
        ranking = builder.build(1.0, scores)
        assert ranking.pairs() == [
            TagPair("alpha", "beta"),
            TagPair("beta", "gamma"),
            TagPair("omega", "zeta"),
        ]

    def test_order_is_independent_of_input_order(self):
        builder = RankingBuilder(top_k=10)
        scores = [
            shift(TagPair("c", "d"), 0.5),
            shift(TagPair("a", "b"), 0.5),
            shift(TagPair("e", "f"), 0.9),
            shift(TagPair("g", "h"), 0.5),
        ]
        forward = builder.build(1.0, scores)
        backward = builder.build(1.0, list(reversed(scores)))
        assert forward.topics == backward.topics

    def test_topic_sort_key_is_total_over_distinct_pairs(self):
        builder = RankingBuilder(top_k=10)
        ranking = builder.build(1.0, [
            shift(TagPair("a", "b"), 0.5),
            shift(TagPair("a", "c"), 0.5),
        ])
        keys = [topic_sort_key(topic) for topic in ranking]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)


class TestKWayMerge:
    """Cross-shard merge: identical to ranking the union in one builder."""

    def test_merge_of_disjoint_sorted_lists_equals_union_build(self):
        builder = RankingBuilder(top_k=3)
        all_scores = [
            shift(TagPair("a", "b"), 0.7),
            shift(TagPair("c", "d"), 0.9),
            shift(TagPair("e", "f"), 0.5),
            shift(TagPair("g", "h"), 0.5),
            shift(TagPair("i", "j"), 0.1),
        ]
        union = builder.build(5.0, all_scores, label="union")
        # Partition the scores over two "shards" and merge their local top-k.
        local_a = builder.top_topics(5.0, all_scores[0::2])
        local_b = builder.top_topics(5.0, all_scores[1::2])
        merged = builder.merge(5.0, [local_a, local_b], label="union")
        assert merged.topics == union.topics
        assert merged.timestamp == union.timestamp
        assert merged.label == "union"

    def test_merge_truncates_to_top_k(self):
        builder = RankingBuilder(top_k=2)
        local = builder.top_topics(1.0, [
            shift(TagPair("a", "b"), 0.9),
            shift(TagPair("c", "d"), 0.8),
        ])
        other = builder.top_topics(1.0, [shift(TagPair("e", "f"), 0.85)])
        merged = builder.merge(1.0, [local, other])
        assert [topic.score for topic in merged] == [0.9, 0.85]

    def test_merge_of_no_shards_is_empty(self):
        builder = RankingBuilder(top_k=2)
        assert len(builder.merge(1.0, [])) == 0


def count_topics(monkeypatch):
    """Count the topics the ranking module builds from here on."""
    built = []

    def counted(*args, **kwargs):
        built.append(None)
        return EmergentTopic(*args, **kwargs)

    monkeypatch.setattr(ranking_module, "EmergentTopic", counted)
    return built


class TestOnlyPublishedTopicsAreBuilt:
    """The top k are picked from ``(-score, pair)`` keys; only they become
    topics."""

    def scored(self, pairs, score, timestamp):
        # With a last-value forecast of 0, the error, and so the decayed
        # maximum as of ``timestamp``, is exactly the correlation.
        detector = ShiftDetector(predictor=LastValuePredictor(), min_history=1)
        for pair in pairs:
            detector.update(
                PairObservation(pair=pair, timestamp=timestamp,
                                correlation=score,
                                counts=PairCounts(2, 2, 2, 10),
                                seed_tag=pair.first),
                [0.0],
            )
        return detector

    def test_ties_between_fresh_and_decayed_scores(self, monkeypatch):
        decayed = [TagPair("a", "c"), TagPair("b", "d"), TagPair("e", "f")]
        detector = self.scored(decayed, 0.5, 10.0)
        fresh = [shift(TagPair("a", "b"), 0.5, timestamp=10.0),
                 shift(TagPair("b", "c"), 0.5, timestamp=10.0),
                 shift(TagPair("a", "z"), 0.25, timestamp=10.0)]
        built = count_topics(monkeypatch)
        topics = RankingBuilder(top_k=3).top_topics(10.0, fresh, detector)
        assert len(built) == 3
        # Five pairs tie at 0.5: the three smallest pairs win, fresh and
        # decayed alike, each with the fields of where its score came from.
        assert [topic.pair for topic in topics] \
            == [TagPair("a", "b"), TagPair("a", "c"), TagPair("b", "c")]
        assert [topic.score for topic in topics] == [0.5, 0.5, 0.5]
        assert [topic.seed_tag for topic in topics] == ["a", None, "b"]
        assert topics == sorted(topics, key=topic_sort_key)

    def test_the_scalar_engine_builds_at_most_top_k_per_evaluation(
        self, monkeypatch
    ):
        docs = tweet_stream(hours=24, per_hour=60, seed=7)
        scalar = EnBlogue(config(top_k=3), vectorize=False)
        built = count_topics(monkeypatch)
        scalar.process_many(docs)
        evaluations = len(scalar.ranking_history())
        assert evaluations and len(scalar.detector.scored_pairs()) > 3
        assert len(built) <= 3 * evaluations
        monkeypatch.undo()
        fused = EnBlogue(config(top_k=3))
        fused.process_many(docs)
        assert signature(scalar) == signature(fused)
