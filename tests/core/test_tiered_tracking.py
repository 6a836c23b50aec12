"""Two-tier sketch-backed tracking through the single engine.

Pins the tentpole's contract: ``promote_support`` of 0 or 1 degenerates
bit-identically to the exact engine, a nonzero threshold bounds the
exact tier's live-pair population, and the tier surfaces through
``runtime_info`` and the metrics registry.  The acceptance gates hold
on a 120,000-tag stream: a >= 5x cut in peak live pairs at >= 0.9 recall
of the exact top-k, and a 2->4-shard resume that ranks like one engine.
"""

import pytest

from repro.core.config import DAY, HOUR, EnBlogueConfig, live_stream_config
from repro.core.engine import EnBlogue, make_sketch_tier
from repro.datasets.synthetic import SyntheticStreamGenerator
from repro.datasets.vocabulary import TagVocabulary
from repro.observability import Observability
from repro.persistence.resume import load_engine
from repro.sharding import ShardedEnBlogue

from differential import signature, tweet_stream


def replay(config, docs, **kwargs):
    engine = EnBlogue(config, **kwargs)
    for document in docs:
        engine.process(document)
    engine.evaluate_now()
    return engine


BASE = live_stream_config()


class TestDegenerateThresholds:
    def test_no_tier_below_promote_support_two(self):
        assert make_sketch_tier(BASE) is None
        assert make_sketch_tier(
            BASE.with_overrides(tracking="tiered", promote_support=0)
        ) is None
        assert make_sketch_tier(
            BASE.with_overrides(tracking="tiered", promote_support=1)
        ) is None
        assert make_sketch_tier(
            BASE.with_overrides(tracking="tiered", promote_support=2)
        ) is not None

    @pytest.mark.parametrize("threshold", [0, 1])
    def test_rankings_bit_identical_to_exact(self, threshold):
        docs = tweet_stream()
        exact = replay(BASE, docs)
        tiered = replay(
            BASE.with_overrides(
                tracking="tiered", promote_support=threshold
            ),
            docs,
        )
        assert signature(tiered) == signature(exact)
        assert tiered.tracker.snapshot() == exact.tracker.snapshot()


class TestNonzeroThreshold:
    def test_live_pairs_reduced(self):
        docs = tweet_stream()
        exact = replay(BASE, docs)
        tiered = replay(
            BASE.with_overrides(tracking="tiered", promote_support=4), docs
        )
        assert len(tiered.tracker.candidate_index) < len(
            exact.tracker.candidate_index
        )
        tier = tiered.tracker.tier
        assert tier is not None
        assert tier.filtered > 0
        assert tier.promotions > 0

    def test_promoted_pairs_still_rank(self):
        docs = tweet_stream()
        tiered = replay(
            BASE.with_overrides(tracking="tiered", promote_support=3), docs
        )
        assert any(ranking.topics for ranking in tiered.ranking_history())


class TestSurface:
    def test_runtime_info_names_the_mode(self):
        exact = EnBlogue(BASE)
        info = exact.runtime_info()
        assert info["tracking"] == "exact"
        assert info["promote_support"] == 0

        tiered = EnBlogue(
            BASE.with_overrides(tracking="tiered", promote_support=3)
        )
        info = tiered.runtime_info()
        assert info["tracking"] == "tiered"
        assert info["promote_support"] == 3

    def test_tier_gauges_live_on_the_registry(self):
        observability = Observability()
        engine = EnBlogue(
            BASE.with_overrides(tracking="tiered", promote_support=3),
            observability=observability,
        )
        for document in tweet_stream(hours=6):
            engine.process(document)
        registry = observability.registry
        tier = engine.tracker.tier
        assert registry.gauge(
            "repro_tracking_sketched_keys"
        ).value == tier.tracked_keys
        assert registry.gauge(
            "repro_tracking_filtered_occurrences"
        ).value == tier.filtered
        assert registry.gauge(
            "repro_tracking_promotions"
        ).value == tier.promotions

    def test_describe_carries_the_mode(self):
        config = BASE.with_overrides(tracking="tiered", promote_support=5)
        described = config.describe()
        assert described["tracking"] == "tiered"
        assert described["promote_support"] == 5


def approximate_docs():
    """A Zipf stream over 120,000 tags, 72 hourly steps of 200 documents.

    Enough tags that exact tracking pays the quadratic pair blow-up the
    sketch tier exists to bound.
    """
    vocabulary = TagVocabulary(
        {"tail": [f"tag{i:06d}" for i in range(120_000)]})
    generator = SyntheticStreamGenerator(
        vocabulary=vocabulary, docs_per_step=200, tags_per_doc=(2, 4),
        step=HOUR, seed=51)
    return [doc for batch in generator.iter_batches(72) for doc in batch]


EXACT = EnBlogueConfig(
    window_horizon=24 * HOUR, evaluation_interval=HOUR, num_seeds=15,
    min_seed_count=1, min_pair_support=5, min_history=2, predictor="ewma",
    decay_half_life=2 * DAY, top_k=10)
#: The gates are asserted at promote support K = 2.
TIERED = EXACT.with_overrides(tracking="tiered", promote_support=2)


def replay_peak(config, docs, sample_every=512):
    """Replay ``docs``; return ``(engine, peak live pairs)``.

    The peak is sampled between ``sample_every``-document chunks: live
    pairs rise and fall with window eviction, so the end-of-stream count
    alone would understate what the exact tracker had to hold.
    """
    engine = EnBlogue(config)
    peak = 0
    for begin in range(0, len(docs), sample_every):
        engine.process_batch(docs[begin:begin + sample_every])
        peak = max(peak, len(engine.tracker.candidate_index))
    return engine, peak


def topk_recall(exact_engine, tiered_engine):
    """Micro-averaged recall of the tiered top-k against the exact top-k."""
    exact_total = intersection = 0
    for exact_ranking, tiered_ranking in zip(
            exact_engine.ranking_history(), tiered_engine.ranking_history()):
        exact_pairs = {topic.pair for topic in exact_ranking}
        exact_total += len(exact_pairs)
        intersection += len(exact_pairs & {topic.pair for topic in tiered_ranking})
    return intersection / exact_total if exact_total else 1.0


def test_tiered_tracking_meets_approximate_gates(tmp_path):
    """At K = 2 the tier cuts the exact peak live pairs by >= 5x at >= 0.9
    recall, and a mid-stream checkpoint of a tiered 2-shard replay resumed
    into 4 shards ranks exactly like the uninterrupted single engine.
    Synthetic stream and blake2b hashing: nothing here depends on load.
    """
    docs = approximate_docs()
    exact_engine, exact_peak = replay_peak(EXACT, docs)
    tiered_engine, tiered_peak = replay_peak(TIERED, docs)
    assert exact_peak / tiered_peak >= 5.0
    assert topk_recall(exact_engine, tiered_engine) >= 0.9

    half = len(docs) // 2
    first = ShardedEnBlogue(TIERED, num_shards=2)
    try:
        first.process_batch(docs[:half])
        first.save_checkpoint(tmp_path)
    finally:
        first.close()
    resumed, _ = load_engine(tmp_path, num_shards=4)
    try:
        resumed.process_batch(docs[half:])
        assert signature(resumed) == signature(tiered_engine)
    finally:
        resumed.close()
