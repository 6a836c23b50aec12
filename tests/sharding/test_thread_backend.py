"""The threads shard backend: equivalence and the engine's view of it.

What every transport owes the coordinator (ordering, sticky failures,
teardown, dead workers, by-reference delivery) is asserted once for all
three in ``test_backend_contract.py``; this file keeps what is about the
engine running on threads — bit-identical rankings from the same plain
coordinator tag window the other backends use.
"""

import pytest

from repro.core.config import EnBlogueConfig
from repro.core.engine import EnBlogue
from repro.datasets.twitter import TweetStreamGenerator
from repro.sharding import ShardedEnBlogue

HOUR = 3600.0


def config(**overrides):
    defaults = dict(
        window_horizon=6 * HOUR,
        evaluation_interval=HOUR,
        num_seeds=10,
        min_seed_count=1,
        min_pair_support=1,
        min_history=2,
        predictor="moving_average",
        predictor_window=3,
    )
    defaults.update(overrides)
    return EnBlogueConfig(**defaults)


def signature(engine):
    return [
        (ranking.timestamp, ranking.label, ranking.topics)
        for ranking in engine.ranking_history()
    ]


@pytest.fixture(scope="module")
def tweet_docs():
    corpus, _ = TweetStreamGenerator(hours=24, tweets_per_hour=60,
                                     seed=7).generate()
    return list(corpus)


def single_reference(docs, cfg):
    engine = EnBlogue(cfg)
    engine.process_batch(docs)
    engine.evaluate_now()
    return engine


class TestThreadBackendEquivalence:
    @pytest.mark.parametrize("num_shards", [1, 2, 4])
    def test_twitter_stream_rankings_bit_identical(self, tweet_docs, num_shards):
        cfg = config()
        reference = single_reference(tweet_docs, cfg)
        with ShardedEnBlogue(cfg, num_shards=num_shards,
                             backend="threads", chunk_size=128) as sharded:
            sharded.process_batch(tweet_docs)
            sharded.evaluate_now()
            assert signature(sharded) == signature(reference)

    def test_checkpoint_restore_mid_stream_stays_identical(self, tweet_docs):
        docs = tweet_docs[:600]
        cfg = config()
        reference = single_reference(docs, cfg)
        cut = len(docs) // 2
        with ShardedEnBlogue(cfg, num_shards=2, backend="threads") as first:
            first.process_batch(docs[:cut])
            state = first.snapshot()
        with ShardedEnBlogue(cfg, num_shards=2, backend="threads") as second:
            second.restore(state)
            second.process_batch(docs[cut:])
            second.evaluate_now()
            final = second.ranking_history()[-1]
        assert final == reference.ranking_history()[-1]


class TestEngineOnThreads:
    def test_shard_stats_report_evaluation_path(self, tweet_docs):
        with ShardedEnBlogue(config(), num_shards=2,
                             backend="threads") as sharded:
            sharded.process_batch(tweet_docs[:200])
            stats = sharded.shard_stats()
            assert [entry["shard_id"] for entry in stats] == [0, 1]
            assert all(
                entry["evaluation_path"] in ("vectorized", "scalar")
                for entry in stats
            )

    def test_runtime_info_names_backend_and_path(self):
        with ShardedEnBlogue(config(), num_shards=2,
                             backend="threads") as sharded:
            info = sharded.runtime_info()
        assert info["engine"] == "sharded"
        assert info["backend"] == "threads"
        assert info["shards"] == 2
        assert info["evaluation_path"] in ("vectorized", "scalar")
