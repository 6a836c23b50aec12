"""Engine-level checkpoint/restore: the bit-identical resume guarantee.

The acceptance bar of the persistence layer: a run interrupted between two
documents and resumed from its checkpoint — on either engine, either
backend, and *including a different shard count* — produces rankings
bit-identical to the uninterrupted run.  "Bit-identical" is full
``EmergentTopic`` equality over the complete ranking history, exactly as
in the sharded-equivalence suite.
"""

import pytest

from repro.core.engine import EnBlogue
from repro.core.shift import scores_from_state
from repro.core.tracker import histories_from_state
from repro.datasets.twitter import TweetStreamGenerator
from repro.persistence import load_engine
from repro.persistence.snapshot import SnapshotMismatchError
from repro.sharding import ProcessBackend, ShardedEnBlogue
from repro.sharding.reshard import reshard_worker_states

from differential import HOUR, config, signature


@pytest.fixture(scope="module")
def tweet_docs():
    corpus, _ = TweetStreamGenerator(hours=16, tweets_per_hour=40,
                                     seed=7).generate()
    return list(corpus)


@pytest.fixture(scope="module")
def reference(tweet_docs):
    engine = EnBlogue(config())
    engine.process_many(tweet_docs)
    return signature(engine)


class TestSingleEngine:
    def test_mid_stream_checkpoint_resumes_bit_identically(
        self, tweet_docs, reference, tmp_path
    ):
        engine = EnBlogue(config())
        engine.process_many(tweet_docs[:200])
        engine.save_checkpoint(tmp_path)
        resumed, _ = load_engine(tmp_path)
        assert isinstance(resumed, EnBlogue)
        assert resumed.documents_processed == 200
        resumed.process_many(tweet_docs[200:])
        assert signature(resumed) == reference

    def test_checkpoint_mid_catchup_window(self, reference, tweet_docs,
                                           tmp_path):
        # Checkpoint right after a boundary was crossed (a ranking was just
        # published): the very next document resumes the catch-up loop.
        engine = EnBlogue(config())
        boundary_doc = next(
            index for index, document in enumerate(tweet_docs)
            if engine.process(document) is not None
        )
        engine.save_checkpoint(tmp_path)
        resumed, _ = load_engine(tmp_path)
        resumed.process_many(tweet_docs[boundary_doc + 1:])
        assert signature(resumed) == reference

    def test_restore_under_different_config_is_rejected(self, tweet_docs,
                                                        tmp_path):
        engine = EnBlogue(config())
        engine.process_many(tweet_docs[:50])
        engine.save_checkpoint(tmp_path)
        other = EnBlogue(config(top_k=5, num_seeds=20))
        from repro.persistence.store import read_checkpoint
        _, state = read_checkpoint(tmp_path)
        with pytest.raises(SnapshotMismatchError) as excinfo:
            other.restore(state)
        assert "top_k" in str(excinfo.value)
        assert "num_seeds" in str(excinfo.value)

    def test_single_checkpoint_cannot_be_resharded(self, tweet_docs, tmp_path):
        engine = EnBlogue(config())
        engine.process_many(tweet_docs[:50])
        engine.save_checkpoint(tmp_path)
        with pytest.raises(SnapshotMismatchError, match="single-engine"):
            load_engine(tmp_path, num_shards=4)

    def test_listeners_see_post_resume_rankings(self, tweet_docs, tmp_path):
        engine = EnBlogue(config())
        engine.process_many(tweet_docs[:200])
        engine.save_checkpoint(tmp_path)
        resumed, _ = load_engine(tmp_path)
        seen = []
        resumed.add_ranking_listener(seen.append)
        resumed.process_many(tweet_docs[200:])
        assert seen == resumed.ranking_history()[-len(seen):]
        assert len(seen) > 0


class TestShardedEngine:
    @pytest.mark.parametrize("num_shards", [1, 2, 4])
    def test_serial_checkpoint_resumes_bit_identically(
        self, tweet_docs, reference, tmp_path, num_shards
    ):
        with ShardedEnBlogue(config(), num_shards=num_shards) as engine:
            engine.process_many(tweet_docs[:200])
            engine.save_checkpoint(tmp_path)
        resumed, manifest = load_engine(tmp_path)
        assert manifest["num_shards"] == num_shards
        with resumed:
            resumed.process_many(tweet_docs[200:])
            assert signature(resumed) == reference

    @pytest.mark.parametrize("resume_shards", [1, 2, 4])
    def test_reshard_on_restore_is_bit_identical(
        self, tweet_docs, reference, tmp_path, resume_shards
    ):
        # The headline property: a 2-shard checkpoint restores into any
        # shard count by re-routing the pair state through the CRC-32 hash.
        with ShardedEnBlogue(config(), num_shards=2) as engine:
            engine.process_many(tweet_docs[:200])
            engine.save_checkpoint(tmp_path)
        resumed, _ = load_engine(tmp_path, num_shards=resume_shards)
        with resumed:
            assert resumed.num_shards == resume_shards
            resumed.process_many(tweet_docs[200:])
            assert signature(resumed) == reference

    def test_process_backend_spawn_roundtrip(self, tweet_docs, reference,
                                             tmp_path):
        # The pinned default ("spawn") end to end: checkpoint a process
        # deployment mid-stream, resume it as a re-sharded process
        # deployment.  This is the test that caught TagPair leaking its
        # process-salted cached hash through pickle.
        with ShardedEnBlogue(config(), num_shards=2,
                             backend="process") as engine:
            assert engine.backend.start_method == "spawn"
            engine.process_many(tweet_docs[:200])
            engine.save_checkpoint(tmp_path)
        resumed, _ = load_engine(tmp_path, num_shards=4, backend="process")
        with resumed:
            resumed.process_many(tweet_docs[200:])
            assert signature(resumed) == reference

    def test_resume_across_backends(self, tweet_docs, reference, tmp_path):
        # Backend choice is runtime, not stream state: a serial checkpoint
        # resumes under worker processes (and would vice versa).
        with ShardedEnBlogue(config(), num_shards=2) as engine:
            engine.process_many(tweet_docs[:200])
            engine.save_checkpoint(tmp_path)
        resumed, _ = load_engine(
            tmp_path, backend=ProcessBackend(start_method="fork"),
        )
        with resumed:
            resumed.process_many(tweet_docs[200:])
            assert signature(resumed) == reference

    def test_chunk_size_is_free_to_differ_on_resume(self, tweet_docs,
                                                    reference, tmp_path):
        with ShardedEnBlogue(config(), num_shards=2,
                             chunk_size=64) as engine:
            engine.process_many(tweet_docs[:200])
            engine.save_checkpoint(tmp_path)
        resumed, _ = load_engine(tmp_path, chunk_size=7)
        with resumed:
            resumed.process_many(tweet_docs[200:])
            assert signature(resumed) == reference

    def test_snapshot_flushes_buffered_chunks(self, tweet_docs):
        with ShardedEnBlogue(config(), num_shards=2,
                             chunk_size=4096) as engine:
            engine.process_many(tweet_docs[:50])
            state = engine.snapshot()
        # The shard states leave their pair events out (restore derives
        # them), but their event counts show what reached them.
        events = sum(
            shard["tracker"]["documents_seen"] for shard in state["shards"]
        )
        assert events > 0

    def test_closed_engine_refuses_snapshot_and_restore(self, tweet_docs):
        engine = ShardedEnBlogue(config(), num_shards=2)
        engine.process(tweet_docs[0])
        state = engine.snapshot()
        engine.close()
        with pytest.raises(RuntimeError, match="closed"):
            engine.snapshot()
        with pytest.raises(RuntimeError, match="closed"):
            engine.restore(state)


class TestReshardStates:
    def shard_states(self, tweet_docs, num_shards=2):
        with ShardedEnBlogue(config(), num_shards=num_shards) as engine:
            engine.process_many(tweet_docs[:200])
            return engine.snapshot()["shards"]

    def test_reshard_is_deterministic(self, tweet_docs):
        states = self.shard_states(tweet_docs)
        assert reshard_worker_states(states, 3) \
            == reshard_worker_states(states, 3)

    def test_reshard_partitions_all_per_pair_state(self, tweet_docs):
        states = self.shard_states(tweet_docs)
        resharded = reshard_worker_states(states, 3)
        assert [s["shard_id"] for s in resharded] == [0, 1, 2]

        def union(states, extract):
            merged = []
            for state in states:
                merged.extend(extract(state))
            return sorted(merged, key=lambda e: (e[0], e[1]))

        # Pair events and candidate counts are no part of a shard state:
        # the coordinator derives them on restore.
        for extract in (
            lambda s: histories_from_state(s["tracker"]),
            lambda s: scores_from_state(s["detector"]),
        ):
            assert union(states, extract) == union(resharded, extract)

    def test_empty_state_list_rejected(self):
        with pytest.raises(SnapshotMismatchError):
            reshard_worker_states([], 2)

    def test_disagreeing_shards_rejected(self, tweet_docs):
        states = self.shard_states(tweet_docs)
        states[1]["tracker"]["window_horizon"] = 123.0
        with pytest.raises(SnapshotMismatchError, match="window_horizon"):
            reshard_worker_states(states, 2)
