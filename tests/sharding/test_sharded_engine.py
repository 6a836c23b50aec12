"""Sharded scatter-gather engine: bit-identical to the single engine.

The acceptance bar of the sharding subsystem: for shard counts 1, 2 and 4,
``ShardedEnBlogue`` with the serial backend produces rankings *bit-identical*
to ``EnBlogue`` on the synthetic and twitter generators, and the process
backend matches too.  "Bit-identical" is checked through full
``EmergentTopic`` equality — every float (score, correlation, prediction,
error) must agree exactly, not approximately.
"""

from types import SimpleNamespace

import pytest

from repro.core.engine import EnBlogue
from repro.datasets.synthetic import correlation_shift_stream
from repro.persistence import read_checkpoint
from repro.sharding import (
    ProcessBackend,
    SerialBackend,
    ShardedEnBlogue,
    make_backend,
)

from differential import (
    BY_REFERENCE, HOUR, config, doc, signature, tweet_stream,
)


@pytest.fixture(scope="module")
def tweet_docs():
    return tweet_stream(hours=24, per_hour=60, seed=7)


@pytest.fixture(scope="module")
def shift_docs():
    corpus, _ = correlation_shift_stream(num_events=3, num_steps=48,
                                         shift_start=24, seed=11)
    return list(corpus)


def single_reference(docs, cfg):
    engine = EnBlogue(cfg)
    engine.process_many(docs)
    engine.evaluate_now()
    return engine


class TestSerialEquivalence:
    @pytest.mark.parametrize("num_shards", [1, 2, 4])
    def test_twitter_stream_rankings_bit_identical(self, tweet_docs, num_shards):
        cfg = config()
        reference = single_reference(tweet_docs, cfg)
        with ShardedEnBlogue(cfg, num_shards=num_shards,
                             chunk_size=64) as sharded:
            sharded.process_many(tweet_docs)
            sharded.evaluate_now()
            assert signature(sharded) == signature(reference)
            assert sharded.documents_processed == reference.documents_processed
            assert sharded.current_seeds == reference.current_seeds

    @pytest.mark.parametrize("num_shards", [1, 2, 4])
    def test_synthetic_shift_stream_rankings_bit_identical(self, shift_docs,
                                                           num_shards):
        cfg = config(min_pair_support=2, predictor="ewma")
        reference = single_reference(shift_docs, cfg)
        with ShardedEnBlogue(cfg, num_shards=num_shards,
                             chunk_size=32) as sharded:
            sharded.process_many(shift_docs)
            sharded.evaluate_now()
            assert signature(sharded) == signature(reference)

    def test_batch_path_matches_per_document_path(self, tweet_docs):
        cfg = config()
        with ShardedEnBlogue(cfg, num_shards=4) as per_doc, \
                ShardedEnBlogue(cfg, num_shards=4) as batched:
            per_doc.process_many(tweet_docs)
            for start in range(0, len(tweet_docs), 97):
                batched.process_batch(tweet_docs[start:start + 97])
            assert signature(per_doc) == signature(batched)
            assert per_doc.documents_processed == batched.documents_processed

    def test_chunk_size_does_not_affect_rankings(self, tweet_docs):
        cfg = config()
        signatures = []
        for chunk_size in (1, 17, 4096):
            with ShardedEnBlogue(cfg, num_shards=3,
                                 chunk_size=chunk_size) as sharded:
                sharded.process_many(tweet_docs)
                sharded.evaluate_now()
                signatures.append(signature(sharded))
        assert signatures[0] == signatures[1] == signatures[2]

    def test_catch_up_over_quiet_stretch(self):
        # A jump across several evaluation boundaries must publish one
        # ranking per boundary, exactly like the single engine.
        cfg = config()
        docs = [doc(0, ["a", "b"]), doc(600, ["a", "b"]),
                doc(5 * HOUR, ["a", "c"])]
        reference = EnBlogue(cfg)
        reference.process_many(docs)
        with ShardedEnBlogue(cfg, num_shards=2) as sharded:
            sharded.process_many(docs)
            assert signature(sharded) == signature(reference)
            assert len(sharded.ranking_history()) == 5

    def test_listeners_fire_per_boundary_with_matching_counts(self, tweet_docs):
        cfg = config()
        seen = []
        with ShardedEnBlogue(cfg, num_shards=2) as sharded:
            sharded.add_ranking_listener(
                lambda ranking: seen.append(
                    (ranking.timestamp, sharded.documents_processed)
                )
            )
            sharded.process_batch(tweet_docs)
        reference = EnBlogue(cfg)
        expected = []
        reference.add_ranking_listener(
            lambda ranking: expected.append(
                (ranking.timestamp, reference.documents_processed)
            )
        )
        reference.process_batch(tweet_docs)
        assert seen == expected


class TestProcessBackend:
    """(Process pools publishing the single engine's rankings are rows of
    the differential matrix; the pinned spawn default is exercised by
    ``test_rankings_identical_across_start_methods``.)"""

    def test_shard_stats_report_partitioned_state(self, tweet_docs):
        with ShardedEnBlogue(config(), num_shards=4,
                             backend="process") as sharded:
            sharded.process_batch(tweet_docs[:500])
            stats = sharded.shard_stats()
            assert [entry["shard_id"] for entry in stats] == [0, 1, 2, 3]
            assert sum(entry["live_pairs"] for entry in stats) > 0


class TestEngineSurface:
    def test_kl_measure_rejected_at_construction_with_actionable_message(self):
        # The error must name the config key and list the measures that DO
        # work sharded, so the fix is evident without reading the source.
        with pytest.raises(ValueError) as excinfo:
            ShardedEnBlogue(config(correlation_measure="kl"), num_shards=2)
        message = str(excinfo.value)
        assert "correlation_measure" in message
        for supported in ("jaccard", "overlap", "cosine", "pmi"):
            assert supported in message
        assert "EnBlogue" in message

    def test_kl_rejection_leaks_no_backend(self):
        # Construction fails before the backend starts: no worker processes
        # are left behind by the raise.
        backend = SerialBackend()
        with pytest.raises(ValueError):
            ShardedEnBlogue(config(correlation_measure="kl"), num_shards=2,
                            backend=backend)
        assert backend.health() == [] and backend.stats() == []

    def test_process_backend_start_method_pinned_to_spawn(self):
        # The platform default ("fork" on Linux, "spawn" on macOS) must not
        # leak into worker behavior; the pinned default is overridable.
        assert ProcessBackend().start_method == "spawn"
        assert make_backend("process").start_method == "spawn"
        assert ProcessBackend(start_method="fork").start_method == "fork"

    @pytest.mark.parametrize("start_method", ["spawn", "fork"])
    def test_rankings_identical_across_start_methods(self, tweet_docs,
                                                     start_method):
        cfg = config()
        reference = single_reference(tweet_docs[:300], cfg)
        backend = ProcessBackend(start_method=start_method)
        with ShardedEnBlogue(cfg, num_shards=2, backend=backend) as sharded:
            sharded.process_batch(tweet_docs[:300])
            sharded.evaluate_now()
            assert signature(sharded) == signature(reference)

    def test_chunk_size_validated(self):
        with pytest.raises(ValueError):
            ShardedEnBlogue(config(), num_shards=2, chunk_size=0)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown shard backend"):
            make_backend("fibers")

    def test_evaluate_now_requires_documents(self):
        with ShardedEnBlogue(config(), num_shards=2) as sharded:
            with pytest.raises(ValueError):
                sharded.evaluate_now()

    def test_out_of_order_document_rejected(self):
        with ShardedEnBlogue(config(), num_shards=2) as sharded:
            sharded.process(doc(100, ["a", "b"]))
            with pytest.raises(ValueError, match="out-of-order"):
                sharded.process(doc(50, ["a", "c"]))

    def test_rejected_batch_leaves_engine_unchanged(self, tweet_docs):
        # The whole chunk is validated before any state is touched: after a
        # rejected batch the engine continues exactly as if the batch had
        # never been offered.
        cfg = config()
        reference = EnBlogue(cfg)
        reference.process_many(tweet_docs)
        reference.evaluate_now()
        with ShardedEnBlogue(cfg, num_shards=2) as sharded:
            half = len(tweet_docs) // 2
            sharded.process_batch(tweet_docs[:half])
            with pytest.raises(ValueError, match="out-of-order"):
                sharded.process_batch([doc(1e12, ["x", "y"]),
                                       doc(0, ["a", "b"])])
            assert sharded.documents_processed == half
            sharded.process_batch(tweet_docs[half:])
            sharded.evaluate_now()
            assert signature(sharded) == signature(reference)

    @pytest.mark.parametrize("malformed,error", [
        pytest.param(SimpleNamespace(timestamp=3.0, tags=7), TypeError,
                     id="undecomposable"),
        pytest.param(doc(1.5, ["a", "b"]), ValueError, id="out-of-order"),
    ])
    @pytest.mark.parametrize("journal", [False, True])
    @pytest.mark.parametrize("backend", BY_REFERENCE)
    def test_malformed_document_mid_batch_leaves_engine_unchanged(
        self, tmp_path, backend, journal, malformed, error
    ):
        # Decomposition can fail too, not only the order check: the run is
        # decomposed in full before the tag window, the shard buffers or an
        # armed journal see any of it.  The twin never sees the rejected
        # batch; everything observable must agree.
        cfg = config()
        good = [doc(0, ["a", "b"]), doc(1, ["a", "b", "c"])]
        rejected = [doc(2, ["a", "c"]), malformed]
        engines = [
            ShardedEnBlogue(cfg, num_shards=2, backend=backend)
            for _ in range(2)
        ]
        try:
            for index, engine in enumerate(engines):
                engine.process_batch(good)
                if journal:
                    engine.save_checkpoint(tmp_path / str(index),
                                           track_deltas=True)
            offered, twin = engines
            before = offered.snapshot()
            with pytest.raises(error):
                offered.process_batch(rejected)
            assert offered.documents_processed == len(good)
            assert offered.snapshot() == before == twin.snapshot()
            if journal:
                delta = offered.delta_since(1)
                assert delta["times"] == []
                assert delta == twin.delta_since(1)
        finally:
            for engine in engines:
                engine.close()

    def test_chunk_left_full_by_a_failed_dispatch_is_retried(self, tmp_path):
        # A dispatch that raises leaves the chunk buffered and full; the
        # next document joins it and the dispatch is attempted again.  The
        # documents the window took before it are ingested: counted, and
        # journaled.
        with ShardedEnBlogue(config(), num_shards=1, chunk_size=2) as sharded:
            sharded.save_checkpoint(tmp_path, track_deltas=True)
            ingest = sharded.backend.ingest
            sent = []

            def failing_once(chunks):
                if not sent:
                    sent.append(None)
                    raise RuntimeError("transport down")
                sent.append([list(chunk) for chunk in chunks])
                ingest(chunks)

            sharded.backend.ingest = failing_once
            with pytest.raises(RuntimeError, match="transport down"):
                sharded.process_batch([doc(0, ["a", "b"]), doc(1, ["a", "c"]),
                                       doc(2, ["b", "c"])])
            sharded.process_batch([doc(2, ["b", "c"]), doc(3, ["a", "b"])])
            assert [len(chunk) for chunk in sent[1]] == [3]
            assert sharded.shard_stats()[0]["events"] == 4
            assert sharded.documents_processed == 4
            sharded.save_delta_checkpoint(tmp_path)
            assert read_checkpoint(tmp_path)[1] == sharded.snapshot()

    def test_backend_instance_accepted(self):
        backend = SerialBackend()
        with ShardedEnBlogue(config(), num_shards=2, backend=backend) as sharded:
            sharded.process(doc(0, ["a", "b"]))
            assert sharded.backend is backend
            assert [entry["shard_id"] for entry in backend.stats()] == [0, 1]
            assert all(record["alive"] for record in backend.health())

    def test_as_sink_feeds_engine(self, tweet_docs):
        cfg = config()
        reference = EnBlogue(cfg)
        reference.process_many(tweet_docs[:200])
        with ShardedEnBlogue(cfg, num_shards=2) as sharded:
            sink = sharded.as_sink()
            sink.push_batch(tweet_docs[:150])
            for document in tweet_docs[150:200]:
                sink.push(document)
            assert signature(sharded) == signature(reference)
