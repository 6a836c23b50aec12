"""Batch-path equivalence and bounded-history behaviour of the engine."""

import pytest

from repro.core.config import EnBlogueConfig
from repro.core.engine import CORPUS_CHUNK, EnBlogue
from repro.core.tracker import CorrelationTracker
from repro.datasets.documents import Document
from repro.datasets.synthetic import figure1_stream
from repro.observability import Observability
from repro.streams.item import StreamItem

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


def doc(t, tags):
    return Document(timestamp=float(t), doc_id=f"doc-{t}", tags=frozenset(tags))


def ranking_signature(engine):
    return [
        (ranking.timestamp, [(topic.pair, topic.score) for topic in ranking])
        for ranking in engine.ranking_history()
    ]


class TestProcessBatchEquivalence:
    def test_batch_rankings_identical_to_single_path_on_figure1(self):
        corpus, _ = figure1_stream(num_steps=45, shift_start=25, shift_length=12)
        single = EnBlogue(config())
        single.process_many(corpus)
        batch = EnBlogue(config())
        batch.process_batch(corpus)
        assert ranking_signature(single) == ranking_signature(batch)
        assert single.documents_processed == batch.documents_processed
        assert single.current_seeds == batch.current_seeds

    def test_chunked_batches_match_one_big_batch(self):
        corpus, _ = figure1_stream(num_steps=30, shift_start=15, shift_length=8)
        documents = list(corpus)
        whole = EnBlogue(config())
        whole.process_batch(documents)
        chunked = EnBlogue(config())
        for start in range(0, len(documents), 17):
            chunked.process_batch(documents[start:start + 17])
        assert ranking_signature(whole) == ranking_signature(chunked)

    def test_batch_returns_every_ranking_produced(self):
        engine = EnBlogue(config())
        produced = engine.process_batch([
            doc(0, ["a", "b"]),
            doc(2.5 * HOUR, ["a", "b"]),
            doc(3.5 * HOUR, ["a", "c"]),
        ])
        # Boundaries at 1h, 2h (crossed by the second doc) and 3h.
        assert len(produced) == 3
        assert [r.timestamp for r in produced] == [HOUR, 2 * HOUR, 3 * HOUR]
        assert engine.ranking_history() == produced

    def test_empty_batch_is_a_noop(self):
        engine = EnBlogue(config())
        assert engine.process_batch([]) == []
        assert engine.documents_processed == 0

    def test_out_of_order_batch_rejected(self):
        engine = EnBlogue(config())
        with pytest.raises(ValueError):
            engine.process_batch([doc(10, ["a"]), doc(5, ["b"])])


class TestOneIngestionPath:
    def test_process_many_keeps_the_chunks_before_a_rejected_one(self):
        corpus, _ = figure1_stream(num_steps=45, shift_start=25)
        documents = list(corpus)[:CORPUS_CHUNK + 10]
        # Out of order inside the second chunk, fed from a generator.
        stale = doc(documents[0].timestamp, ["stale"])
        cut = CORPUS_CHUNK + 5
        stream = documents[:cut] + [stale] + documents[cut:]
        engine = EnBlogue(config())
        with pytest.raises(ValueError, match="out-of-order"):
            engine.process_many(document for document in stream)
        reference = EnBlogue(config())
        reference.process_batch(documents[:CORPUS_CHUNK])
        assert engine.snapshot() == reference.snapshot()
        assert engine.documents_processed == CORPUS_CHUNK

    def test_process_is_one_engine_batch(self):
        observability = Observability()
        engine = EnBlogue(config(), observability=observability)
        batches = observability.registry.get("repro_core_batches_total")
        engine.process(doc(0, ["a", "b"]))
        assert batches.value == 1
        engine.process(doc(2 * HOUR, ["a", "c"]))
        assert batches.value == 2


class TestEvaluationCatchUp:
    def test_quiet_multi_interval_gap_single_path(self):
        engine = EnBlogue(config())
        engine.process(doc(0, ["a", "b"]))
        ranking = engine.process(doc(7 * HOUR, ["a", "b"]))
        # Boundaries 1h..7h were all crossed by the jump; one ranking each.
        assert len(engine.ranking_history()) == 7
        assert ranking is engine.ranking_history()[-1]
        assert [r.timestamp for r in engine.ranking_history()] == [
            i * HOUR for i in range(1, 8)
        ]

    def test_quiet_multi_interval_gap_inside_batch(self):
        single = EnBlogue(config())
        batch = EnBlogue(config())
        documents = [doc(0, ["a", "b"]), doc(7 * HOUR, ["a", "b"]),
                     doc(7.5 * HOUR, ["a", "c"])]
        single.process_many(documents)
        batch.process_batch(documents)
        assert ranking_signature(single) == ranking_signature(batch)
        assert len(batch.ranking_history()) == 7

    def test_gap_straddling_two_batches(self):
        engine = EnBlogue(config())
        engine.process_batch([doc(0, ["a", "b"])])
        engine.process_batch([doc(5 * HOUR, ["a", "b"])])
        assert len(engine.ranking_history()) == 5


class TestTrackerObserveMany:
    def test_observe_many_state_matches_sequential_observes(self):
        sequential = CorrelationTracker(window_horizon=10 * HOUR,
                                        min_pair_support=1, track_usage=True)
        batched = CorrelationTracker(window_horizon=10 * HOUR,
                                     min_pair_support=1, track_usage=True)
        observations = [
            (0.0, ["a", "b"], ["X"]),
            (1.0, ["b", "c"], []),
            (11 * HOUR, ["a", "c"], ["Y"]),
        ]
        for timestamp, tags, entities in observations:
            sequential.observe(timestamp, tags, entities)
        assert batched.observe_many(observations) == 3

        assert sequential.documents_seen == batched.documents_seen
        assert sequential.latest_timestamp == batched.latest_timestamp
        assert sequential.document_count() == batched.document_count()
        assert sequential.tag_window.snapshot() == batched.tag_window.snapshot()
        assert dict(sequential.candidate_index.items()) \
            == dict(batched.candidate_index.items())
        assert sequential._usage == batched._usage

    def test_observe_many_empty_iterable(self):
        tracker = CorrelationTracker(window_horizon=10.0)
        assert tracker.observe_many([]) == 0
        assert tracker.documents_seen == 0

    def test_observe_many_rejects_out_of_order(self):
        tracker = CorrelationTracker(window_horizon=10.0)
        with pytest.raises(ValueError):
            tracker.observe_many([(5.0, ["a"], ()), (1.0, ["b"], ())])

    def test_rejected_batch_leaves_tracker_unchanged(self):
        tracker = CorrelationTracker(window_horizon=10.0, track_usage=True)
        with pytest.raises(ValueError):
            tracker.observe_many([(5.0, ["a", "b"], ()), (1.0, ["x"], ())])
        assert tracker.documents_seen == 0
        assert tracker.document_count() == 0
        assert len(tracker.candidate_index) == 0
        assert tracker._usage == {}
        # The tracker stays fully usable after the rejection.
        tracker.observe(20.0, ["c", "d"])
        assert tracker.document_count() == 1


class TestRankingHistoryBound:
    def test_unbounded_by_default(self):
        engine = EnBlogue(config())
        engine.process(doc(0, ["a", "b"]))
        engine.process(doc(12 * HOUR, ["a", "b"]))
        assert len(engine.ranking_history()) == 12

    def test_max_ranking_history_bounds_retention(self):
        engine = EnBlogue(config(max_ranking_history=4))
        engine.process(doc(0, ["a", "b"]))
        engine.process(doc(12 * HOUR, ["a", "b"]))
        history = engine.ranking_history()
        assert len(history) == 4
        # The newest rankings are the ones retained.
        assert [r.timestamp for r in history] == [
            i * HOUR for i in range(9, 13)
        ]
        assert engine.current_ranking() is history[-1]

    def test_bound_applies_on_batch_path(self):
        engine = EnBlogue(config(max_ranking_history=2))
        engine.process_batch([doc(0, ["a", "b"]), doc(6 * HOUR, ["a", "b"])])
        assert len(engine.ranking_history()) == 2

    def test_invalid_bound_rejected(self):
        with pytest.raises(ValueError):
            config(max_ranking_history=0)


class TestBatchSink:
    def test_as_sink_routes_batches_to_process_batch(self):
        engine = EnBlogue(config())
        sink = engine.as_sink()
        items = [
            StreamItem(timestamp=0.0, doc_id="d1", tags={"a", "b"}),
            StreamItem(timestamp=2 * HOUR, doc_id="d2", tags={"a", "b"}),
        ]
        sink.push_batch(items)
        assert engine.documents_processed == 2
        assert len(engine.ranking_history()) == 2

    def test_sink_single_and_batch_paths_agree(self):
        corpus, _ = figure1_stream(num_steps=20, shift_start=10, shift_length=6)
        items = [
            StreamItem(timestamp=d.timestamp, doc_id=d.doc_id, tags=d.tags)
            for d in corpus
        ]
        single = EnBlogue(config())
        sink = single.as_sink()
        for item in items:
            sink.push(item)
        batch = EnBlogue(config())
        batch.as_sink().push_batch(items)
        assert ranking_signature(single) == ranking_signature(batch)
