"""Tests for the experiment runner."""

import pytest

from repro.core.config import EnBlogueConfig
from repro.core.engine import CORPUS_CHUNK, EnBlogue
from repro.datasets.events import EmergentEvent, EventSchedule
from repro.datasets.synthetic import SyntheticStreamGenerator, figure1_stream
from repro.evaluation.harness import run_detector, run_experiment, score_run
from repro.sharding import ShardedEnBlogue

HOUR = 3600.0


SMALL_CONFIG = EnBlogueConfig(
    window_horizon=6 * HOUR, evaluation_interval=HOUR,
    num_seeds=10, min_seed_count=1, min_pair_support=1, min_history=2,
    predictor_window=3,
)


def small_engine():
    return EnBlogue(SMALL_CONFIG)


def signature(rankings):
    return [
        (ranking.timestamp, [(topic.pair, topic.score) for topic in ranking])
        for ranking in rankings
    ]


class TestRunDetector:
    def test_collects_rankings_and_counts(self):
        corpus, _ = figure1_stream(num_steps=20, shift_start=10)
        run = run_detector(small_engine(), corpus, name="enblogue")
        assert run.name == "enblogue"
        assert run.documents == len(corpus)
        assert len(run.rankings) >= 19
        assert run.wall_seconds > 0
        assert run.throughput > 0
        assert run.final_ranking() is not None

    def test_finalize_adds_a_last_evaluation(self):
        corpus, _ = figure1_stream(num_steps=10, shift_start=5)
        with_finalize = run_detector(small_engine(), corpus, finalize=True)
        without_finalize = run_detector(small_engine(), corpus, finalize=False)
        assert len(with_finalize.rankings) == len(without_finalize.rankings) + 1

    def test_default_name_is_detector_class(self):
        corpus, _ = figure1_stream(num_steps=5, shift_start=2)
        run = run_detector(small_engine(), corpus)
        assert run.name == "EnBlogue"

    def test_empty_corpus(self):
        run = run_detector(small_engine(), [])
        assert run.documents == 0
        assert run.rankings == []
        assert run.throughput >= 0.0


class TestChunkedReplay:
    """``run_detector`` feeds the corpus in chunks of ``CORPUS_CHUNK``."""

    def test_after_ranking_runs_once_per_ranking_after_its_chunk(self):
        corpus, _ = figure1_stream(num_steps=45, shift_start=25)
        documents = list(corpus)
        assert len(documents) > 2 * CORPUS_CHUNK
        engine = small_engine()
        seen = []
        run = run_detector(
            engine, documents,
            after_ranking=lambda r: seen.append((r, engine.documents_processed)),
        )
        # Every stream ranking exactly once, in order; the forced final
        # evaluation is not a stream boundary and is not reported.
        assert [ranking for ranking, _ in seen] == run.rankings[:-1]
        # The hook runs between chunks, never inside one.
        chunk_ends = {
            min(end, len(documents))
            for end in range(CORPUS_CHUNK, len(documents) + CORPUS_CHUNK,
                             CORPUS_CHUNK)
        }
        assert {processed for _, processed in seen} <= chunk_ends
        # One chunk crosses several boundaries: its rankings are all
        # reported after it returns.
        first_chunk = [r for r, processed in seen if processed == CORPUS_CHUNK]
        assert len(first_chunk) > 1

    @pytest.mark.parametrize("shape", ["single", "serial", "threads"])
    def test_rankings_equal_one_process_batch(self, shape):
        corpus, _ = figure1_stream(num_steps=45, shift_start=25)
        documents = list(corpus)
        reference = small_engine()
        expected = reference.process_batch(documents)
        if shape == "single":
            engine = small_engine()
        else:
            engine = ShardedEnBlogue(SMALL_CONFIG, num_shards=2, backend=shape)
        try:
            run = run_detector(engine, documents, finalize=False)
        finally:
            if shape != "single":
                engine.close()
        assert signature(run.rankings) == signature(expected)
        assert run.documents == len(documents)


class TestScoring:
    def test_score_run_and_run_experiment_agree(self):
        corpus, schedule = figure1_stream(num_steps=45, shift_start=25)
        run = run_detector(small_engine(), corpus)
        scored = score_run(run, schedule, k=10)
        experiment = run_experiment(small_engine(), corpus, schedule, k=10)
        assert scored.recall == experiment.recall
        assert 0.0 <= scored.recall <= 1.0
        assert 0.0 <= scored.precision <= 1.0

    def test_figure1_event_is_detected(self):
        corpus, schedule = figure1_stream(num_steps=45, shift_start=25)
        result = run_experiment(small_engine(), corpus, schedule, k=10)
        assert result.recall == 1.0
        assert result.mean_latency is not None

    def test_summary_is_flat_and_json_friendly(self):
        corpus, schedule = figure1_stream(num_steps=20, shift_start=10)
        result = run_experiment(small_engine(), corpus, schedule,
                                extras={"config": "default"})
        summary = result.summary()
        assert summary["detector"] == "EnBlogue"
        assert summary["config"] == "default"
        assert isinstance(summary["recall"], float)
        assert isinstance(summary["documents"], int)

    def test_undetectable_schedule_scores_zero_recall(self):
        generator = SyntheticStreamGenerator(docs_per_step=5, seed=3)
        corpus = generator.generate(10)
        # Events whose tags never even appear in the stream.
        schedule = EventSchedule([
            EmergentEvent(name="ghost", tags=("nonexistent", "phantom"),
                          start=0.0, duration=10 * HOUR),
        ])
        result = run_experiment(small_engine(), corpus, schedule)
        assert result.recall == 0.0
        assert result.mean_latency is None
