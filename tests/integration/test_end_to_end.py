"""End-to-end integration: stream engine -> enBlogue -> portal."""

import pytest

from repro.core.config import EnBlogueConfig
from repro.core.engine import EnBlogue
from repro.core.personalization import UserProfile
from repro.core.types import TagPair
from repro.datasets.synthetic import figure1_stream
from repro.datasets.twitter import TweetStreamGenerator
from repro.entity.tagger import EntityTaggingOperator
from repro.portal.server import Portal
from repro.storage.inverted_index import InvertedTagIndex
from repro.streams.operators import FunctionSink, StatisticsOperator, TagNormalizerOperator
from repro.streams.plan import PlanExecutor, QueryPlan
from repro.streams.sources import DocumentStreamSource

HOUR = 3600.0


def engine_config(**overrides):
    defaults = dict(
        window_horizon=12 * HOUR, evaluation_interval=HOUR,
        num_seeds=15, min_seed_count=1, min_pair_support=1, min_history=2,
        predictor_window=3,
    )
    defaults.update(overrides)
    return EnBlogueConfig(**defaults)


class TestFullPipelineThroughStreamEngine:
    def test_operator_dag_feeds_two_engines_with_shared_prefix(self):
        """Two parameter settings evaluated in parallel over one replay."""
        corpus, schedule = figure1_stream(num_steps=45, shift_start=25)
        source = DocumentStreamSource(corpus, source_name="figure1")
        executor = PlanExecutor()
        normalizer = executor.shared_operator("normalize", TagNormalizerOperator)
        statistics = executor.shared_operator("stats", StatisticsOperator)
        tagging = executor.shared_operator("entities", EntityTaggingOperator)

        engine_jaccard = EnBlogue(engine_config(name="jaccard"))
        engine_cosine = EnBlogue(engine_config(name="cosine",
                                               correlation_measure="cosine"))
        executor.register(QueryPlan(
            "jaccard", source, [normalizer, statistics, tagging],
            engine_jaccard.as_sink()))
        executor.register(QueryPlan(
            "cosine", source, [normalizer, statistics, tagging],
            engine_cosine.as_sink()))

        emitted = executor.run()
        assert emitted == len(corpus)
        # The shared prefix saw each document exactly once.
        assert statistics.documents == len(corpus)
        # Both engines consumed the whole stream and produced rankings.
        assert engine_jaccard.documents_processed == len(corpus)
        assert engine_cosine.documents_processed == len(corpus)
        assert engine_jaccard.ranking_history()
        assert engine_cosine.ranking_history()

        # Both parameter settings surface the injected shift prominently.
        pair = TagPair.from_tuple(schedule.events()[0].pair)
        for engine in (engine_jaccard, engine_cosine):
            final = engine.evaluate_now()
            positions = [
                r.position_of(pair) for r in engine.ranking_history()
                if r.position_of(pair) is not None
            ]
            assert positions and min(positions) < 5

    def test_storage_supports_drill_down_on_detected_topic(self):
        """The inverted index answers 'show me the documents behind this topic'."""
        corpus, schedule = figure1_stream(num_steps=40, shift_start=20)
        engine = EnBlogue(engine_config())
        index = InvertedTagIndex()

        source = DocumentStreamSource(corpus, source_name="figure1")
        def archive(chunk):
            for item in chunk:
                index.index(item)
            engine.process_batch(chunk)
        source.connect(FunctionSink(archive))
        source.run()

        pair = schedule.events()[0].pair
        supporting = index.query(list(pair))
        assert supporting
        assert all(set(pair) <= set(item.tags) for item in supporting)


class TestPortalEndToEnd:
    def test_live_monitoring_with_personalized_sessions(self):
        corpus, schedule = TweetStreamGenerator(hours=60, tweets_per_hour=25,
                                                seed=13).generate()
        engine = EnBlogue(engine_config(name="live"))
        portal = Portal(engine)
        portal.register_user(UserProfile(user_id="attendee",
                                         keywords=("sigmod", "athens"), boost=4.0))
        anonymous = portal.connect("anon-browser")
        attendee = portal.connect("attendee-browser", user_id="attendee")

        for document in corpus:
            engine.process(document)

        # Both sessions were pushed every ranking without polling.
        assert len(anonymous.messages()) == len(engine.ranking_history())
        assert len(attendee.messages()) > len(anonymous.messages())

        # The injected SIGMOD/Athens topic reaches the attendee's top list.
        personalized = engine.ranking_for_user("attendee", top_k=5)
        sigmod_pair = TagPair("sigmod", "athens")
        assert personalized.contains_pair(sigmod_pair)

        status = portal.status()
        assert status["documents_processed"] == len(corpus)
        assert status["rankings_produced"] > 0
