"""Tests for the EnBlogue façade."""

import pytest

from repro.core.engine import EnBlogue
from repro.core.personalization import UserProfile
from repro.core.types import TagPair
from repro.datasets.synthetic import figure1_stream
from repro.entity.knowledge_base import KnowledgeBase
from repro.entity.tagger import EntityTagger
from repro.streams.item import StreamItem

from differential import HOUR, config, doc


class TestProcessing:
    def test_counts_processed_documents(self):
        engine = EnBlogue(config())
        engine.process(doc(0, ["a", "b"]))
        engine.process(doc(10, ["a"]))
        assert engine.documents_processed == 2

    def test_accepts_stream_items_and_documents(self):
        engine = EnBlogue(config())
        engine.process(StreamItem(timestamp=1.0, doc_id="s1", tags={"a", "b"}))
        engine.process(doc(2, ["a", "c"]))
        assert engine.documents_processed == 2

    def test_no_ranking_before_first_evaluation_boundary(self):
        engine = EnBlogue(config())
        assert engine.process(doc(0, ["a", "b"])) is None
        assert engine.current_ranking() is None

    def test_ranking_produced_when_interval_crossed(self):
        engine = EnBlogue(config())
        engine.process(doc(0, ["a", "b"]))
        ranking = engine.process(doc(HOUR + 1, ["a", "b"]))
        assert ranking is not None
        assert engine.current_ranking() is ranking

    def test_quiet_stretch_catches_up_on_evaluations(self):
        engine = EnBlogue(config())
        engine.process(doc(0, ["a", "b"]))
        engine.process(doc(10 * HOUR, ["a", "b"]))
        # One ranking per crossed boundary.
        assert len(engine.ranking_history()) == 10

    def test_tags_are_lowercased(self):
        engine = EnBlogue(config())
        engine.process(doc(0, ["Politics", "VOLCANO"]))
        assert engine.tracker.tag_count("politics") == 1
        assert engine.tracker.tag_count("volcano") == 1

    def test_evaluate_now_without_documents_raises(self):
        with pytest.raises(ValueError):
            EnBlogue(config()).evaluate_now()

    def test_evaluate_now_produces_ranking(self):
        engine = EnBlogue(config())
        engine.process(doc(0, ["a", "b"]))
        ranking = engine.evaluate_now()
        assert ranking.timestamp == 0.0


class TestDetection:
    def replay_figure1(self, **config_overrides):
        corpus, schedule = figure1_stream(num_steps=45, shift_start=25, shift_length=12)
        engine = EnBlogue(config(**config_overrides))
        engine.process_many(corpus)
        return engine, schedule

    def test_detects_injected_correlation_shift(self):
        engine, schedule = self.replay_figure1()
        event = schedule.events()[0]
        pair = TagPair.from_tuple(event.pair)
        detected = any(
            ranking.contains_pair(pair) and ranking.position_of(pair) < 5
            for ranking in engine.ranking_history()
            if ranking.timestamp >= event.start
        )
        assert detected

    def test_pair_not_ranked_high_before_the_shift(self):
        engine, schedule = self.replay_figure1()
        event = schedule.events()[0]
        pair = TagPair.from_tuple(event.pair)
        for ranking in engine.ranking_history():
            if ranking.timestamp < event.start:
                position = ranking.position_of(pair)
                assert position is None or position > 0 or ranking[0].score < 0.05

    def test_correlation_history_rises_after_shift(self):
        engine, schedule = self.replay_figure1()
        event = schedule.events()[0]
        history = engine.correlation_history(*event.pair)
        before = [v for t, v in history if t < event.start]
        after = [v for t, v in history if t >= event.start + 3 * HOUR]
        assert after
        assert max(after) > (max(before) if before else 0.0) + 0.1

    def test_topic_score_positive_after_shift(self):
        engine, schedule = self.replay_figure1()
        event = schedule.events()[0]
        assert engine.topic_score(*event.pair) > 0.0

    def test_seeds_are_popular_tags(self):
        engine, _ = self.replay_figure1()
        assert "politics" in engine.current_seeds


class TestEntityIntegration:
    def test_entities_extracted_from_text_when_tagger_given(self):
        kb = KnowledgeBase()
        kb.add_entity("Athens", types=["place"])
        engine = EnBlogue(config(), entity_tagger=EntityTagger(knowledge_base=kb))
        engine.process(doc(0, ["news"], text="the conference is in Athens"))
        assert engine.tracker.tag_count("athens") == 1

    def test_entities_ignored_when_config_disables_them(self):
        kb = KnowledgeBase()
        kb.add_entity("Athens", types=["place"])
        engine = EnBlogue(config(use_entities=False),
                          entity_tagger=EntityTagger(knowledge_base=kb))
        engine.process(doc(0, ["news"], text="the conference is in Athens"))
        assert engine.tracker.tag_count("athens") == 0


class TestIntegrationSurface:
    def test_ranking_listener_called_per_evaluation(self):
        engine = EnBlogue(config())
        received = []
        engine.add_ranking_listener(received.append)
        engine.process(doc(0, ["a", "b"]))
        engine.process(doc(2 * HOUR, ["a", "b"]))
        assert len(received) == len(engine.ranking_history()) > 0

    def test_as_sink_feeds_the_engine(self):
        engine = EnBlogue(config())
        sink = engine.as_sink()
        sink.push(StreamItem(timestamp=0.0, doc_id="d1", tags={"a", "b"}))
        assert engine.documents_processed == 1

    def test_register_user_and_personalized_ranking(self):
        corpus, schedule = figure1_stream(num_steps=45, shift_start=25)
        engine = EnBlogue(config())
        engine.register_user(UserProfile(user_id="volcano-fan", keywords=("volcano",),
                                         boost=5.0))
        engine.process_many(corpus)
        personalized = engine.ranking_for_user("volcano-fan")
        assert personalized is not None
        assert personalized.label == "user:volcano-fan"
        assert any("volcano" in tag for tag in personalized[0].pair.as_tuple())

    def test_ranking_for_user_before_any_ranking_is_none(self):
        engine = EnBlogue(config())
        engine.register_user(UserProfile(user_id="u"))
        assert engine.ranking_for_user("u") is None

    def test_configuration_is_exposed(self):
        cfg = config(name="my-run")
        assert EnBlogue(cfg).config.name == "my-run"
