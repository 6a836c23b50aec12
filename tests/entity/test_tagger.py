"""Tests for the sliding-window entity tagger."""

import pytest

from repro.entity.knowledge_base import KnowledgeBase
from repro.entity.ontology import ontology_from_knowledge_base
from repro.entity.tagger import EntityTagger, EntityTaggingOperator
from repro.streams.item import StreamItem
from repro.streams.operators import CollectorSink


def small_kb():
    kb = KnowledgeBase()
    kb.add_entity("Barack Obama", aliases=["obama"], types=["person", "politician"])
    kb.add_entity("Hurricane Katrina", aliases=["katrina"], types=["event", "hurricane"])
    kb.add_entity("New Orleans", types=["place", "city"])
    kb.add_entity("Athens", types=["place", "city"])
    kb.add_entity("SIGMOD", types=["organization", "conference"])
    return kb


class TestEntityTagger:
    def test_finds_multi_word_entities(self):
        tagger = EntityTagger(knowledge_base=small_kb())
        found = tagger.tag("Barack Obama visited New Orleans after the storm")
        assert found == ["Barack Obama", "New Orleans"]

    def test_resolves_aliases_to_canonical_names(self):
        tagger = EntityTagger(knowledge_base=small_kb())
        assert tagger.tag("obama spoke about katrina") == [
            "Barack Obama", "Hurricane Katrina",
        ]

    def test_longest_match_wins(self):
        tagger = EntityTagger(knowledge_base=small_kb())
        found = tagger.tag("hurricane katrina hit the coast")
        # "Hurricane Katrina" should match as one phrase, not also "katrina".
        assert found == ["Hurricane Katrina"]

    def test_deduplicates_repeated_entities(self):
        tagger = EntityTagger(knowledge_base=small_kb())
        assert tagger.tag("Athens, Athens and again Athens") == ["Athens"]

    def test_type_filter_restricts_matches(self):
        kb = small_kb()
        tagger = EntityTagger(
            knowledge_base=kb,
            ontology=ontology_from_knowledge_base(kb),
            allowed_types=["place"],
        )
        found = tagger.tag("Barack Obama arrived in Athens for SIGMOD")
        assert found == ["Athens"]

    def test_no_matches_in_plain_text(self):
        tagger = EntityTagger(knowledge_base=small_kb())
        assert tagger.tag("nothing interesting happened today") == []

    def test_empty_text(self):
        tagger = EntityTagger(knowledge_base=small_kb())
        assert tagger.tag("") == []

    def test_rejects_non_positive_phrase_length(self):
        with pytest.raises(ValueError):
            EntityTagger(knowledge_base=small_kb(), max_phrase_length=0)

    def test_phrase_longer_than_window_is_not_matched(self):
        kb = KnowledgeBase()
        kb.add_entity("one two three four five")
        tagger = EntityTagger(knowledge_base=kb, max_phrase_length=4)
        assert tagger.tag("one two three four five") == []

    def test_default_knowledge_base_is_used_when_none_given(self):
        tagger = EntityTagger()
        assert "Athens" in tagger.tag("the conference moved to Athens")


class TestEntityTaggingOperator:
    def test_enriches_items_with_entities(self):
        operator = EntityTaggingOperator(EntityTagger(knowledge_base=small_kb()))
        sink = CollectorSink()
        operator.connect(sink)
        operator.push(StreamItem(
            timestamp=1.0, doc_id="d1", tags={"news"},
            text="Barack Obama lands in Athens",
        ))
        enriched = sink.items[0]
        assert enriched.entities == frozenset({"Barack Obama", "Athens"})
        assert operator.documents_tagged == 1
        assert operator.entities_added == 2

    def test_items_without_text_pass_through(self):
        operator = EntityTaggingOperator(EntityTagger(knowledge_base=small_kb()))
        sink = CollectorSink()
        operator.connect(sink)
        item = StreamItem(timestamp=1.0, doc_id="d1", tags={"news"})
        operator.push(item)
        assert sink.items[0] is item

    def test_items_with_no_matches_pass_through(self):
        operator = EntityTaggingOperator(EntityTagger(knowledge_base=small_kb()))
        sink = CollectorSink()
        operator.connect(sink)
        item = StreamItem(timestamp=1.0, doc_id="d1", tags={"news"}, text="plain words")
        operator.push(item)
        assert sink.items[0] is item
        assert sink.items[0].entities == frozenset()
