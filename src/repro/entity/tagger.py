"""The sliding-window entity tagger and its stream-operator wrapper.

"When a document arrives, we scan its text content with a sliding window of
up to 4 successive terms, and check whether substrings of these match the
title of a Wikipedia article.  These checks also consider Wikipedia
redirects ... In addition, we have implemented a second filter consisting of
lookups in an ontology (e.g., YAGO), which allows us to focus on particular
entity types." (Section 3, Entity Tagging)
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Set

from repro.entity.knowledge_base import KnowledgeBase, default_knowledge_base
from repro.entity.ontology import Ontology, ontology_from_knowledge_base
from repro.entity.tokenizer import is_stopword, ngrams, tokenize
from repro.streams.item import StreamItem
from repro.streams.operators import Operator

#: The paper's window size: phrases of up to four successive terms.
DEFAULT_MAX_PHRASE_LENGTH = 4


class EntityTagger:
    """Extract canonical entity names from free text."""

    def __init__(
        self,
        knowledge_base: Optional[KnowledgeBase] = None,
        ontology: Optional[Ontology] = None,
        allowed_types: Iterable[str] = (),
        max_phrase_length: int = DEFAULT_MAX_PHRASE_LENGTH,
    ):
        if max_phrase_length <= 0:
            raise ValueError("max_phrase_length must be positive")
        self.knowledge_base = knowledge_base or default_knowledge_base()
        self.ontology = ontology
        if self.ontology is None and allowed_types:
            self.ontology = ontology_from_knowledge_base(self.knowledge_base)
        self.allowed_types = tuple(allowed_types)
        self.max_phrase_length = int(max_phrase_length)

    def tag(self, text: str) -> List[str]:
        """Canonical entity names found in ``text`` (deduplicated, ordered).

        Longest-match-first: once a phrase starting at position ``i`` matches,
        shorter phrases starting inside it are skipped, so "hurricane katrina"
        yields one entity rather than also matching "katrina".
        """
        tokens = tokenize(text)
        found: List[str] = []
        seen: Set[str] = set()
        skip_until = 0
        for start, length, phrase in ngrams(tokens, self.max_phrase_length):
            if start < skip_until:
                continue
            if length == 1 and is_stopword(phrase):
                continue
            entry = self.knowledge_base.resolve(phrase)
            if entry is None:
                continue
            if not self._type_allowed(entry.title):
                continue
            if entry.title not in seen:
                seen.add(entry.title)
                found.append(entry.title)
            skip_until = start + length
        return found

    def _type_allowed(self, canonical_title: str) -> bool:
        if not self.allowed_types:
            return True
        if self.ontology is None:
            return True
        return self.ontology.matches(canonical_title, self.allowed_types)


class EntityTaggingOperator(Operator):
    """Stream operator enriching items with entities from their text.

    This is one of the shareable operators of the engine: several query
    plans tap the same tagged stream so the (comparatively expensive) text
    scan runs once per document.
    """

    def __init__(
        self,
        tagger: Optional[EntityTagger] = None,
        name: Optional[str] = None,
    ):
        super().__init__(name=name or "entity-tagging")
        self.tagger = tagger or EntityTagger()
        self.documents_tagged = 0
        self.entities_added = 0

    def process(self, item: StreamItem) -> Sequence[StreamItem]:
        if not item.text:
            return (item,)
        entities = self.tagger.tag(item.text)
        self.documents_tagged += 1
        if not entities:
            return (item,)
        self.entities_added += len(entities)
        return (item.with_entities(entities),)
