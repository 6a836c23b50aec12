"""Tests for the document and corpus containers."""

import pytest

from repro.datasets.documents import Corpus, Document

from differential import doc


class TestDocument:
    def test_validation(self):
        with pytest.raises(ValueError):
            Document(timestamp=-1.0, doc_id="d")
        with pytest.raises(ValueError):
            Document(timestamp=1.0, doc_id="")

    def test_tags_become_frozenset(self):
        document = Document(timestamp=1.0, doc_id="d", tags=["a", "a"])
        assert document.tags == frozenset({"a"})

    def test_has_tags(self):
        document = doc(1, {"a", "b"}, "d")
        assert document.has_tags("a")
        assert document.has_tags("a", "b")
        assert not document.has_tags("a", "c")


class TestCorpus:
    def test_add_in_time_order(self):
        corpus = Corpus()
        corpus.add(doc(1, {"x"}, "a"))
        corpus.add(doc(2, {"y"}, "b"))
        assert len(corpus) == 2
        assert corpus[0].doc_id == "a"

    def test_out_of_order_add_rejected(self):
        corpus = Corpus([doc(5, {"x"}, "a")])
        with pytest.raises(ValueError):
            corpus.add(doc(1, {"y"}, "b"))

    def test_between_is_inclusive(self):
        corpus = Corpus([doc(t, {"x"}, f"d{t}") for t in range(5)])
        selected = corpus.between(1.0, 3.0)
        assert [d.timestamp for d in selected] == [1.0, 2.0, 3.0]

    def test_between_rejects_reversed_range(self):
        with pytest.raises(ValueError):
            Corpus().between(5.0, 1.0)

    def test_with_tag_and_with_tags(self):
        corpus = Corpus([
            doc(1, {"x", "y"}, "a"),
            doc(2, {"x"}, "b"),
            doc(3, {"z"}, "c"),
        ])
        assert len(corpus.with_tag("x")) == 2
        assert len(corpus.with_tags("x", "y")) == 1

    def test_tags_lists_distinct_sorted_tags(self):
        corpus = Corpus([doc(1, {"b", "a"}, "a"), doc(2, {"a"}, "c")])
        assert corpus.tags() == ["a", "b"]

    def test_time_range(self):
        corpus = Corpus([doc(3, {"x"}, "a"), doc(9, {"y"}, "b")])
        assert corpus.time_range() == (3.0, 9.0)

    def test_time_range_of_empty_corpus_raises(self):
        with pytest.raises(ValueError):
            Corpus().time_range()

    def test_iteration(self):
        corpus = Corpus([doc(1, {"x"}, "a")])
        assert [d.doc_id for d in corpus] == ["a"]


class TestCorpusBatches:
    def test_iter_batches_covers_corpus_in_order(self):
        corpus = Corpus([doc(t, {"x"}, f"d{t}") for t in range(10)])
        batches = list(corpus.iter_batches(4))
        assert [len(b) for b in batches] == [4, 4, 2]
        flattened = [d.doc_id for batch in batches for d in batch]
        assert flattened == [d.doc_id for d in corpus]

    def test_iter_batches_validates_batch_size(self):
        with pytest.raises(ValueError):
            list(Corpus().iter_batches(0))
