"""Tests for the data-source wrappers."""

import pytest

from repro.datasets.documents import Document
from repro.streams.item import StreamItem
from repro.streams.operators import CollectorSink, FunctionSink
from repro.streams.sources import (
    DocumentStreamSource,
    IterableSource,
    MergedSource,
)


def items(timestamps, prefix="d"):
    return [
        StreamItem(timestamp=float(t), doc_id=f"{prefix}{i}", tags={"t"})
        for i, t in enumerate(timestamps)
    ]


class TestIterableSource:
    def test_run_pushes_all_items(self):
        source = IterableSource(items([1, 2, 3]))
        sink = CollectorSink()
        source.connect(sink)
        emitted = source.run()
        assert emitted == 3
        assert len(sink.items) == 3

    def test_limit_caps_emission(self):
        source = IterableSource(items([1, 2, 3, 4]))
        sink = CollectorSink()
        source.connect(sink)
        assert source.run(limit=2) == 2
        assert len(sink.items) == 2

    def test_out_of_order_items_are_rejected(self):
        source = IterableSource(items([5, 3]))
        sink = CollectorSink()
        source.connect(sink)
        with pytest.raises(ValueError):
            source.run()

    def test_source_cannot_receive_pushes(self):
        source = IterableSource([])
        with pytest.raises(TypeError):
            source.push(items([1])[0])
        with pytest.raises(TypeError):
            source.push_batch(items([1]))

    def test_equal_timestamps_are_in_order(self):
        source = IterableSource(items([3, 3, 3]))
        sink = CollectorSink()
        source.connect(sink)
        assert source.run() == 3

    def test_items_before_an_out_of_order_one_are_delivered(self):
        source = IterableSource(items([1, 7, 2]))
        sink = CollectorSink()
        source.connect(sink)
        with pytest.raises(ValueError, match="ordered by timestamp"):
            source.run()
        assert [item.timestamp for item in sink.items] == [1.0, 7.0]

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_non_positive_batch_size_is_rejected(self, batch_size):
        source = IterableSource(items([1]))
        with pytest.raises(ValueError):
            source.run(batch_size=batch_size)

    def test_batch_size_chunks_the_replay(self):
        batches = []
        source = IterableSource(items([1, 2, 3, 4, 5]))
        source.connect(FunctionSink(batches.append))
        assert source.run(batch_size=2) == 5
        assert [[i.timestamp for i in b] for b in batches] \
            == [[1.0, 2.0], [3.0, 4.0], [5.0]]

    def test_only_a_complete_replay_flushes(self):
        flushes = []
        sink = FunctionSink(lambda chunk: None,
                            on_flush=lambda: flushes.append(True))
        source = IterableSource(items([1, 2, 3]))
        source.connect(sink)
        source.run(limit=2)
        assert flushes == []
        full = IterableSource(items([1]))
        full.connect(sink)
        full.run()
        assert flushes == [True]


class TestDocumentStreamSource:
    def test_adapts_dataset_documents(self):
        documents = [
            Document(timestamp=1.0, doc_id="n1", tags={"a"}, text="hello"),
            Document(timestamp=2.0, doc_id="n2", tags={"b"}),
        ]
        source = DocumentStreamSource(documents, source_name="nyt")
        sink = CollectorSink()
        source.connect(sink)
        source.run()
        assert [item.doc_id for item in sink.items] == ["n1", "n2"]
        assert sink.items[0].source == "nyt"
        assert sink.items[0].text == "hello"

    def test_custom_adapter(self):
        documents = [Document(timestamp=1.0, doc_id="n1", tags={"a"})]
        source = DocumentStreamSource(
            documents,
            adapter=lambda doc: StreamItem(
                timestamp=doc.timestamp, doc_id=doc.doc_id.upper(), tags=doc.tags
            ),
        )
        sink = CollectorSink()
        source.connect(sink)
        source.run()
        assert sink.items[0].doc_id == "N1"

    def test_out_of_order_documents_are_rejected(self):
        documents = [Document(timestamp=5.0, doc_id="n1", tags={"a"}),
                     Document(timestamp=4.0, doc_id="n2", tags={"a"})]
        source = DocumentStreamSource(documents)
        source.connect(CollectorSink())
        with pytest.raises(ValueError, match="ordered by timestamp"):
            source.run()


class TestMergedSource:
    def test_merges_by_timestamp(self):
        first = IterableSource(items([1, 4], prefix="a"))
        second = IterableSource(items([2, 3], prefix="b"))
        merged = MergedSource([first, second])
        sink = CollectorSink()
        merged.connect(sink)
        merged.run()
        assert [item.timestamp for item in sink.items] == [1.0, 2.0, 3.0, 4.0]

    def test_requires_at_least_one_source(self):
        with pytest.raises(ValueError):
            MergedSource([])

    def test_ties_keep_the_order_of_the_sources(self):
        first = IterableSource(items([1, 2], prefix="a"))
        second = IterableSource(items([1, 2], prefix="b"))
        merged = MergedSource([first, second])
        sink = CollectorSink()
        merged.connect(sink)
        merged.run()
        assert [item.doc_id for item in sink.items] == ["a0", "b0", "a1", "b1"]

    def test_an_empty_source_is_skipped(self):
        merged = MergedSource([IterableSource([]),
                               IterableSource(items([1, 2]))])
        sink = CollectorSink()
        merged.connect(sink)
        assert merged.run() == 2

    def test_an_out_of_order_input_aborts_the_merge(self):
        merged = MergedSource([IterableSource(items([1, 5, 2], prefix="a")),
                               IterableSource(items([3], prefix="b"))])
        merged.connect(CollectorSink())
        with pytest.raises(ValueError):
            merged.run()

    def test_single_source_passthrough(self):
        merged = MergedSource([IterableSource(items([1, 2]))])
        sink = CollectorSink()
        merged.connect(sink)
        assert merged.run() == 2
