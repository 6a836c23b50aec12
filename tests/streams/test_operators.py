"""Tests for the push-based stream operators."""

import pytest

from repro.streams.item import StreamItem
from repro.streams.operators import (
    CollectorSink,
    FunctionSink,
    Operator,
    StatisticsOperator,
    TagNormalizerOperator,
)


def make_item(i=0, tags=("a",), text=""):
    return StreamItem(timestamp=float(i), doc_id=f"d{i}", tags=frozenset(tags), text=text)


class TestOperatorWiring:
    def test_connect_builds_fan_out(self):
        op = Operator("op")
        first, second = CollectorSink("s1"), CollectorSink("s2")
        op.connect(first)
        op.connect(second)
        op.push(make_item())
        assert len(first.items) == 1
        assert len(second.items) == 1

    def test_connect_is_idempotent(self):
        op = Operator()
        sink = CollectorSink()
        op.connect(sink)
        op.connect(sink)
        op.push(make_item())
        assert len(sink.items) == 1

    def test_operator_cannot_consume_itself(self):
        op = Operator()
        with pytest.raises(ValueError):
            op.connect(op)

    def test_sink_cannot_have_consumers(self):
        sink = CollectorSink()
        with pytest.raises(TypeError):
            sink.connect(Operator())

    def test_counters_track_in_and_out(self):
        op = Operator()
        sink = CollectorSink()
        op.connect(sink)
        op.push(make_item(1))
        op.push(make_item(2))
        assert op.items_in == 2
        assert op.items_out == 2
        assert sink.items_in == 2

    def test_flush_propagates_to_sinks(self):
        flushed = []
        sink = FunctionSink(lambda chunk: None, on_flush=lambda: flushed.append(True))
        op = Operator()
        op.connect(sink)
        op.flush()
        assert flushed == [True]


class TestTagNormalizer:
    def test_lowercases_and_strips(self):
        normalizer = TagNormalizerOperator()
        sink = CollectorSink()
        normalizer.connect(sink)
        normalizer.push(make_item(tags=("  Politics ", "SPORTS")))
        assert sink.items[0].tags == frozenset({"politics", "sports"})

    def test_drops_empty_tags(self):
        normalizer = TagNormalizerOperator()
        sink = CollectorSink()
        normalizer.connect(sink)
        normalizer.push(make_item(tags=("  ", "a")))
        assert sink.items[0].tags == frozenset({"a"})

    def test_passes_through_already_normalised_items(self):
        normalizer = TagNormalizerOperator()
        sink = CollectorSink()
        normalizer.connect(sink)
        original = make_item(tags=("a", "b"))
        normalizer.push(original)
        assert sink.items[0] is original


class TestStatisticsOperator:
    def test_collects_counts(self):
        stats = StatisticsOperator()
        sink = CollectorSink()
        stats.connect(sink)
        stats.push(make_item(0, tags=("a", "b")))
        stats.push(make_item(5, tags=("a",)))
        summary = stats.summary()
        assert summary["documents"] == 2
        assert summary["distinct_tags"] == 2
        assert summary["mean_tags_per_document"] == pytest.approx(1.5)
        assert summary["first_timestamp"] == 0.0
        assert summary["last_timestamp"] == 5.0

    def test_passes_items_through_unchanged(self):
        stats = StatisticsOperator()
        sink = CollectorSink()
        stats.connect(sink)
        item = make_item()
        stats.push(item)
        assert sink.items == [item]

    def test_empty_statistics(self):
        stats = StatisticsOperator()
        assert stats.mean_tags_per_document == 0.0
        assert stats.distinct_tags == 0


class TestFunctionSink:
    def test_invokes_callback_per_chunk(self):
        received = []
        sink = FunctionSink(received.append)
        sink.push(make_item(1))
        sink.push_batch([make_item(2), make_item(3)])
        assert [len(chunk) for chunk in received] == [1, 2]
