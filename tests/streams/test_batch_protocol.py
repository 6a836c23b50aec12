"""Tests for the batch push protocol through operators, sources and plans."""

import pytest

from repro.streams.item import StreamItem
from repro.streams.operators import (
    CollectorSink,
    FunctionSink,
    Operator,
    TagNormalizerOperator,
)
from repro.streams.plan import PlanExecutor, QueryPlan
from repro.streams.sources import IterableSource


def item(t, tags=("a",), doc_id=None):
    return StreamItem(timestamp=float(t), doc_id=doc_id or f"d{t}",
                      tags=frozenset(tags))


def items(n):
    return [item(i) for i in range(n)]


class KeepEven(Operator):
    """Forwards items with an even timestamp, counting the rest."""

    def __init__(self):
        super().__init__()
        self.dropped = 0

    def process(self, one):
        if int(one.timestamp) % 2 == 0:
            return (one,)
        self.dropped += 1
        return ()


class DropAll(Operator):
    def process(self, one):
        return ()


class AddExtraTag(Operator):
    def process(self, one):
        return (one.with_tags(["extra"]),)


class TestOperatorBatches:
    def test_push_batch_equals_item_by_item_push(self):
        for push_batches in (False, True):
            head = TagNormalizerOperator()
            collector = CollectorSink()
            head.connect(collector)
            stream = [item(0, ["A", "b "]), item(1, ["c"]), item(2, ["D"])]
            if push_batches:
                head.push_batch(stream)
            else:
                for one in stream:
                    head.push(one)
            assert [sorted(i.tags) for i in collector.items] == [
                ["a", "b"], ["c"], ["d"]]
            assert head.items_in == 3
            assert head.items_out == 3

    def test_filter_drops_inside_batches(self):
        keep_even = KeepEven()
        collector = CollectorSink()
        keep_even.connect(collector)
        keep_even.push_batch(items(5))
        assert [i.timestamp for i in collector.items] == [0.0, 2.0, 4.0]
        assert keep_even.dropped == 2

    def test_empty_result_batch_not_forwarded(self):
        drop_all = DropAll()
        downstream = CollectorSink()
        drop_all.connect(downstream)
        drop_all.push_batch(items(3))
        assert downstream.items == []
        assert downstream.items_in == 0

    def test_batches_flow_through_operator_chains(self):
        double = AddExtraTag()
        normalizer = TagNormalizerOperator()
        collector = CollectorSink()
        double.connect(normalizer)
        normalizer.connect(collector)
        double.push_batch(items(4))
        assert len(collector.items) == 4
        assert all("extra" in i.tags for i in collector.items)

    def test_batch_fans_out_to_every_consumer(self):
        head = Operator()
        first, second = CollectorSink(), CollectorSink()
        head.connect(first)
        head.connect(second)
        head.push_batch(items(3))
        assert len(first.items) == len(second.items) == 3


class TestSinkBatches:
    def test_default_consume_batch_falls_back_to_consume(self):
        collector = CollectorSink()
        collector.push_batch(items(3))
        assert len(collector.items) == 3
        assert collector.items_in == 3

    def test_function_sink_batch_callback(self):
        received = []
        singles = []
        sink = FunctionSink(singles.append, batch_callback=received.append)
        sink.push_batch(items(2))
        sink.push(item(5))
        assert len(received) == 1 and len(received[0]) == 2
        assert [i.timestamp for i in singles] == [5.0]

    def test_function_sink_without_batch_callback_loops(self):
        singles = []
        sink = FunctionSink(singles.append)
        sink.push_batch(items(3))
        assert [i.timestamp for i in singles] == [0.0, 1.0, 2.0]


class TestSourceBatches:
    def test_run_with_batch_size_emits_everything_in_order(self):
        source = IterableSource(items(10))
        collector = CollectorSink()
        source.connect(collector)
        emitted = source.run(batch_size=3)
        assert emitted == 10
        assert [i.timestamp for i in collector.items] == [float(i) for i in range(10)]

    def test_run_batch_size_respects_limit(self):
        source = IterableSource(items(10))
        collector = CollectorSink()
        source.connect(collector)
        assert source.run(limit=7, batch_size=3) == 7
        assert len(collector.items) == 7

    def test_invalid_batch_size_rejected(self):
        source = IterableSource(items(2))
        with pytest.raises(ValueError):
            source.run(batch_size=0)

    def test_sources_reject_incoming_batches(self):
        source = IterableSource(items(1))
        with pytest.raises(TypeError):
            source.push_batch(items(1))


class TestExecutorBatches:
    def test_executor_batch_replay_matches_single_replay(self):
        for batch_size in (None, 4):
            source = IterableSource(items(9))
            collector = CollectorSink()
            executor = PlanExecutor()
            executor.register(QueryPlan(
                "plan", source, [TagNormalizerOperator()], collector))
            emitted = executor.run(batch_size=batch_size)
            assert emitted == 9
            assert [i.timestamp for i in collector.items] == [
                float(i) for i in range(9)]
