"""Failure injection and degraded-mode behaviour across components."""

import asyncio

import pytest

from repro.core.config import EnBlogueConfig
from repro.core.engine import EnBlogue
from repro.core.types import TagPair
from repro.datasets.synthetic import figure1_stream
from repro.serving import DetectionService
from repro.streams.item import StreamItem
from repro.streams.operators import (
    CollectorSink,
    Operator,
    TagNormalizerOperator,
)
from repro.streams.plan import PlanExecutor, QueryPlan
from repro.streams.sources import DocumentStreamSource, IterableSource

from differential import HOUR


def engine_config(**overrides):
    defaults = dict(
        window_horizon=12 * HOUR, evaluation_interval=HOUR,
        num_seeds=15, min_seed_count=1, min_pair_support=1, min_history=2,
        predictor_window=3,
    )
    defaults.update(overrides)
    return EnBlogueConfig(**defaults)


class DropTagless(Operator):
    """A plan's guard: forwards documents with tags, counts the rest."""

    def __init__(self):
        super().__init__("guard")
        self.dropped = 0

    def process(self, item):
        if item.tags:
            return (item,)
        self.dropped += 1
        return ()


class ShedLoad(Operator):
    """Keeps the first of every ``keep_one_in`` documents."""

    def __init__(self, keep_one_in):
        super().__init__("shed")
        self.keep_one_in = keep_one_in
        self.seen = 0

    def process(self, item):
        self.seen += 1
        return (item,) if (self.seen - 1) % self.keep_one_in == 0 else ()


class TestMalformedInput:
    def test_malformed_stream_items_are_rejected_at_construction(self):
        with pytest.raises(ValueError):
            StreamItem(timestamp=-5.0, doc_id="bad")
        with pytest.raises(ValueError):
            StreamItem(timestamp=1.0, doc_id="")

    def test_out_of_order_source_aborts_the_replay(self):
        items = [
            StreamItem(timestamp=10.0, doc_id="a", tags={"x"}),
            StreamItem(timestamp=5.0, doc_id="b", tags={"y"}),
        ]
        source = IterableSource(items)
        engine = EnBlogue(engine_config())
        source.connect(engine.as_sink())
        with pytest.raises(ValueError):
            source.run()
        # The engine saw only the documents that preceded the fault.
        assert engine.documents_processed == 1

    def test_filter_operator_can_quarantine_bad_documents(self):
        # A guard operator drops tag-less documents before they reach the
        # engine, which is how a production plan would handle dirty feeds.
        items = [
            StreamItem(timestamp=1.0, doc_id="good-1", tags={"a", "b"}),
            StreamItem(timestamp=2.0, doc_id="empty", tags=frozenset()),
            StreamItem(timestamp=3.0, doc_id="good-2", tags={"a", "b"}),
        ]
        engine = EnBlogue(engine_config())
        executor = PlanExecutor()
        guard = DropTagless()
        executor.register(QueryPlan("guarded", IterableSource(items), [guard],
                                    engine.as_sink()))
        executor.run()
        assert engine.documents_processed == 2
        assert guard.dropped == 1


class TestDegradedOperation:
    def test_detection_survives_load_shedding(self):
        """With 1-in-2 load shedding the injected shift is still detected."""
        corpus, schedule = figure1_stream(num_steps=45, shift_start=25)
        engine = EnBlogue(engine_config())
        executor = PlanExecutor()
        executor.register(QueryPlan(
            "shedded", DocumentStreamSource(corpus, source_name="figure1"),
            [TagNormalizerOperator(), ShedLoad(keep_one_in=2)],
            engine.as_sink()))
        executor.run()
        engine.evaluate_now()
        pair = TagPair.from_tuple(schedule.events()[0].pair)
        positions = [
            r.position_of(pair) for r in engine.ranking_history()
            if r.position_of(pair) is not None
        ]
        assert engine.documents_processed == pytest.approx(len(corpus) / 2, abs=1)
        assert positions and min(positions) < 5

    def test_portal_survives_sessions_coming_and_going(self):
        corpus, _ = figure1_stream(num_steps=20, shift_start=10)
        collector = CollectorSink()
        source = DocumentStreamSource(corpus, source_name="figure1")
        source.connect(collector)
        source.run()
        documents = collector.items
        midpoint = len(documents) // 2
        engine = EnBlogue(engine_config())

        async def receive(subscription):
            return [message.payload async for message in subscription]

        async def serve():
            service = DetectionService(engine)
            await service.start()
            stable, flaky = service.subscribe(), service.subscribe()
            readers = [asyncio.ensure_future(receive(stable)),
                       asyncio.ensure_future(receive(flaky))]
            for start in range(0, midpoint, 16):
                await service.submit(documents[start:min(start + 16, midpoint)])
            await service.drain()
            service.unsubscribe(flaky)
            latecomer = service.subscribe()
            readers.append(asyncio.ensure_future(receive(latecomer)))
            for start in range(midpoint, len(documents), 16):
                await service.submit(documents[start:start + 16])
            await service.stop()
            assert stable.dropped == latecomer.dropped == 0
            return await asyncio.gather(*readers)

        stable, flaky, latecomer = asyncio.run(serve())
        assert stable == engine.ranking_history()
        assert 0 < len(flaky) < len(stable)
        assert 0 < len(latecomer) < len(stable)
        assert flaky + latecomer == stable

    def test_listener_registered_mid_stream_only_sees_later_rankings(self):
        corpus, _ = figure1_stream(num_steps=12, shift_start=6)
        engine = EnBlogue(engine_config())
        documents = list(corpus)
        first_half, second_half = documents[:len(documents) // 2], documents[len(documents) // 2:]
        engine.process_many(first_half)
        seen_before = len(engine.ranking_history())
        received = []
        engine.add_ranking_listener(received.append)
        engine.process_many(second_half)
        assert len(received) == len(engine.ranking_history()) - seen_before
