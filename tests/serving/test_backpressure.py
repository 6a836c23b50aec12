"""Backpressure and shutdown: the bounded queue, slow subscribers, drains.

The satellite contract of the serving layer: producers stall (and resume)
on a full ingest queue instead of buffering without bound, slow SSE
subscribers are bounded by their frame buffer (oldest frames dropped,
counted), and a clean shutdown mid-stream loses no accepted document and
duplicates none — the served engine state equals an offline replay of
exactly the accepted prefix.
"""

import asyncio
import threading

import pytest

from repro.core.config import EnBlogueConfig
from repro.core.engine import EnBlogue
from repro.datasets.twitter import TweetStreamGenerator
from repro.serving import DetectionService

HOUR = 3600.0


def config(**overrides):
    defaults = dict(
        window_horizon=6 * HOUR,
        evaluation_interval=HOUR,
        num_seeds=10,
        min_seed_count=1,
        min_pair_support=1,
        min_history=2,
        predictor="moving_average",
        predictor_window=3,
    )
    defaults.update(overrides)
    return EnBlogueConfig(**defaults)


@pytest.fixture(scope="module")
def docs():
    corpus, _ = TweetStreamGenerator(
        hours=12, tweets_per_hour=30, seed=11).generate()
    return list(corpus)


def chunks(items, size):
    return [items[i:i + size] for i in range(0, len(items), size)]


class GatedEngine(EnBlogue):
    """An engine whose ``process_batch`` waits for an external gate.

    The gate blocks the *executor* thread, standing in for a shard
    backend that fell behind; the event loop stays free, which is exactly
    the condition under which the bounded queue must stall producers.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.gate = threading.Event()
        self.entered = threading.Event()

    def process_batch(self, documents):
        self.entered.set()
        assert self.gate.wait(timeout=30.0), "test gate never opened"
        return super().process_batch(documents)


class TestProducerBackpressure:
    def test_full_queue_stalls_the_producer_until_the_consumer_drains(
        self, docs
    ):
        capacity = 2

        async def scenario():
            engine = GatedEngine(config())
            service = DetectionService(engine, queue_capacity=capacity)
            await service.start()

            batches = chunks(docs[:256], 32)  # 8 batches > 2 x capacity
            submitted = []
            unprocessed = []

            async def producer():
                for batch in batches:
                    await service.submit(batch)
                    submitted.append(len(batch))
                    unprocessed.append(service.stats.batches_submitted
                                       - service.stats.batches_processed)

            task = asyncio.ensure_future(producer())
            # The consumer takes everything the queue holds (batches 0 and
            # 1) into the (gated) engine as one group; batches 2 and 3
            # fill the queue again; the producer must now be parked on
            # batch 4's put.
            await asyncio.get_running_loop().run_in_executor(
                None, engine.entered.wait, 5.0
            )
            await asyncio.sleep(0.05)
            assert not task.done(), "producer should stall on the full queue"
            assert len(submitted) == 2 * capacity
            assert service.queue_depth() == capacity
            assert service.stats.batches_processed == 0

            engine.gate.set()  # the backend catches up ...
            await asyncio.wait_for(task, timeout=30.0)  # ... producer resumes
            assert len(submitted) == len(batches)
            await service.stop()
            return engine, service, unprocessed

        engine, service, unprocessed = asyncio.run(scenario())
        assert engine.documents_processed == 256
        assert service.stats.batches_processed == 8
        # One group inside the engine plus one full queue: the bound.
        assert max(unprocessed) <= 2 * capacity

    def test_concurrent_producer_validates_against_the_parked_batch(
        self, docs
    ):
        """While producer A is parked on a full queue, producer B's order
        check must see A's batch — not the pre-A high-water mark — or B
        would earn a 202 for documents the consumer can only drop."""

        async def scenario():
            engine = GatedEngine(config())
            service = DetectionService(engine, queue_capacity=1)
            await service.start()
            await service.submit(docs[:64])    # in-flight (gated)
            await service.submit(docs[64:128])  # fills the queue

            async def producer_a():
                await service.submit(docs[128:192])  # parks on the put

            task = asyncio.ensure_future(producer_a())
            await asyncio.sleep(0.05)
            assert not task.done()
            # Producer B races in with a batch older than A's parked one.
            with pytest.raises(ValueError, match="out-of-order"):
                await service.submit(docs[100:120])
            engine.gate.set()
            await asyncio.wait_for(task, timeout=30.0)
            await service.stop()
            return engine, service

        engine, service = asyncio.run(scenario())
        assert engine.documents_processed == 192
        assert service.stats.batch_errors == 0

    def test_high_watermark_is_recorded(self, docs):
        async def scenario():
            engine = GatedEngine(config())
            service = DetectionService(engine, queue_capacity=3)
            await service.start()
            for batch in chunks(docs[:256], 64):
                await service.submit(batch)
            engine.gate.set()
            await service.stop()
            return service

        service = asyncio.run(scenario())
        assert service.stats.queue_high_watermark == 3


class TestSlowSubscriber:
    def test_buffer_is_bounded_and_drops_oldest(self, docs):
        async def scenario():
            engine = EnBlogue(config())
            service = DetectionService(engine)
            await service.start()
            slow = service.subscribe(buffer_limit=3)
            for batch in chunks(docs, 64):
                await service.submit(batch)
            await service.stop()
            return slow

        slow = asyncio.run(scenario())
        reference = EnBlogue(config())
        reference.process_batch(docs)
        published = len(reference.ranking_history())
        assert published > 3  # otherwise nothing is being bounded
        assert slow.pending() == 3
        assert slow.dropped == published - 3

        async def collect(subscription):
            frames = []
            while (message := await subscription.next_message()) is not None:
                frames.append(message)
            return frames

        frames = asyncio.run(collect(slow))
        # What survives is the newest window of the stream, in order.
        assert len(frames) == 3
        sequences = [message.sequence for message in frames]
        assert sequences == sorted(sequences)
        assert sequences[-1] == published - 1

    def test_fast_subscriber_sees_every_frame(self, docs):
        async def scenario():
            engine = EnBlogue(config())
            service = DetectionService(engine)
            await service.start()
            subscription = service.subscribe()
            received = []

            async def consume():
                while (message := await subscription.next_message()) is not None:
                    received.append(message.payload)

            consumer = asyncio.ensure_future(consume())
            for batch in chunks(docs, 64):
                await service.submit(batch)
            await service.stop()
            await consumer
            return received, subscription

        received, subscription = asyncio.run(scenario())
        reference = EnBlogue(config())
        reference.process_batch(docs)
        assert received == reference.ranking_history()
        assert subscription.dropped == 0


class TestCleanShutdown:
    def test_drain_processes_every_accepted_batch(self, docs):
        """Stop lands mid-stream with queued batches: nothing lost or doubled."""

        async def scenario():
            engine = GatedEngine(config())
            service = DetectionService(engine, queue_capacity=4)
            await service.start()
            subscription = service.subscribe()
            for batch in chunks(docs[:320], 64):  # fills queue + in-flight
                await service.submit(batch)
            engine.gate.set()
            await service.stop()  # drain=True is the default
            frames = []
            while (message := await subscription.next_message()) is not None:
                frames.append(message.payload)
            return engine, frames

        engine, frames = asyncio.run(scenario())
        assert engine.documents_processed == 320

        reference = EnBlogue(config())
        reference.process_batch(docs[:320])
        assert frames == reference.ranking_history()
        assert engine.ranking_history() == reference.ranking_history()

    def test_abandoning_the_queue_still_finishes_the_inflight_batch(
        self, docs
    ):
        async def scenario():
            engine = GatedEngine(config())
            service = DetectionService(engine, queue_capacity=4)
            await service.start()
            for batch in chunks(docs[:192], 64):
                await service.submit(batch)
            await asyncio.get_running_loop().run_in_executor(
                None, engine.entered.wait, 5.0
            )
            engine.gate.set()
            await service.stop(drain=False)
            return engine

        engine = asyncio.run(scenario())
        # The in-flight batch completed (cancellation cannot interrupt the
        # executor thread mid-batch); queued ones were abandoned whole.
        assert engine.documents_processed in (64, 128, 192)
        assert engine.documents_processed % 64 == 0

    def test_abandoning_the_queue_finishes_the_group_in_flight(self, docs):
        async def scenario():
            engine = GatedEngine(config())
            service = DetectionService(engine, queue_capacity=4)
            await service.start()
            for batch in chunks(docs[:192], 64):  # one group of three
                await service.submit(batch)
            await asyncio.get_running_loop().run_in_executor(
                None, engine.entered.wait, 5.0
            )
            for batch in chunks(docs[192:320], 64):  # queued behind it
                await service.submit(batch)
            engine.gate.set()
            await service.stop(drain=False)
            return engine, service

        engine, service = asyncio.run(scenario())
        # The group completed whole; the queued batches were abandoned
        # whole, and task_done was called once per batch taken.
        assert engine.documents_processed == 192
        assert service.queue_depth() == 2
        assert service._queue._unfinished_tasks == 2
