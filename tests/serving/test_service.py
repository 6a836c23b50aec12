"""The serving core: ingest queue, consumer, push, counters, lifecycle."""

import asyncio

import pytest

from repro.core.engine import EnBlogue
from repro.datasets.twitter import TweetStreamGenerator
from repro.core.personalization import UserProfile
from repro.serving import DetectionService, ServiceClosedError

from differential import HOUR, config


@pytest.fixture(scope="module")
def docs():
    corpus, _ = TweetStreamGenerator(
        hours=12, tweets_per_hour=30, seed=11).generate()
    return list(corpus)


def chunks(items, size):
    return [items[i:i + size] for i in range(0, len(items), size)]


def run(coroutine):
    return asyncio.run(coroutine)


async def serve_all(engine, documents, chunk=64, **service_kwargs):
    """Serve a document list through a service; returns (service, frames)."""
    service = DetectionService(engine, **service_kwargs)
    await service.start()
    subscription = service.subscribe()
    for batch in chunks(documents, chunk):
        await service.submit(batch)
    await service.stop()
    frames = []
    while (message := await subscription.next_message()) is not None:
        frames.append(message.payload)
    return service, frames


class TestServeReplay:
    def test_served_rankings_match_batch_replay(self, docs):
        reference = EnBlogue(config())
        reference.process_batch(docs)

        engine = EnBlogue(config())
        service, frames = run(serve_all(engine, docs))
        assert frames == reference.ranking_history()
        assert engine.documents_processed == len(docs)
        assert service.stats.rankings_published == len(frames)

    def test_dataset_iter_batches_submit_as_is(self, docs):
        async def scenario():
            engine = EnBlogue(config())
            service = DetectionService(engine)
            await service.start()
            generator = TweetStreamGenerator(
                hours=12, tweets_per_hour=30, seed=11)
            for batch in generator.iter_batches(64):
                await service.submit(batch)
            await service.stop()
            return engine, service

        engine, service = run(scenario())
        assert service.stats.documents_submitted == len(docs)
        reference = EnBlogue(config())
        reference.process_batch(docs)
        assert engine.ranking_history() == reference.ranking_history()

    def test_micro_batch_size_does_not_change_rankings(self, docs):
        engines = [EnBlogue(config()) for _ in range(3)]
        results = [
            run(serve_all(engine, docs, chunk=size))[1]
            for engine, size in zip(engines, (16, 64, 512))
        ]
        assert results[0] == results[1] == results[2]

    def test_counters_and_status(self, docs):
        engine = EnBlogue(config())
        service, frames = run(serve_all(engine, docs, chunk=50))
        status = service.status()
        assert status["documents_submitted"] == len(docs)
        assert status["documents_processed"] == len(docs)
        assert status["batches_processed"] == len(chunks(docs, 50))
        assert status["rankings_published"] == len(frames)
        assert status["batch_errors"] == 0
        assert status["closed"] is True
        assert status["queue_depth"] == 0

    def test_status_reports_engine_runtime(self, docs):
        engine = EnBlogue(config())
        service, _ = run(serve_all(engine, docs))
        status = service.status()
        assert status["engine"] == "single"
        assert status["backend"] == "inline"
        assert status["shards"] == 1
        assert status["evaluation_path"] == engine.evaluation_path
        assert status["evaluation_path"] in ("vectorized", "scalar")

    def test_current_ranking_is_the_latest_frame(self, docs):
        async def scenario():
            engine = EnBlogue(config())
            service = DetectionService(engine)
            await service.start()
            subscription = service.subscribe()
            for batch in chunks(docs, 64):
                await service.submit(batch)
            await service.drain()
            current = await service.current_ranking()
            await service.stop()
            frames = []
            while (message := await subscription.next_message()) is not None:
                frames.append(message.payload)
            return current, frames

        current, frames = run(scenario())
        assert frames
        assert current == frames[-1]


class TestLifecycle:
    def test_submit_after_stop_raises(self, docs):
        async def scenario():
            service = DetectionService(EnBlogue(config()))
            await service.start()
            await service.stop()
            with pytest.raises(ServiceClosedError):
                await service.submit(docs[:4])

        run(scenario())

    def test_stop_is_idempotent(self):
        async def scenario():
            service = DetectionService(EnBlogue(config()))
            await service.start()
            await service.stop()
            await service.stop()

        run(scenario())

    def test_empty_batch_is_a_noop(self):
        async def scenario():
            service = DetectionService(EnBlogue(config()))
            await service.start()
            assert await service.submit([]) == 0
            await service.stop()
            assert service.stats.batches_submitted == 0

        run(scenario())

    def test_stop_closes_the_fan_out(self):
        async def scenario():
            service = DetectionService(EnBlogue(config()))
            await service.start()
            await service.stop()
            with pytest.raises(RuntimeError, match="closed"):
                service.subscribe()
            return service.dispatcher

        assert run(scenario()).closed


class TestValidation:
    def test_out_of_order_batch_rejected_at_submit(self, docs):
        async def scenario():
            service = DetectionService(EnBlogue(config()))
            await service.start()
            await service.submit(docs[10:20])
            with pytest.raises(ValueError, match="out-of-order"):
                await service.submit(docs[:10])
            await service.stop()
            return service

        service = run(scenario())
        # The bad batch was refused before it reached the queue.
        assert service.stats.batches_submitted == 1
        assert service.stats.batch_errors == 0

    def test_out_of_order_inside_a_batch_rejected(self, docs):
        async def scenario():
            service = DetectionService(EnBlogue(config()))
            await service.start()
            with pytest.raises(ValueError, match="out-of-order"):
                await service.submit([docs[5], docs[2]])
            await service.stop()

        run(scenario())

    def test_consumer_survives_an_engine_rejection(self, docs):
        """A batch the engine rejects is dropped whole; serving continues."""

        class Brittle(EnBlogue):
            def process_batch(self, documents):
                documents = list(documents)
                if any(getattr(d, "poison", False) for d in documents):
                    # What _prepare_batch raises, before touching state.
                    raise ValueError("poisoned batch")
                return super().process_batch(documents)

        class Poison:
            timestamp = docs[63].timestamp
            tags = ("a", "b")
            entities = ()
            text = ""
            poison = True

        async def scenario():
            engine = Brittle(config())
            service = DetectionService(engine)
            await service.start()
            await service.submit(docs[:64])
            await service.submit([Poison()])
            await service.submit(docs[64:128])
            await service.stop()
            return engine, service

        engine, service = run(scenario())
        assert service.stats.batch_errors == 1
        assert "poisoned" in service.stats.last_error
        assert engine.documents_processed == 128

    def test_consumer_survives_a_raising_subscriber_callback(self, docs):
        """A subscription whose delivery raises must not kill the
        consumer: the engine already ingested the batch, and a dead
        consumer would keep accepting batches nothing drains."""

        def exploding(message):
            raise RuntimeError("subscriber blew up")

        async def scenario():
            engine = EnBlogue(config())
            service = DetectionService(engine)
            await service.start()
            service.subscribe().deliver = exploding
            for batch in chunks(docs, 64):
                await service.submit(batch)
            await service.stop()
            return engine, service

        engine, service = run(scenario())
        assert engine.documents_processed == len(docs)
        assert service.stats.publish_errors > 0
        assert "blew up" in service.stats.last_error
        assert service.stats.batch_errors == 0


class TestUserChannels:
    """Registered profiles get a personalised channel on the one fan-out."""

    @staticmethod
    async def collect(subscription):
        return [message async for message in subscription]

    def test_each_user_channel_carries_its_personalised_ranking(self, docs):
        alice = UserProfile(user_id="alice", keywords=("sigmod",), boost=4.0)
        bob = UserProfile(user_id="bob", keywords=("athens",), boost=4.0)

        async def scenario():
            engine = EnBlogue(config())
            service = DetectionService(engine)
            await service.start()
            assert await service.register_user(alice) is alice
            await service.register_user(bob)
            subscriptions = [service.subscribe(),
                             service.subscribe(user="alice"),
                             service.subscribe(user="bob")]
            readers = [asyncio.ensure_future(self.collect(subscription))
                       for subscription in subscriptions]
            for batch in chunks(docs, 64):
                await service.submit(batch)
            await service.stop()
            return engine, service, await asyncio.gather(*readers)

        engine, service, (plain, for_alice, for_bob) = run(scenario())
        history = engine.ranking_history()
        assert [m.payload for m in plain] == history
        personalization = engine.personalization
        assert [m.payload for m in for_alice] == [
            personalization.personalize(r, "alice") for r in history]
        assert [m.payload for m in for_bob] == [
            personalization.personalize(r, "bob") for r in history]
        # Each channel numbers its own frames from zero.
        for messages in (plain, for_alice, for_bob):
            assert [m.sequence for m in messages] == list(range(len(history)))
        assert service.stats.rankings_published == len(history)

    def test_unregistered_user_is_refused(self):
        async def scenario():
            service = DetectionService(EnBlogue(config()))
            await service.start()
            with pytest.raises(KeyError, match="nobody"):
                service.subscribe(user="nobody")
            await service.stop()

        run(scenario())

    def test_a_late_subscriber_sees_only_later_frames(self, docs):
        half = len(docs) // 2

        async def scenario():
            engine = EnBlogue(config())
            service = DetectionService(engine)
            await service.start()
            stable = service.subscribe()
            flaky = service.subscribe()
            readers = [asyncio.ensure_future(self.collect(subscription))
                       for subscription in (stable, flaky)]
            for batch in chunks(docs[:half], 64):
                await service.submit(batch)
            await service.drain()
            service.unsubscribe(flaky)  # mid-stream: its stream just ends
            late = service.subscribe()
            readers.append(asyncio.ensure_future(self.collect(late)))
            for batch in chunks(docs[half:], 64):
                await service.submit(batch)
            await service.stop()
            return await asyncio.gather(*readers)

        stable, flaky, late = run(scenario())
        assert 0 < len(flaky) < len(stable)
        assert 0 < len(late) < len(stable)
        assert stable[:len(flaky)] == flaky
        assert stable[len(stable) - len(late):] == late
        assert len(flaky) + len(late) == len(stable)


class TestCheckpointHops:
    """Engine calls and writing ticks are the only executor hops.

    Ten-second batches against a ten-second evaluation interval: a full
    group of eight carries 8 rankings, under the cadence's 16, so a
    writing hop writes exactly one tick.
    """

    @staticmethod
    def serve_with_cadence(tmp_path, all_hops):
        from repro.datasets.documents import Document
        from repro.observability import Observability
        from repro.persistence.cadence import CheckpointCadence

        documents = [
            Document(timestamp=float(second), doc_id=f"doc-{second}",
                     tags=frozenset({"a", "b", f"t{second % 7}"}))
            for second in range(2001)
        ]
        hops = []

        class AlwaysDue:
            """The behaviour before: every count goes to the executor."""

            def __init__(self, cadence):
                self._cadence = cadence

            def due(self, count):
                return True

            def __getattr__(self, name):
                return getattr(self._cadence, name)

        class SpiedService(DetectionService):
            async def _run_on_engine(self, fn, *args):
                hops.append(fn.__name__)
                return await super()._run_on_engine(fn, *args)

        async def scenario():
            engine = EnBlogue(config(window_horizon=60.0,
                                     evaluation_interval=10.0),
                              observability=Observability())
            cadence = CheckpointCadence(
                engine, directory=tmp_path, every=16, full_every=4,
            )
            service = SpiedService(
                engine, cadence=AlwaysDue(cadence) if all_hops else cadence
            )
            await service.start()
            for batch in chunks(documents, 10):
                await service.submit(batch)
            await service.stop()
            status = service.status()
            registry = service.observability.registry
            status["engine_calls"] = int(registry.get(
                "repro_core_batches_total").value)
            status["checkpoint_ticks"] = {
                dict(key)["mode"]: int(child.value) for key, child
                in registry.get("repro_persistence_checkpoints_total").samples()
            }
            return cadence, status

        cadence, status = run(scenario())
        return hops, cadence, status

    def test_hops_are_batches_plus_writing_ticks(self, tmp_path):
        hops, cadence, status = self.serve_with_cadence(
            tmp_path / "spared", all_hops=False
        )
        assert cadence.rankings_seen == 200
        assert status["batches_processed"] == status["batches_submitted"] == 201
        assert hops == (
            ["_latest_timestamp", "begin"]
            + [hop for hop in hops if hop in ("_engine_step", "note_rankings")]
            + ["shutdown"]
        )
        # One hop per engine call, and a call carries a whole group.
        assert hops.count("_engine_step") == status["engine_calls"]
        assert status["engine_calls"] < status["batches_submitted"]
        assert hops.count("note_rankings") == 200 // 16
        # begin + the writing ticks + shutdown.
        assert cadence.checkpoints_written == 200 // 16 + 2

        all_hops, reference, reference_status = self.serve_with_cadence(
            tmp_path / "all-hops", all_hops=True
        )
        assert all_hops.count("note_rankings") > 200 // 16
        assert reference.rankings_seen == cadence.rankings_seen
        assert reference.checkpoints_written == cadence.checkpoints_written
        assert reference_status["checkpoints_written"] \
            == status["checkpoints_written"] == cadence.checkpoints_written

    def test_checkpoint_family_counts_the_ticks(self, tmp_path):
        # 200 rankings at every=16: 12 writing ticks, then the shutdown
        # tick; the base begin() writes is no tick.  Every 4th write
        # re-bases (full), the others append (delta).
        _, cadence, status = self.serve_with_cadence(tmp_path,
                                                     all_hops=False)
        assert status["checkpoint_ticks"] == {"full": 3, "delta": 10}
        assert status["checkpoints_written"] == 1 + 13 \
            == cadence.checkpoints_written
