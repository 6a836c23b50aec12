"""The serving layer's own promises, beyond the differential matrix.

Served rankings equal a batch replay for every engine variant, and a
journal written while serving resumes into the uninterrupted serve's
tail: both are cells of ``tests/property/test_differential.py``
(observability on = served).  Pinned here: the consumer's group commit is
invisible (any grouping serves the offline replay's frames, counters and
drained checkpoint), a rejected batch costs only itself, and a service
resumed from its shutdown checkpoint continues the stream.
"""

import asyncio
import json
import threading

import pytest

from repro.core.engine import EnBlogue
from repro.datasets.documents import Document
from repro.persistence import CheckpointCadence, load_engine
from repro.persistence.store import read_checkpoint
from repro.serving import DetectionService

from differential import (
    IN_PROCESS, ROWS, close, config, serve, tweet_stream,
)


@pytest.fixture(scope="module")
def docs():
    return tweet_stream(hours=18, per_hour=30, seed=23)


def chunks(items, size):
    return [items[i:i + size] for i in range(0, len(items), size)]


def batched(documents, chunk=64):
    return chunks(documents, chunk)


class TestGroupCommit:
    """The consumer takes everything the queue holds into one engine call.

    Groups of every size, a one-batch-at-a-time serve and the offline
    replay must be indistinguishable: frames, history, counters, the
    per-batch latency count and the drained delta checkpoint.
    """

    CAPACITY = 4

    @staticmethod
    def serve(engine, batches, directory, grouped):
        """Serve ``batches``; returns what the differential compares.

        ``grouped`` gates the engine so the consumer finds 1, 2, ...
        ``CAPACITY`` batches waiting in turn, then the shutdown sentinel
        behind two more; otherwise every batch is drained before the next
        is submitted, so every group is a group of one.
        """
        capacity = TestGroupCommit.CAPACITY
        permits = threading.Semaphore(0)
        entered = []
        sizes = []
        ungated = engine.process_batch

        def gated(documents):
            entered.append(len(documents))
            assert permits.acquire(timeout=30.0), "test gate never opened"
            return ungated(documents)

        class SpiedService(DetectionService):
            async def _process(self, group):
                sizes.append(len(group))
                await super()._process(group)

        async def in_engine(calls):
            for _ in range(3000):
                if len(entered) >= calls:
                    return
                await asyncio.sleep(0.01)
            raise AssertionError(f"engine call {calls} never started")

        async def scenario():
            cadence = CheckpointCadence(
                engine, directory=directory, every=2, full_every=4,
            )
            service = SpiedService(engine, queue_capacity=capacity,
                                   cadence=cadence)
            await service.start()
            subscription = service.subscribe()
            if grouped:
                engine.process_batch = gated
                pending = iter(batches)
                await service.submit(next(pending))  # holds the consumer
                for size in range(1, capacity + 1):
                    await in_engine(size)  # the previous group, held
                    for _ in range(size):
                        await service.submit(next(pending))
                    permits.release()
                await in_engine(capacity + 1)
                for batch in pending:  # the sentinel lands behind these
                    await service.submit(batch)
                permits.release(len(batches))
            else:
                for batch in batches:
                    await service.submit(batch)
                    await service.drain()
            await service.stop()
            frames = []
            while (message := await subscription.next_message()) is not None:
                frames.append(message.payload)
            status = service.status()
            return {
                "frames": frames,
                "history": engine.ranking_history(),
                "counters": {name: status[name] for name in (
                    "documents_submitted", "documents_processed",
                    "batches_submitted", "batches_processed",
                    "rankings_published", "batch_errors",
                    "checkpoints_written",
                )},
                "latencies": service.observability.registry.get(
                    "repro_serving_batch_seconds").count,
                "state": json.dumps(read_checkpoint(directory)[1],
                                    sort_keys=True),
            }, sizes

        return asyncio.run(scenario())

    @pytest.mark.parametrize("row", [ROWS["single-fused"]] + [
        row for row in IN_PROCESS if row.shards == 2
    ], ids=lambda row: row.name)
    def test_any_grouping_serves_the_same_stream(self, docs, tmp_path, row):
        capacity = self.CAPACITY
        # 1 to hold the consumer, groups of 1 .. capacity, 2 + sentinel.
        count = 1 + capacity * (capacity + 1) // 2 + 2
        batches = chunks(docs, -(-len(docs) // count))
        assert len(batches) == count

        outcomes = {}
        for name, grouped in (("grouped", True), ("single", False)):
            engine = row.build(config(), chunk_size=256)
            try:
                outcomes[name], sizes = self.serve(
                    engine, batches, tmp_path / name, grouped
                )
            finally:
                close(engine)
            if grouped:
                # Every size occurred, the last one cut by the sentinel.
                assert sizes == [1] + list(range(1, capacity + 1)) + [2]
            else:
                assert sizes == [1] * count
        assert outcomes["grouped"] == outcomes["single"]

        offline = row.build(config(), chunk_size=256)
        try:
            offline.process_batch(docs)
            state = json.dumps(offline.snapshot(), sort_keys=True)
            history = offline.ranking_history()
        finally:
            close(offline)
        grouped = outcomes["grouped"]
        assert grouped["frames"] == grouped["history"] == history
        assert grouped["state"] == state
        assert grouped["counters"]["documents_processed"] == len(docs)
        assert grouped["counters"]["batches_processed"] \
            == grouped["counters"]["batches_submitted"] == count
        assert grouped["latencies"] == count

    def test_a_rejected_batch_costs_only_itself(self, docs):
        """A group the engine rejects is replayed batch by batch."""

        class PickyEngine(EnBlogue):
            calls = 0

            def process_batch(self, documents):
                # Before any state is touched, as _prepare_batch rejects.
                self.calls += 1
                if any("poison" in document.tags for document in documents):
                    raise ValueError("poisoned document")
                return super().process_batch(documents)

        batches = chunks(docs[:320], 64)
        poison = [Document(timestamp=batches[1][-1].timestamp,
                           doc_id="poison", tags=frozenset({"poison"}))]

        async def scenario():
            engine = PickyEngine(config())
            service = DetectionService(engine)
            await service.start()
            subscription = service.subscribe()
            # No submit yields below capacity: all six arrive as one group.
            for batch in batches[:2] + [poison] + batches[2:]:
                await service.submit(batch)
            await asyncio.wait_for(service.drain(), timeout=30.0)
            status = service.status()
            await service.stop()
            frames = []
            while (message := await subscription.next_message()) is not None:
                frames.append(message.payload)
            return engine, status, frames

        engine, status, frames = asyncio.run(scenario())
        assert engine.calls == 1 + 6  # the group, then its replay
        assert status["batch_errors"] == 1
        assert "poisoned document" in status["last_error"]
        assert status["batches_submitted"] == 6
        assert status["batches_processed"] == 5
        assert status["documents_processed"] == 320

        reference = EnBlogue(config())
        reference.process_batch(docs[:320])
        assert frames == reference.ranking_history()
        assert engine.ranking_history() == reference.ranking_history()

    def test_a_failure_after_ingesting_is_not_replayed(self, docs):
        """Only a validation ``ValueError`` promises an untouched engine."""

        class BreakingEngine(EnBlogue):
            calls = 0

            def process_batch(self, documents):
                self.calls += 1
                if self.calls == 1:
                    super().process_batch(documents[:100])
                    raise RuntimeError("broke after ingesting part of it")
                return super().process_batch(documents)

        batches = chunks(docs[:256], 64)

        async def scenario():
            engine = BreakingEngine(config())
            service = DetectionService(engine)
            await service.start()
            for batch in batches[:3]:  # one group: no submit yields
                await service.submit(batch)
            await asyncio.wait_for(service.drain(), timeout=30.0)
            failed = service.status()
            await service.submit(batches[3])
            await service.stop()
            return engine, failed, service.status()

        engine, failed, status = asyncio.run(scenario())
        assert engine.calls == 2  # the group once, then the batch after it
        assert failed["batch_errors"] == 3 and failed["batches_processed"] == 0
        assert "broke after" in failed["last_error"]
        assert status["batch_errors"] == 3 and status["batches_processed"] == 1
        assert status["documents_processed"] == 64


class TestCheckpointWhileServing:
    def test_shutdown_checkpoint_without_cadence_saves_end_state(
        self, docs, tmp_path
    ):
        engine = EnBlogue(config())
        cadence = CheckpointCadence(engine, directory=tmp_path)
        frames = serve(engine, batched(docs[:256]), cadence)
        assert cadence.checkpoints_written == 1

        resumed, _ = load_engine(tmp_path)
        assert resumed.documents_processed == 256
        assert resumed.ranking_history() == engine.ranking_history()
        assert frames == engine.ranking_history()

    def test_resumed_service_rejects_stale_batches_at_submit(
        self, docs, tmp_path
    ):
        """A 202 must never be handed out for documents the consumer can
        only drop: after a resume, submit() validates against the
        engine's checkpointed stream position, not a fresh None."""
        engine = EnBlogue(config())
        cadence = CheckpointCadence(engine, directory=tmp_path)
        serve(engine, batched(docs[:128]), cadence)
        resumed, _ = load_engine(tmp_path)

        async def scenario():
            service = DetectionService(resumed)
            await service.start()
            with pytest.raises(ValueError, match="out-of-order"):
                await service.submit(docs[:16])  # older than the resume point
            accepted = await service.submit(docs[128:160])
            await service.stop()
            return accepted, service

        accepted, service = asyncio.run(scenario())
        assert accepted == 32
        assert service.stats.batch_errors == 0
        assert resumed.documents_processed == 160
