"""Worker-side telemetry: per-shard stage timings and shipped logs.

Shard workers time their own ingest/evaluate work and queue structured
log records; the telemetry piggybacks on the ordinary reply messages
(no extra round-trips) and lands in the coordinator's
``repro_sharding_shard_stage_seconds{shard=,stage=}`` histogram and
event log — for every backend, including the process one where the
worker lives in another address space.
"""

import pytest

from repro.datasets.twitter import TweetStreamGenerator
from repro.observability import Observability
from repro.sharding import ShardedEnBlogue
from repro.sharding.worker import ShardWorker

from differential import HOUR, TRANSPORTS, config


TELEMETRY_CAPACITY = ShardWorker.TELEMETRY_CAPACITY

@pytest.fixture(scope="module")
def docs():
    corpus, _ = TweetStreamGenerator(hours=12, tweets_per_hour=40,
                                     seed=5).generate()
    return list(corpus)


def stage_samples(observability):
    """{(shard, stage): count} from the per-shard stage histogram."""
    family = observability.registry.get(
        "repro_sharding_shard_stage_seconds")
    out = {}
    for key, child in family.samples():
        labels = dict(key)
        _cumulative, _sum, count = child.merged()
        if count:
            out[(labels["shard"], labels["stage"])] = int(count)
    return out


class TestWorkerTelemetry:
    def test_drain_telemetry_empties_the_buffers(self):
        worker = ShardWorker(shard_id=0, config=config())
        assert worker.drain_telemetry() is None
        worker.log_event("custom", detail=1)
        first = worker.drain_telemetry()
        assert first["logs"][0]["event"] == "custom"
        assert first["logs"][0]["detail"] == 1
        assert worker.drain_telemetry() is None  # drained means drained

    def test_telemetry_buffers_are_bounded(self):
        worker = ShardWorker(shard_id=0, config=config())
        for i in range(TELEMETRY_CAPACITY + 50):
            worker.log_event("tick", i=i)
        telemetry = worker.drain_telemetry()
        assert len(telemetry["logs"]) == TELEMETRY_CAPACITY
        # Oldest dropped, newest kept.
        assert telemetry["logs"][-1]["i"] == TELEMETRY_CAPACITY + 49

    @pytest.mark.parametrize("backend", sorted(TRANSPORTS))
    def test_per_shard_stage_histogram_for_every_backend(
            self, docs, backend):
        observability = Observability()
        with ShardedEnBlogue(config(), num_shards=2, backend=backend,
                             observability=observability) as sharded:
            sharded.process_batch(docs[:200])
            sharded.evaluate_now()
        samples = stage_samples(observability)
        for shard in ("0", "1"):
            assert samples.get((shard, "ingest"), 0) > 0, (backend, shard)
            assert samples.get((shard, "evaluate"), 0) > 0, (backend, shard)

    def test_restore_ships_a_shard_restore_record(self, docs):
        observability = Observability()
        with ShardedEnBlogue(config(), num_shards=2) as source:
            source.process_batch(docs[:100])
            states = source.backend.collect_states()
        with ShardedEnBlogue(config(), num_shards=2,
                             observability=observability) as rebuilt:
            rebuilt.backend.restore_states(states)
        records = observability.log.records()
        restores = [r for r in records if r["event"] == "shard_restore"]
        assert {r["shard"] for r in restores} == {0, 1}
        assert all(r["live_pairs"] >= 0 for r in restores)

    def test_disabled_bundle_records_no_stage_samples(self, docs):
        with ShardedEnBlogue(config(), num_shards=2) as sharded:
            sharded.process_batch(docs[:100])
        # No enabled bundle bound: the engine must not have built the
        # per-shard children at all (the disabled path stays free).
        assert sharded.backend._metric_shard_stage is None
