"""Resume continuity for the whole observability story.

The registry round-trip is pinned in test_metrics_registry; this file
pins the *bundle*: SLO counters, event-log sequence numbers, and
profiler sample totals must all continue monotonically when a serve is
checkpointed, the process dies, and a fresh bundle restores from the
manifest extras — the exact path the CLI's ``--resume`` takes.
"""

import json
import threading

from repro.cli import _metrics_extras_provider, _restore_metrics
from repro.core.engine import EnBlogue
from repro.datasets.twitter import TweetStreamGenerator
from repro.observability import Observability
from repro.persistence import CheckpointCadence, load_engine

from differential import HOUR, config


def make_documents(count):
    corpus, _ = TweetStreamGenerator(
        hours=12, tweets_per_hour=30, seed=17).generate()
    return list(corpus)[:count]


class TestManifestRide:
    def test_bundle_snapshot_rides_the_checkpoint_manifest(self, tmp_path):
        documents = make_documents(240)
        observability = Observability()
        engine = EnBlogue(config(), observability=observability)
        cadence = CheckpointCadence(
            engine, directory=tmp_path,
            extras={"dataset": "twitter"},
            extras_provider=_metrics_extras_provider(observability),
        )
        for start in range(0, 120, 40):
            engine.process_batch(documents[start:start + 40])
            observability.log.emit("batch", documents=40)
            observability.slo.tick()
        # A few profiler samples so the total is non-zero: sample_once
        # skips the calling thread, so give it another one to see.
        stop = threading.Event()
        helper = threading.Thread(target=stop.wait, daemon=True)
        helper.start()
        try:
            while observability.profiler.samples_total == 0:
                observability.profiler.sample_once()
        finally:
            stop.set()
            helper.join()
        cadence.finalize()

        sequence_before = observability.log.sequence
        samples_before = observability.profiler.samples_total
        ticks_before = observability.registry.counter(
            "repro_slo_ticks_total").value
        assert sequence_before > 0 and samples_before > 0 and ticks_before > 0

        # "New process": a fresh bundle restored from the manifest, the
        # way the CLI's --resume path does it.
        resumed_engine, manifest = load_engine(tmp_path)
        snapshot = manifest["extras"]["metrics"]
        # The extras must have survived the manifest's JSON trip.
        snapshot = json.loads(json.dumps(snapshot))
        fresh = Observability()
        _restore_metrics(fresh, {"extras": {"metrics": snapshot}})

        assert fresh.log.sequence == sequence_before
        assert fresh.profiler.samples_total == samples_before
        assert fresh.registry.counter(
            "repro_slo_ticks_total").value == ticks_before

        # And the story continues monotonically, never resets.
        record = fresh.log.emit("resumed")
        assert record["seq"] == sequence_before + 1
        fresh.profiler.sample_once()
        assert fresh.profiler.samples_total >= samples_before
        fresh.slo.tick()
        assert fresh.registry.counter(
            "repro_slo_ticks_total").value == ticks_before + 1
        assert resumed_engine.documents_processed == 120

    def test_disabled_bundle_writes_no_metrics_extras(self, tmp_path):
        engine = EnBlogue(config())
        cadence = CheckpointCadence(
            engine, directory=tmp_path,
            extras_provider=_metrics_extras_provider(None),
        )
        engine.process_batch(make_documents(40))
        cadence.finalize()
        _engine, manifest = load_engine(tmp_path)
        assert "metrics" not in manifest.get("extras", {})

    def test_a_replayed_journal_counts_no_document_twice(self, tmp_path):
        # Restore replays the journal's documents through a scratch
        # engine; the counters come from the newest segment's extras,
        # which counted each of those documents once, live.
        documents = make_documents(240)
        observability = Observability()
        engine = EnBlogue(config(), observability=observability)
        cadence = CheckpointCadence(
            engine, directory=tmp_path, every=1, full_every=100,
            extras_provider=_metrics_extras_provider(observability),
        )
        cadence.begin()
        for start in range(0, 240, 40):
            for _ in engine.process_batch(documents[start:start + 40]):
                cadence.note_ranking()
        assert len(list(tmp_path.glob("*.delta"))) > 2
        fresh = Observability()
        resumed, manifest = load_engine(tmp_path, observability=fresh)
        _restore_metrics(fresh, manifest)
        counted = fresh.registry.counter("repro_core_documents_total").value
        assert counted == resumed.documents_processed
        assert resumed.snapshot() == engine.snapshot()
