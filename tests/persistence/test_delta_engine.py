"""Engine-level journal checkpointing: chains, guards, bit-identical resume.

The contract under test is two-layered: the segments ``delta_since``
drains, replayed onto the base snapshot, reproduce ``snapshot()`` exactly
(the dict-level equivalence the store's reader relies on), and a base +
journal directory resumes into a continuation bit-identical to an
uninterrupted run — for the single engine, and for the sharded one across
a re-shard mid-chain (every transport's N → M resume is a cell of the
differential matrix).
"""

import pytest

from repro.core.engine import EnBlogue
from repro.datasets.documents import Document
from repro.persistence import load_engine, read_checkpoint
from repro.persistence.snapshot import SnapshotMismatchError
from repro.sharding import ShardedEnBlogue

from differential import HOSTILE, config, signature


def stream(count=240, seed=11):
    import random

    rng = random.Random(seed)
    tags = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"]
    docs = []
    timestamp = 0.0
    for index in range(count):
        timestamp += rng.random() * 3.0
        docs.append(Document(
            timestamp=timestamp,
            doc_id=f"doc-{index}",
            tags=frozenset(rng.sample(tags, rng.randint(0, 4))),
        ))
    return docs


@pytest.fixture(scope="module")
def docs():
    return stream()


@pytest.fixture(scope="module")
def reference(docs):
    engine = EnBlogue(config(**HOSTILE))
    engine.process_many(docs)
    return signature(engine)


def drive_chain(engine, docs, directory, cuts):
    """Base at ``cuts[0]``, one journal segment per further cut."""
    engine.process_many(docs[: cuts[0]])
    engine.save_checkpoint(directory, track_deltas=True)
    for previous, cut in zip(cuts, cuts[1:]):
        engine.process_many(docs[previous:cut])
        engine.save_delta_checkpoint(directory)
    return cuts[-1]


class TestSingleEngineChain:
    CUTS = (60, 100, 150, 180)

    def test_merged_state_equals_live_snapshot(self, docs, tmp_path):
        engine = EnBlogue(config(**HOSTILE))
        drive_chain(engine, docs, tmp_path, self.CUTS)
        _, merged = read_checkpoint(tmp_path)
        assert merged == engine.snapshot()

    def test_resume_continue_bit_identical(self, docs, reference, tmp_path):
        engine = EnBlogue(config(**HOSTILE))
        cut = drive_chain(engine, docs, tmp_path, self.CUTS)
        resumed, _ = load_engine(tmp_path)
        resumed.process_many(docs[cut:])
        assert signature(resumed) == reference

    def test_empty_delta_tick_round_trips(self, docs, tmp_path):
        # A cadence tick with no new documents writes a (tiny) segment
        # that must still replay cleanly.
        engine = EnBlogue(config(**HOSTILE))
        engine.process_many(docs[:60])
        engine.save_checkpoint(tmp_path, track_deltas=True)
        engine.save_delta_checkpoint(tmp_path)
        _, merged = read_checkpoint(tmp_path)
        assert merged == engine.snapshot()

    def test_a_policy_set_by_hand_reaches_disk_at_the_next_base(
            self, docs, tmp_path):
        # min_pair_support and the ranking policy are mutable between
        # evaluations.  They are not input, so the journal does not carry
        # them; the next base does, and the chain after it replays onto
        # them.
        engine = EnBlogue(config(**HOSTILE))
        engine.process_many(docs[:60])
        engine.save_checkpoint(tmp_path, track_deltas=True)
        engine.tracker.min_pair_support = 3
        engine.ranking_builder.top_k = 5
        engine.process_many(docs[60:100])
        engine.save_checkpoint(tmp_path, track_deltas=True)
        engine.process_many(docs[100:140])
        engine.save_delta_checkpoint(tmp_path)
        _, merged = read_checkpoint(tmp_path)
        assert merged == engine.snapshot()
        resumed, _ = load_engine(tmp_path)
        assert resumed.tracker.min_pair_support == 3
        assert resumed.ranking_builder.top_k == 5


class TestChainGuards:
    def test_delta_without_baseline_rejected(self, docs, tmp_path):
        engine = EnBlogue(config(**HOSTILE))
        engine.process_many(docs[:40])
        with pytest.raises(SnapshotMismatchError, match="baseline"):
            engine.save_delta_checkpoint(tmp_path)

    def test_delta_into_a_different_directory_rejected(self, docs, tmp_path):
        engine = EnBlogue(config(**HOSTILE))
        engine.process_many(docs[:40])
        engine.save_checkpoint(tmp_path / "a", track_deltas=True)
        with pytest.raises(SnapshotMismatchError, match="base chain"):
            engine.save_delta_checkpoint(tmp_path / "b")

    def test_full_save_without_tracking_ends_the_chain(self, docs, tmp_path):
        engine = EnBlogue(config(**HOSTILE))
        engine.process_many(docs[:40])
        engine.save_checkpoint(tmp_path, track_deltas=True)
        engine.save_checkpoint(tmp_path)
        with pytest.raises(SnapshotMismatchError, match="baseline"):
            engine.save_delta_checkpoint(tmp_path)

    def test_restore_invalidates_the_chain(self, docs, tmp_path):
        engine = EnBlogue(config(**HOSTILE))
        engine.process_many(docs[:40])
        engine.save_checkpoint(tmp_path, track_deltas=True)
        engine.restore(engine.snapshot())
        with pytest.raises(SnapshotMismatchError, match="baseline"):
            engine.save_delta_checkpoint(tmp_path)

    def test_failed_append_disarms_the_chain(self, docs, tmp_path):
        # save_delta_checkpoint drains the recorded input before the
        # store write; if the write then fails, that tick can never be
        # re-journaled, so the chain must disarm — a blind retry would
        # commit a segment with a silent hole.
        import repro.persistence.snapshot as snapshot_module

        engine = EnBlogue(config(**HOSTILE))
        engine.process_many(docs[:40])
        engine.save_checkpoint(tmp_path, track_deltas=True)
        engine.process_many(docs[40:60])
        (tmp_path / "MANIFEST.json").unlink()   # make the append fail
        with pytest.raises(snapshot_module.SnapshotError):
            engine.save_delta_checkpoint(tmp_path)
        with pytest.raises(SnapshotMismatchError, match="baseline"):
            engine.save_delta_checkpoint(tmp_path)
        # Re-basing with a full checkpoint recovers cleanly.
        engine.save_checkpoint(tmp_path, track_deltas=True)
        engine.process_many(docs[60:80])
        engine.save_delta_checkpoint(tmp_path)
        _, merged = read_checkpoint(tmp_path)
        assert merged == engine.snapshot()


class TestCadenceSurvivesAFailedAppend:
    """One failed journal append must cost one tick, not the chain.

    The engine disarms its chain when an append fails (the drained tick
    can never be re-journaled); the cadence must then re-base instead of
    asking for another append, which raised "no delta baseline" on every
    later tick.
    """

    @pytest.mark.parametrize("sharded", [False, True],
                             ids=["single", "serial-2"])
    def test_next_tick_rebases_and_the_chain_continues(
        self, sharded, docs, tmp_path, monkeypatch
    ):
        import errno

        import repro.core.engine as engine_module
        from repro.observability import Observability
        from repro.persistence.cadence import CheckpointCadence

        real_append = engine_module.append_delta
        appends = []

        def flaky_append(*args, **kwargs):
            appends.append(args)
            if len(appends) == 2:
                raise OSError(errno.ENOSPC, "No space left on device")
            return real_append(*args, **kwargs)

        monkeypatch.setattr(engine_module, "append_delta", flaky_append)
        observability = Observability()
        engine = (
            ShardedEnBlogue(config(**HOSTILE), num_shards=2,
                            chunk_size=7, observability=observability)
            if sharded
            else EnBlogue(config(**HOSTILE), observability=observability)
        )
        cadence = CheckpointCadence(
            engine, directory=tmp_path, every=1, full_every=100
        )
        cadence.begin()
        outcomes = []
        for start in range(0, len(docs), 10):
            for _ranking in engine.process_batch(docs[start:start + 10]):
                try:
                    outcomes.append(cadence.note_ranking())
                except OSError:
                    outcomes.append("failed")
        assert outcomes.count("failed") == 1 and outcomes.index("failed") == 1
        assert set(outcomes) == {True, "failed"}
        # begin + every tick but the failed one.
        assert cadence.checkpoints_written == len(outcomes)
        written = [
            record["mode"] for record in observability.log.records()
            if record["event"] == "checkpoint"
        ]
        # The labels say what was written: the tick after the failure is
        # the re-base, everything else an append.
        assert written == ["delta", "full"] + ["delta"] * (len(outcomes) - 3)
        _, merged = read_checkpoint(tmp_path)
        assert merged == engine.snapshot()
        if sharded:
            engine.close()


def test_a_tick_pauses_the_cyclic_collector_and_restores_it(docs, tmp_path):
    # A tick's burst of containers is acyclic; the collector is paused
    # while it lives and put back as found — also when the write fails,
    # and left off when the caller had it off.
    import gc

    from repro.persistence.cadence import CheckpointCadence

    engine = EnBlogue(config(**HOSTILE))
    cadence = CheckpointCadence(
        engine, directory=tmp_path, every=1, full_every=100
    )
    cadence.begin()
    during = []
    real_save = engine.save_delta_checkpoint

    def spying_save(directory, **kwargs):
        during.append(gc.isenabled())
        if len(during) == 2:
            raise OSError("disk full")
        return real_save(directory, **kwargs)

    engine.save_delta_checkpoint = spying_save
    assert gc.isenabled()
    engine.process_many(docs[:40])
    cadence.note_ranking()
    assert gc.isenabled()
    with pytest.raises(OSError):
        cadence.note_ranking()
    assert gc.isenabled()
    engine.save_checkpoint(tmp_path, track_deltas=True)
    gc.disable()
    try:
        cadence.note_ranking()
        assert not gc.isenabled()
    finally:
        gc.enable()
    assert during == [False, False, False]


class TestShardedChains:
    """(N → M resumes of a journal on every transport are cells of the
    differential matrix.)"""

    CUTS = (60, 110, 160)

    def test_chain_spanning_a_reshard_resumes_bit_identical(
        self, docs, reference, tmp_path
    ):
        # Chain A written by 2 shards, resumed into 4 (compaction +
        # re-partition), chain B written by the 4-shard engine, resumed
        # into 1 — the journal composes with re-sharding end to end.
        with ShardedEnBlogue(config(**HOSTILE), num_shards=2,
                             chunk_size=7) as engine:
            drive_chain(engine, docs, tmp_path, (60, 100))
        middle, _ = load_engine(tmp_path, num_shards=4)
        with middle:
            middle.process_many(docs[100:140])
            middle.save_checkpoint(tmp_path, track_deltas=True)
            middle.process_many(docs[140:180])
            middle.save_delta_checkpoint(tmp_path)
        final, _ = load_engine(tmp_path, num_shards=1)
        with final:
            final.process_many(docs[180:])
            assert signature(final) == reference


class TestSegmentTables:
    """A segment spells each tag and each distinct tag set once.

    The documents of a tick are its timestamps and, per document, a
    position into the table of distinct ordered tag sets (``tag_sets``,
    themselves positions into one ``tags`` string table), so a segment is
    sized by the distinct tag sets, not by every document repeating its
    tag strings — on either engine, which journal the same input alike.
    """

    @pytest.fixture(params=["single", "serial-2"])
    def segment(self, request, docs, tmp_path):
        engine = (
            EnBlogue(config(**HOSTILE)) if request.param == "single"
            else ShardedEnBlogue(config(**HOSTILE), num_shards=2,
                                 chunk_size=7)
        )
        engine.process_many(docs[:60])
        engine.save_checkpoint(tmp_path, track_deltas=True)
        engine.process_many(docs[60:140])
        segment = engine.delta_since(2)
        if request.param != "single":
            engine.close()
        return segment

    def test_documents_reference_the_table(self, segment):
        assert segment["kind"] == "command-log"
        assert len(segment["times"]) == len(segment["sets"]) == 80
        tags = segment["tags"]
        assert all(isinstance(tag, str) for tag in tags)
        assert len(set(tags)) == len(tags)  # each tag spelled once
        table = segment["tag_sets"]
        assert len(set(map(tuple, table))) == len(table)  # each set once
        assert all(0 <= tag < len(tags) for row in table for tag in row)
        assert all(0 <= position < len(table)
                   for position in segment["sets"])

    def test_size_regression_vs_raw_string_encoding(self, segment):
        import json

        tags, table = segment["tags"], segment["tag_sets"]
        raw_documents = [
            [timestamp, [tags[tag] for tag in table[position]]]
            for timestamp, position in zip(segment["times"], segment["sets"])
        ]
        table_bytes = len(json.dumps({
            "tags": tags, "tag_sets": table,
            "times": segment["times"], "sets": segment["sets"],
        }).encode())
        raw_bytes = len(json.dumps({"documents": raw_documents}).encode())
        # The pin: the tables must actually shrink the segment (each tag
        # and each distinct set is paid once, every reference is a
        # position).
        assert table_bytes < raw_bytes

    def test_a_segment_of_another_version_is_rejected_not_misread(
            self, segment):
        from repro.persistence.journal import decode_segment
        from repro.persistence.snapshot import SnapshotVersionError

        with pytest.raises(SnapshotVersionError):
            decode_segment(dict(segment, version=0))


def test_appended_ticks_carry_the_live_metrics_snapshot(docs, tmp_path):
    # A resumed server restores its counters from the manifest extras;
    # they must be those of the newest tick, not of the base up to
    # full_every - 1 ticks before the engine state restored with them.
    import json

    from repro.observability import Observability
    from repro.persistence.cadence import CheckpointCadence

    observability = Observability()
    engine = EnBlogue(config(**HOSTILE), observability=observability)
    snapshots = []

    def provider():
        snapshots.append(observability.snapshot())
        return {"metrics": snapshots[-1]}

    cadence = CheckpointCadence(
        engine, directory=tmp_path, every=1, full_every=100,
        extras={"source": "test"}, extras_provider=provider,
    )
    cadence.begin()
    for start in range(0, 160, 40):
        engine.process_many(docs[start:start + 40])
        cadence.note_ranking()
    assert cadence.checkpoints_written == 5
    assert len(list(tmp_path.glob("engine-*.delta"))) == 4
    assert snapshots[-1] != snapshots[0]
    restored, manifest = load_engine(tmp_path)
    assert manifest["extras"]["metrics"] == \
        json.loads(json.dumps(snapshots[-1]))
    assert manifest["extras"]["source"] == "test"
    assert restored.snapshot() == engine.snapshot()


def test_a_full_cadence_mode_is_rejected(tmp_path):
    from repro.persistence.cadence import CheckpointCadence

    with pytest.raises(ValueError, match="delta"):
        CheckpointCadence(EnBlogue(config(**HOSTILE)), directory=tmp_path,
                          every=2, mode="full")
