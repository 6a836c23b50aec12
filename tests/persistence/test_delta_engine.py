"""Engine-level delta checkpointing: chains, guards, bit-identical resume.

The contract under test is two-layered: ``delta_since`` folded onto the
base snapshot reproduces ``snapshot()`` exactly (the dict-level
equivalence the store's reader relies on), and a base + journal directory
resumes into a continuation bit-identical to an uninterrupted run — for
the single engine and for the sharded one on both backends, including a
restore into a different shard count.
"""

import pytest

from repro.core.config import EnBlogueConfig
from repro.core.engine import EnBlogue
from repro.datasets.documents import Document
from repro.persistence import load_engine, read_checkpoint
from repro.persistence.snapshot import SnapshotMismatchError
from repro.sharding import ProcessBackend, ShardedEnBlogue


def config(**overrides):
    base = EnBlogueConfig(
        window_horizon=100.0,
        evaluation_interval=25.0,
        num_seeds=6,
        min_seed_count=1,
        min_pair_support=1,
        min_history=2,
        predictor="moving_average",
        predictor_window=3,
        history_length=6,
    )
    return base.with_overrides(**overrides) if overrides else base


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


def signature(engine):
    return [
        (ranking.timestamp, ranking.topics)
        for ranking in engine.ranking_history()
    ]


@pytest.fixture(scope="module")
def docs():
    return stream()


@pytest.fixture(scope="module")
def reference(docs):
    engine = EnBlogue(config())
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
        engine = EnBlogue(config())
        drive_chain(engine, docs, tmp_path, self.CUTS)
        _, merged = read_checkpoint(tmp_path)
        assert merged == engine.snapshot()

    def test_resume_continue_bit_identical(self, docs, reference, tmp_path):
        engine = EnBlogue(config())
        cut = drive_chain(engine, docs, tmp_path, self.CUTS)
        resumed, _ = load_engine(tmp_path)
        resumed.process_many(docs[cut:])
        assert signature(resumed) == reference

    def test_empty_delta_tick_round_trips(self, docs, tmp_path):
        # A cadence tick with no new documents writes a (tiny) segment
        # that must still fold cleanly.
        engine = EnBlogue(config())
        engine.process_many(docs[:60])
        engine.save_checkpoint(tmp_path, track_deltas=True)
        engine.save_delta_checkpoint(tmp_path)
        _, merged = read_checkpoint(tmp_path)
        assert merged == engine.snapshot()

    def test_policy_mutation_mid_chain_survives(self, docs, tmp_path):
        # min_pair_support and the ranking policy are mutable between
        # evaluations; the journal must carry the latest values.
        engine = EnBlogue(config())
        engine.process_many(docs[:60])
        engine.save_checkpoint(tmp_path, track_deltas=True)
        engine.tracker.min_pair_support = 3
        engine.ranking_builder.top_k = 5
        engine.process_many(docs[60:100])
        engine.save_delta_checkpoint(tmp_path)
        _, merged = read_checkpoint(tmp_path)
        assert merged == engine.snapshot()
        resumed, _ = load_engine(tmp_path)
        assert resumed.tracker.min_pair_support == 3
        assert resumed.ranking_builder.top_k == 5


class TestChainGuards:
    def test_delta_without_baseline_rejected(self, docs, tmp_path):
        engine = EnBlogue(config())
        engine.process_many(docs[:40])
        with pytest.raises(SnapshotMismatchError, match="baseline"):
            engine.save_delta_checkpoint(tmp_path)

    def test_delta_into_a_different_directory_rejected(self, docs, tmp_path):
        engine = EnBlogue(config())
        engine.process_many(docs[:40])
        engine.save_checkpoint(tmp_path / "a", track_deltas=True)
        with pytest.raises(SnapshotMismatchError, match="base chain"):
            engine.save_delta_checkpoint(tmp_path / "b")

    def test_full_save_without_tracking_ends_the_chain(self, docs, tmp_path):
        engine = EnBlogue(config())
        engine.process_many(docs[:40])
        engine.save_checkpoint(tmp_path, track_deltas=True)
        engine.save_checkpoint(tmp_path)
        with pytest.raises(SnapshotMismatchError, match="baseline"):
            engine.save_delta_checkpoint(tmp_path)

    def test_restore_invalidates_the_chain(self, docs, tmp_path):
        engine = EnBlogue(config())
        engine.process_many(docs[:40])
        engine.save_checkpoint(tmp_path, track_deltas=True)
        engine.restore(engine.snapshot())
        with pytest.raises(SnapshotMismatchError, match="baseline"):
            engine.save_delta_checkpoint(tmp_path)

    def test_detector_reset_rejected_while_recording(self, docs, tmp_path):
        engine = EnBlogue(config())
        engine.process_many(docs[:40])
        engine.save_checkpoint(tmp_path, track_deltas=True)
        with pytest.raises(RuntimeError, match="re-base"):
            engine.detector.reset()

    def test_failed_append_disarms_the_chain(self, docs, tmp_path):
        # save_delta_checkpoint drains the component buffers before the
        # store write; if the write then fails, that tick can never be
        # re-journaled, so the chain must disarm — a blind retry would
        # commit a segment with a silent hole.
        import repro.persistence.snapshot as snapshot_module

        engine = EnBlogue(config())
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
            ShardedEnBlogue(config(), num_shards=2, backend="serial",
                            chunk_size=7, observability=observability)
            if sharded else EnBlogue(config(), observability=observability)
        )
        cadence = CheckpointCadence(
            engine, directory=tmp_path, every=1, mode="delta", full_every=100
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

    engine = EnBlogue(config())
    cadence = CheckpointCadence(
        engine, directory=tmp_path, every=1, mode="delta", full_every=100
    )
    cadence.begin()
    during = []
    real_save = engine.save_delta_checkpoint

    def spying_save(directory):
        during.append(gc.isenabled())
        if len(during) == 2:
            raise OSError("disk full")
        return real_save(directory)

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
    CUTS = (60, 110, 160)

    @pytest.mark.parametrize("checkpoint_shards,resume_shards",
                             [(1, 1), (2, 2), (2, 4), (4, 1)])
    def test_serial_chain_resumes_bit_identical(
        self, docs, reference, tmp_path, checkpoint_shards, resume_shards
    ):
        with ShardedEnBlogue(config(), num_shards=checkpoint_shards,
                             backend="serial", chunk_size=7) as engine:
            cut = drive_chain(engine, docs, tmp_path, self.CUTS)
            _, merged = read_checkpoint(tmp_path)
            assert merged == engine.snapshot()
        resumed, _ = load_engine(tmp_path, num_shards=resume_shards)
        with resumed:
            resumed.process_many(docs[cut:])
            assert signature(resumed) == reference

    def test_process_backend_chain_resumes_resharded(
        self, docs, reference, tmp_path
    ):
        with ShardedEnBlogue(config(), num_shards=2,
                             backend=ProcessBackend(start_method="fork"),
                             chunk_size=7) as engine:
            cut = drive_chain(engine, docs, tmp_path, self.CUTS)
            _, merged = read_checkpoint(tmp_path)
            assert merged == engine.snapshot()
        resumed, _ = load_engine(
            tmp_path, num_shards=4,
            backend=ProcessBackend(start_method="fork"),
        )
        with resumed:
            resumed.process_many(docs[cut:])
            assert signature(resumed) == reference

    def test_chain_spanning_a_reshard_resumes_bit_identical(
        self, docs, reference, tmp_path
    ):
        # Chain A written by 2 shards, resumed into 4 (compaction +
        # re-partition), chain B written by the 4-shard engine, resumed
        # into 1 — the delta format composes with re-sharding end to end.
        with ShardedEnBlogue(config(), num_shards=2, backend="serial",
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


class TestCoordinatorTagSets:
    """The coordinator's tag events use the tracker delta's tag-set table.

    A sharded delta writes every distinct ordered tag set once
    (``tag_sets``, version 3 of the ``sharded-enblogue-delta`` payload,
    its tags positions into one ``tags`` string table) and each event as
    a position into it, so a cadence tick's coordinator segment is sized
    by the *distinct* tag sets, not by every document repeating its tag
    strings.
    """

    @pytest.fixture
    def delta(self, docs, tmp_path):
        with ShardedEnBlogue(config(), num_shards=2, backend="serial",
                             chunk_size=7) as engine:
            engine.process_many(docs[:60])
            engine.save_checkpoint(tmp_path, track_deltas=True)
            engine.process_many(docs[60:140])
            return engine.delta_since(2)

    def test_tag_events_reference_the_table(self, delta):
        assert delta["version"] == 3
        assert delta["tag_events"], "the window of docs must append events"
        tags = delta["tags"]
        assert all(isinstance(tag, str) for tag in tags)
        assert len(set(tags)) == len(tags)  # each tag spelled once
        table = delta["tag_sets"]
        assert len(set(map(tuple, table))) == len(table)  # each set once
        assert all(0 <= tag < len(tags) for row in table for tag in row)
        for _timestamp, position in delta["tag_events"]:
            assert isinstance(position, int)
            assert 0 <= position < len(table)

    def test_size_regression_vs_raw_string_encoding(self, delta):
        import json

        tags, table = delta["tags"], delta["tag_sets"]
        raw_events = [
            [timestamp, [tags[tag] for tag in table[position]]]
            for timestamp, position in delta["tag_events"]
        ]
        table_bytes = len(json.dumps({
            "tags": tags, "tag_sets": table,
            "tag_events": delta["tag_events"],
        }).encode())
        raw_bytes = len(json.dumps({"tag_events": raw_events}).encode())
        # The pin: the tables must actually shrink the coordinator events
        # (each tag and each distinct set is paid once, every reference
        # is a position).
        assert table_bytes < raw_bytes

    def test_version_1_journals_are_rejected_not_misread(self, docs, delta):
        from repro.persistence.delta import apply_engine_delta
        from repro.persistence.snapshot import SnapshotVersionError

        with ShardedEnBlogue(config(), num_shards=2, backend="serial",
                             chunk_size=7) as engine:
            engine.process_many(docs[:60])
            base = engine.snapshot()
        legacy = dict(delta)
        legacy["version"] = 1  # a pre-table journal's envelope
        with pytest.raises(SnapshotVersionError):
            apply_engine_delta(base, legacy)
