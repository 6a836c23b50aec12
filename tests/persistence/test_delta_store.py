"""The journal layer of the store: frames, chain commits, corruption.

The journal's durability story: the manifest (written at base time,
manifest-rename-as-sole-commit) pins the chain's base generation, and
each journal tick commits itself through one CRC-framed segment file at
strictly consecutive generations, with one durability barrier per tick.  A torn or missing *final* tick is the expected shape
of a power cut and falls back to the committed prefix; damage anywhere
before the tail (impossible for an interrupted append, since a new
writer must re-base first) fails the whole load — never a partial or
guessed restore.
"""

import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.engine import EnBlogue
from repro.datasets.documents import Document
from repro.persistence.snapshot import (
    SnapshotCorruptionError,
    SnapshotMismatchError,
)
from repro.persistence.store import (
    MANIFEST_NAME,
    append_delta,
    read_checkpoint,
    read_manifest,
    write_checkpoint,
)

from differential import HOSTILE, close, config

SMALL = dict(HOSTILE, num_seeds=4)


def documents(count, start=0.0, step=3.0):
    tags = ["alpha", "beta", "gamma", "delta"]
    return [
        Document(
            timestamp=start + index * step,
            doc_id=f"doc-{start + index * step}",
            tags=frozenset([tags[index % 4], tags[(index + 1) % 4]]),
        )
        for index in range(count)
    ]


def snapshot_copy(engine):
    return json.loads(json.dumps(engine.snapshot()))


def drive_chain(engine, tmp_path):
    """A base + two committed journal ticks of ``engine`` on disk.

    Returns ``(engine, prefixes)`` where ``prefixes[i]`` is the engine
    state as of tick ``i`` (0 = base), for asserting prefix fallbacks.
    """
    engine.process_many(documents(30))
    engine.save_checkpoint(tmp_path, track_deltas=True)
    prefixes = [snapshot_copy(engine)]
    engine.process_many(documents(15, start=90.0))
    engine.save_delta_checkpoint(tmp_path)
    prefixes.append(snapshot_copy(engine))
    engine.process_many(documents(15, start=135.0))
    engine.save_delta_checkpoint(tmp_path)
    prefixes.append(snapshot_copy(engine))
    return engine, prefixes


@pytest.fixture
def chained(tmp_path):
    """A single engine's chain (see :func:`drive_chain`)."""
    return drive_chain(EnBlogue(config(**SMALL)), tmp_path)


@pytest.fixture
def sharded_chained(tmp_path):
    """The same chain written by a 2-shard coordinator."""
    from repro.sharding import ShardedEnBlogue

    with ShardedEnBlogue(config(**SMALL), num_shards=2) as engine:
        yield drive_chain(engine, tmp_path)


def journal_paths(directory):
    return sorted(directory.glob("engine-*.delta"))


class TestJournalCommit:
    def test_segments_are_consecutive_and_framed(self, chained, tmp_path):
        paths = journal_paths(tmp_path)
        assert [path.name for path in paths] \
            == ["engine-00000002.delta", "engine-00000003.delta"]
        for path in paths:
            assert path.read_bytes().startswith(b"ENBDELTA1 ")
        # The manifest pins the chain the segments extend.
        assert read_manifest(tmp_path)["base_generation"] == 1

    def test_read_replays_the_journal_onto_the_base(self, chained, tmp_path):
        engine, _ = chained
        _, state = read_checkpoint(tmp_path)
        assert state == engine.snapshot()

    def test_rebase_prunes_the_journal(self, chained, tmp_path):
        engine, _ = chained
        engine.save_checkpoint(tmp_path, track_deltas=True)
        assert not list(tmp_path.glob("*.delta"))
        assert read_manifest(tmp_path)["base_generation"] == 4
        _, state = read_checkpoint(tmp_path)
        assert state == engine.snapshot()

    def test_crash_then_rebase_leaves_a_clean_chain(self, chained, tmp_path):
        # A torn tail from a crash is swept away by the successor's
        # mandatory re-base (a new process has no chain to extend).
        engine, _ = chained
        (tmp_path / "engine-00000004.delta").write_bytes(
            b"ENBDELTA1 00009999 00000000\n{torn"
        )
        engine.save_checkpoint(tmp_path, track_deltas=True)
        assert not list(tmp_path.glob("*.delta"))
        _, state = read_checkpoint(tmp_path)
        assert state == engine.snapshot()

    def test_generation_continuity_guard(self, chained, tmp_path):
        # Another writer re-based the directory: appending the stale
        # chain must fail instead of mixing two histories.
        engine, _ = chained
        delta = engine.delta_since(4)
        write_checkpoint(tmp_path, engine.snapshot())
        with pytest.raises(SnapshotMismatchError, match="re-based"):
            append_delta(tmp_path, delta, expected_base=1,
                         expected_generation=3)

    def test_extended_chain_guard(self, chained, tmp_path):
        # Same base, but someone else appended a tick meanwhile.
        engine, _ = chained
        first = engine.delta_since(4)
        second = engine.delta_since(5)
        append_delta(tmp_path, first, expected_base=1, expected_generation=3)
        with pytest.raises(SnapshotMismatchError, match="extended"):
            append_delta(tmp_path, second, expected_base=1,
                         expected_generation=3)


class TestJournalCorruption:
    def test_bad_crc_mid_chain_is_corruption_not_partial_restore(
        self, chained, tmp_path
    ):
        # Damage in a non-final tick cannot be an interrupted append
        # (later ticks exist), so the load must fail whole — silently
        # restoring base + tick 2 without tick 1 would be a lie.
        first_segment = journal_paths(tmp_path)[0]
        payload = first_segment.read_bytes()
        first_segment.write_bytes(payload[:-7] + b"0000000")
        with pytest.raises(SnapshotCorruptionError, match="mid-chain"):
            read_checkpoint(tmp_path)

    def test_torn_final_segment_falls_back_to_committed_prefix(
        self, chained, tmp_path
    ):
        # The expected shape of a power cut: the final tick's (unsynced)
        # frame is torn.  The reader keeps the committed prefix instead
        # of failing the restore.
        _, prefixes = chained
        last_segment = journal_paths(tmp_path)[-1]
        last_segment.write_bytes(last_segment.read_bytes()[:40])
        _, state = read_checkpoint(tmp_path)
        assert state == prefixes[1]

    def test_missing_final_segment_falls_back_to_committed_prefix(
        self, chained, tmp_path
    ):
        _, prefixes = chained
        journal_paths(tmp_path)[-1].unlink()
        _, state = read_checkpoint(tmp_path)
        assert state == prefixes[1]

    def test_torn_suffix_falls_back_to_the_verified_prefix(
        self, chained, tmp_path
    ):
        # Without per-segment data fsync a power cut can tear *several*
        # trailing ticks at once (filesystems without ordered data
        # flushing); everything after the first torn frame being torn
        # too is the crash signature, so the verified prefix survives.
        _, prefixes = chained
        for path in journal_paths(tmp_path):
            path.write_bytes(path.read_bytes()[:40])
        _, state = read_checkpoint(tmp_path)
        assert state == prefixes[0]

    def test_truncated_mid_chain_frame_is_corruption(self, chained, tmp_path):
        first_segment = journal_paths(tmp_path)[0]
        first_segment.write_bytes(first_segment.read_bytes()[:40])
        with pytest.raises(SnapshotCorruptionError, match="torn"):
            read_checkpoint(tmp_path)

    def test_missing_mid_chain_segment_is_a_gap(self, chained, tmp_path):
        journal_paths(tmp_path)[0].unlink()
        with pytest.raises(SnapshotCorruptionError, match="gap"):
            read_checkpoint(tmp_path)

    def test_foreign_bytes_mid_chain_are_corruption(self, chained, tmp_path):
        first_segment = journal_paths(tmp_path)[0]
        first_segment.write_bytes(b"{\"not\": \"framed\"}")
        with pytest.raises(SnapshotCorruptionError, match="frame header"):
            read_checkpoint(tmp_path)

    def test_orphan_beyond_a_gap_is_corruption(self, chained, tmp_path):
        # Sequential appends cannot skip a generation, so a segment
        # beyond a hole means tampering — refuse to guess.
        (tmp_path / "engine-00000099.delta").write_bytes(
            b"ENBDELTA1 00000002 00000000\n{}"
        )
        with pytest.raises(SnapshotCorruptionError, match="gap"):
            read_checkpoint(tmp_path)

    def test_resume_from_a_torn_tail_continues_from_the_prefix(
        self, chained, tmp_path
    ):
        # End to end: after a simulated power cut, load_engine restores
        # the prefix and reports the prefix's progress, so a replay
        # re-feeds exactly the lost tick's documents.
        from repro.persistence import load_engine

        _, prefixes = chained
        journal_paths(tmp_path)[-1].unlink()
        engine, _ = load_engine(tmp_path)
        assert engine.documents_processed \
            == prefixes[1]["documents_processed"]
        close(engine)


class TestShardedJournalCommit(TestJournalCommit):
    """The commit rules hold for a sharded engine's chain, which its
    coordinator writes and a scratch engine of its shard count replays."""

    @pytest.fixture
    def chained(self, sharded_chained):
        return sharded_chained


class TestShardedJournalCorruption(TestJournalCorruption):
    """The corruption rules hold for a sharded engine's chain."""

    @pytest.fixture
    def chained(self, sharded_chained):
        return sharded_chained


def test_a_sharded_tick_writes_one_segment(sharded_chained, tmp_path):
    # The coordinator records the input; the shards write nothing.
    assert sorted(path.name for path in tmp_path.glob("*.delta")) \
        == ["engine-00000002.delta", "engine-00000003.delta"]


class TestFormatCompatibility:
    def test_version_1_manifest_without_journal_still_reads(self, tmp_path):
        # PR 3 checkpoints predate the journal; they must stay loadable.
        engine = EnBlogue(config(**SMALL))
        engine.process_many(documents(20))
        engine.save_checkpoint(tmp_path)
        manifest_path = tmp_path / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        manifest["format_version"] = 1
        del manifest["base_generation"]
        manifest_path.write_text(json.dumps(manifest))
        _, state = read_checkpoint(tmp_path)
        assert state == engine.snapshot()


# -- framing under fuzzing -----------------------------------------------------


def committed_states(directory):
    """What each committed tick of a chain restores to: the chain with
    every later generation's segments removed, base alone first."""
    generations = sorted({int(path.stem.rsplit("-", 1)[1])
                          for path in Path(directory).glob("*.delta")})
    states = []
    with tempfile.TemporaryDirectory() as scratch:
        for keep in [None] + generations:
            prefix = Path(scratch) / str(keep)
            shutil.copytree(directory, prefix)
            for path in prefix.glob("*.delta"):
                if keep is None or int(path.stem.rsplit("-", 1)[1]) > keep:
                    path.unlink()
            states.append(read_checkpoint(prefix)[1])
    return states


@pytest.fixture(scope="module")
def chains(tmp_path_factory):
    """name → (chain directory, the segment the fuzzer damages, the
    states of its committed ticks): the last and a mid-chain segment of a
    single engine's chain and of a sharded one's."""
    from repro.sharding import ShardedEnBlogue

    chains = {}
    for name, engine in (
        ("single", EnBlogue(config(**SMALL))),
        ("serial-2", ShardedEnBlogue(config(**SMALL), num_shards=2)),
    ):
        directory = tmp_path_factory.mktemp(name)
        engine.process_many(documents(30))
        engine.save_checkpoint(directory, track_deltas=True)
        for start in (90.0, 135.0, 180.0):
            engine.process_many(documents(15, start=start))
            engine.save_delta_checkpoint(directory)
        if name != "single":
            engine.close()
        states = committed_states(directory)
        segments = journal_paths(directory)
        chains[f"{name}/last"] = (directory, segments[-1].name, states)
        chains[f"{name}/mid-chain"] = (directory, segments[1].name, states)
    return chains


damage = st.one_of(
    st.tuples(st.just("flip"), st.integers(min_value=0),
              st.integers(min_value=1, max_value=255)),
    st.tuples(st.just("truncate"), st.integers(min_value=0), st.just(0)),
)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), damage=damage)
def test_damaged_framing_restores_a_committed_tick_or_fails_loudly(
    chains, data, damage
):
    name = data.draw(st.sampled_from(sorted(chains)), label="segment")
    source, segment, states = chains[name]
    kind, position, mask = damage
    with tempfile.TemporaryDirectory() as scratch:
        directory = Path(scratch) / "chain"
        shutil.copytree(source, directory)
        path = directory / segment
        payload = bytearray(path.read_bytes())
        position %= len(payload)
        if kind == "flip":
            payload[position] ^= mask
        else:
            del payload[position:]
        path.write_bytes(bytes(payload))
        try:
            _, state = read_checkpoint(directory)
        except SnapshotCorruptionError:
            return
    assert state in states
