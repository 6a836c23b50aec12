"""The on-disk checkpoint format: atomicity, CRCs, version gates."""

import json

import pytest

from repro.persistence.snapshot import (
    SnapshotCorruptionError,
    SnapshotVersionError,
)
from repro.persistence.store import (
    FORMAT_VERSION,
    MANIFEST_NAME,
    read_checkpoint,
    read_manifest,
    write_checkpoint,
)


def sample_state(shards=None):
    state = {
        "kind": "sharded-enblogue" if shards else "enblogue",
        "version": 2,
        "config": {"name": "test", "top_k": 10},
        "documents_processed": 42,
        "payload": [1.5, "x", None],
    }
    if shards:
        state["shards"] = shards
    return state


def state_path(directory, name):
    """Resolve a state file through the manifest (names carry generations)."""
    return directory / read_manifest(directory)["files"][name]["path"]


class TestRoundTrip:
    def test_single_engine_state(self, tmp_path):
        state = sample_state()
        write_checkpoint(tmp_path, state, extras={"dataset": "tweets"})
        manifest, loaded = read_checkpoint(tmp_path)
        assert loaded == state
        assert manifest["kind"] == "enblogue"
        assert manifest["num_shards"] is None
        assert manifest["documents_processed"] == 42
        assert manifest["extras"] == {"dataset": "tweets"}

    def test_sharded_state_lands_in_per_shard_files(self, tmp_path):
        shards = [{"kind": "shard-worker", "shard_id": 0},
                  {"kind": "shard-worker", "shard_id": 1}]
        state = sample_state(shards=shards)
        write_checkpoint(tmp_path, state)
        assert state_path(tmp_path, "shard-0").exists()
        assert state_path(tmp_path, "shard-1").exists()
        manifest, loaded = read_checkpoint(tmp_path)
        assert loaded == state
        assert manifest["num_shards"] == 2

    def test_overwrite_replaces_previous_checkpoint(self, tmp_path):
        write_checkpoint(tmp_path, sample_state())
        newer = sample_state()
        newer["documents_processed"] = 99
        write_checkpoint(tmp_path, newer)
        _, loaded = read_checkpoint(tmp_path)
        assert loaded["documents_processed"] == 99

    def test_overwrite_prunes_the_previous_generation(self, tmp_path):
        write_checkpoint(tmp_path, sample_state(shards=[{"s": 0}]))
        first = {entry["path"]
                 for entry in read_manifest(tmp_path)["files"].values()}
        write_checkpoint(tmp_path, sample_state(shards=[{"s": 0}]))
        remaining = {path.name for path in tmp_path.glob("*.json")}
        assert not first & remaining

    def test_crash_before_manifest_commit_keeps_previous_checkpoint(
        self, tmp_path
    ):
        # A new checkpoint is only committed by the manifest rename; state
        # files written before a crash (simulated here as orphaned
        # next-generation files, torn or not) must neither shadow nor
        # corrupt the committed checkpoint.
        state = sample_state(shards=[{"s": 0}])
        write_checkpoint(tmp_path, state)
        (tmp_path / "engine-00000002.json").write_text("{torn")
        (tmp_path / "shard-0000-00000002.json").write_text("{}")
        manifest, loaded = read_checkpoint(tmp_path)
        assert loaded == state
        assert manifest["generation"] == 1
        # The next successful checkpoint must not collide with the orphans.
        write_checkpoint(tmp_path, sample_state(shards=[{"s": 1}]))
        assert read_manifest(tmp_path)["generation"] == 3
        _, newest = read_checkpoint(tmp_path)
        assert newest["shards"] == [{"s": 1}]

    def test_no_temporary_files_left_behind(self, tmp_path):
        write_checkpoint(tmp_path, sample_state(shards=[{"s": 0}]))
        assert not list(tmp_path.glob("*.tmp"))

    def test_write_does_not_mutate_the_state_dict(self, tmp_path):
        shards = [{"s": 0}]
        state = sample_state(shards=shards)
        write_checkpoint(tmp_path, state)
        assert state["shards"] is shards


class TestErrorSurfaces:
    def test_missing_manifest_is_corruption(self, tmp_path):
        with pytest.raises(SnapshotCorruptionError, match="manifest"):
            read_checkpoint(tmp_path)

    def test_unsupported_format_version(self, tmp_path):
        write_checkpoint(tmp_path, sample_state())
        manifest_path = tmp_path / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        manifest["format_version"] = FORMAT_VERSION + 1
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(SnapshotVersionError, match="format version"):
            read_checkpoint(tmp_path)

    def test_tampered_state_file_fails_the_crc(self, tmp_path):
        write_checkpoint(tmp_path, sample_state())
        # Valid JSON, wrong bytes: only the CRC can catch this.
        state_path(tmp_path, "engine").write_text(
            json.dumps({"kind": "enblogue", "documents_processed": 7})
        )
        with pytest.raises(SnapshotCorruptionError, match="CRC-32"):
            read_checkpoint(tmp_path)

    def test_manifest_without_crc_is_corruption_not_a_type_error(
        self, tmp_path
    ):
        write_checkpoint(tmp_path, sample_state())
        manifest_path = tmp_path / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        del manifest["files"]["engine"]["crc32"]
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(SnapshotCorruptionError, match="CRC-32"):
            read_checkpoint(tmp_path)

    def test_truncated_state_file_is_corruption(self, tmp_path):
        write_checkpoint(tmp_path, sample_state(shards=[{"s": 0}]))
        shard_path = state_path(tmp_path, "shard-0")
        shard_path.write_bytes(shard_path.read_bytes()[:5])
        with pytest.raises(SnapshotCorruptionError):
            read_checkpoint(tmp_path)

    def test_missing_shard_file_is_corruption(self, tmp_path):
        write_checkpoint(tmp_path, sample_state(shards=[{"s": 0}, {"s": 1}]))
        state_path(tmp_path, "shard-1").unlink()
        with pytest.raises(SnapshotCorruptionError, match="shard"):
            read_checkpoint(tmp_path)

    def test_garbage_manifest_is_corruption(self, tmp_path):
        (tmp_path / MANIFEST_NAME).write_text("not json {")
        with pytest.raises(SnapshotCorruptionError, match="JSON"):
            read_manifest(tmp_path)
