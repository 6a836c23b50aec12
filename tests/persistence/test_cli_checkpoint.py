"""CLI checkpoint/resume: flags, manifest extras, resume equivalence."""

import json

import pytest

from repro.cli import main
from repro.persistence.store import read_checkpoint, read_manifest

CKPT_ARGS = ["--dataset", "tweets", "--hours", "8"]


def run(args):
    # --seed is a top-level flag (it precedes the subcommand).
    return main(["--seed", "3", *args])


class TestCheckpointFlags:
    def test_checkpoint_every_requires_dir(self):
        with pytest.raises(SystemExit, match="checkpoint-dir"):
            run(["replay", *CKPT_ARGS, "--checkpoint-every", "2"])

    def test_final_checkpoint_without_cadence(self, tmp_path, capsys):
        directory = tmp_path / "ckpt"
        assert run(["replay", *CKPT_ARGS,
                    "--checkpoint-dir", str(directory)]) == 0
        assert "wrote 1 checkpoint(s)" in capsys.readouterr().out
        manifest = read_manifest(directory)
        assert manifest["kind"] == "enblogue"
        assert manifest["extras"]["dataset"] == "tweets"
        assert manifest["extras"]["hours"] == 8
        assert manifest["extras"]["seed"] == 3

    def test_periodic_checkpoints_record_dataset_extras(self, tmp_path):
        directory = tmp_path / "ckpt"
        assert run(["replay", *CKPT_ARGS, "--shards", "2",
                    "--checkpoint-every", "3",
                    "--checkpoint-dir", str(directory)]) == 0
        manifest, state = read_checkpoint(directory)
        assert manifest["kind"] == "sharded-enblogue"
        assert manifest["num_shards"] == 2
        assert manifest["extras"]["dataset"] == "tweets"
        # The cadence excludes the forced final evaluation, so the saved
        # checkpoint (base + journal) sits mid-stream and a resume has
        # documents to replay.
        total = 8 * 40  # hours * tweets_per_hour
        assert 0 < state["documents_processed"] < total


class TestResume:
    def test_resume_reshard_matches_uninterrupted_run(self, tmp_path, capsys):
        directory = tmp_path / "ckpt"
        full_export = tmp_path / "full.json"
        resumed_export = tmp_path / "resumed.json"
        # Uninterrupted run of the same stream, exported for comparison.
        assert run(["replay", *CKPT_ARGS,
                    "--export", str(full_export)]) == 0
        # Interrupted run: 2 shards, checkpoint every 3 rankings …
        assert run(["replay", *CKPT_ARGS, "--shards", "2",
                    "--checkpoint-every", "3",
                    "--checkpoint-dir", str(directory)]) == 0
        # The cadence is base + journal with no mode flag given.
        assert list(directory.glob("*.delta")), "no journal segment landed"
        # … resumed into 4 shards.
        assert run(["replay", "--resume", str(directory), "--shards", "4",
                    "--export", str(resumed_export)]) == 0
        out = capsys.readouterr().out
        assert "resumed 'tweets'" in out
        full = json.loads(full_export.read_text())
        resumed = json.loads(resumed_export.read_text())
        assert len(resumed) >= 2
        assert resumed == full[-len(resumed):]

    def test_resume_single_engine_checkpoint(self, tmp_path):
        directory = tmp_path / "ckpt"
        full_export = tmp_path / "full.json"
        resumed_export = tmp_path / "resumed.json"
        assert run(["replay", *CKPT_ARGS, "--export", str(full_export)]) == 0
        assert run(["replay", *CKPT_ARGS, "--checkpoint-every", "3",
                    "--checkpoint-dir", str(directory)]) == 0
        assert run(["replay", "--resume", str(directory),
                    "--export", str(resumed_export)]) == 0
        full = json.loads(full_export.read_text())
        resumed = json.loads(resumed_export.read_text())
        assert resumed == full[-len(resumed):]

    def test_resume_rejects_overrides_it_cannot_honor(self, tmp_path):
        # Flags the resumed engine cannot apply must error, not silently
        # drop — the config comes from the checkpoint, the stream from the
        # manifest extras.
        directory = tmp_path / "ckpt"
        assert run(["replay", *CKPT_ARGS, "--checkpoint-every", "3",
                    "--checkpoint-dir", str(directory)]) == 0
        with pytest.raises(SystemExit, match="--top-k"):
            run(["replay", "--resume", str(directory), "--top-k", "5"])
        with pytest.raises(SystemExit, match="--hours"):
            run(["replay", "--resume", str(directory), "--hours", "48"])
        # Re-passing the recorded values is a harmless no-op.
        assert run(["replay", "--resume", str(directory),
                    "--dataset", "tweets", "--hours", "8"]) == 0

    def test_resume_with_nothing_left_produces_no_stray_ranking(
        self, tmp_path, capsys
    ):
        # An end-of-replay checkpoint has consumed the whole stream; a
        # resume must not force a duplicate evaluation at the same
        # timestamp just because the engine has history.
        directory = tmp_path / "ckpt"
        assert run(["replay", *CKPT_ARGS,
                    "--checkpoint-dir", str(directory)]) == 0
        capsys.readouterr()
        assert run(["replay", "--resume", str(directory)]) == 0
        assert "replayed 0, produced 0 rankings" in capsys.readouterr().out

    def test_resume_can_keep_checkpointing(self, tmp_path):
        directory = tmp_path / "ckpt"
        assert run(["replay", *CKPT_ARGS, "--checkpoint-every", "3",
                    "--checkpoint-dir", str(directory)]) == 0
        first = read_checkpoint(directory)[1]["documents_processed"]
        assert run(["replay", "--resume", str(directory),
                    "--checkpoint-dir", str(directory)]) == 0
        second = read_checkpoint(directory)[1]["documents_processed"]
        assert second == 8 * 40
        assert second > first
