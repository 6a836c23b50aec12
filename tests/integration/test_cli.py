"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main

from differential import BY_REFERENCE


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_replay_defaults(self):
        args = build_parser().parse_args(["replay"])
        assert args.dataset == "tweets"
        assert args.command == "replay"

    def test_unknown_dataset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["replay", "--dataset", "facebook"])

    @pytest.mark.parametrize("flag,value", [
        ("--tracking", "tiered"), ("--promote-support", "3"),
    ])
    @pytest.mark.parametrize("command", ["replay", "serve"])
    def test_sketch_tier_flags_are_gone(self, command, flag, value):
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, flag, value])

    def test_non_positive_shards_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["replay", "--shards", "0"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["replay", "--shards", "-2"])


class TestReplayCommand:
    def test_replay_tweets_prints_summary_and_ranking(self, capsys):
        exit_code = main(["replay", "--dataset", "tweets", "--hours", "24",
                          "--top-k", "5", "--seed", "7"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "replay of 'tweets'" in output
        assert "recall" in output
        assert "ranking at t=" in output
        assert "stage times" not in output  # only with --metrics

    @pytest.mark.parametrize("shards,stages", [
        pytest.param([], set(), id="single"),
        pytest.param(["--shards", "2"], {"dispatch", "shard_evaluate", "merge"},
                     id="sharded"),
    ])
    def test_replay_metrics_prints_the_stage_table(self, tmp_path, capsys,
                                                   shards, stages):
        # One row per stage the instrumented run timed, and one seed
        # selection per published ranking.
        target = tmp_path / "rankings.json"
        exit_code = main(["replay", "--dataset", "tweets", "--hours", "18",
                          "--seed", "7", "--metrics", "--export", str(target),
                          *shards])
        output = capsys.readouterr().out
        assert exit_code == 0
        table = output.split("stage times\n", 1)[1].split("\n\n", 1)[0]
        header, *rows = table.splitlines()
        assert header.split() == ["stage", "calls", "total", "ms", "mean", "µs"]
        calls = {name: int(count) for name, count, _, _ in map(str.split, rows)}
        assert {"batch", "ingest", "seed_select", *stages} <= calls.keys()
        assert calls["seed_select"] == len(json.loads(target.read_text()))

    def test_replay_with_export_writes_json(self, tmp_path, capsys):
        target = tmp_path / "rankings.json"
        exit_code = main(["replay", "--dataset", "tweets", "--hours", "18",
                          "--seed", "7", "--export", str(target)])
        assert exit_code == 0
        payload = json.loads(target.read_text())
        assert isinstance(payload, list)
        assert payload, "at least one ranking should have been exported"
        assert "topics" in payload[0]

    def test_replay_with_overrides(self, capsys):
        exit_code = main(["replay", "--dataset", "tweets", "--hours", "18",
                          "--measure", "cosine", "--predictor", "ewma",
                          "--seeds", "10", "--seed", "7"])
        assert exit_code == 0

    @pytest.mark.parametrize("backend", BY_REFERENCE)
    def test_sharded_replay_matches_single_engine_output(self, capsys,
                                                         backend):
        main(["replay", "--dataset", "tweets", "--hours", "18", "--seed", "7"])
        single_ranking = capsys.readouterr().out.split("ranking at t=")[1]
        exit_code = main(["replay", "--dataset", "tweets", "--hours", "18",
                          "--seed", "7", "--shards", "4",
                          "--backend", backend])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert f"enblogue[4x{backend}]" in output
        assert output.split("ranking at t=")[1] == single_ranking

    def test_sharded_replay_process_backend(self, capsys):
        exit_code = main(["replay", "--dataset", "tweets", "--hours", "12",
                          "--seed", "7", "--shards", "2",
                          "--backend", "process"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "enblogue[2xprocess]" in output
        assert "ranking at t=" in output

    @pytest.mark.parametrize("backend", BY_REFERENCE)
    def test_replay_verbose_reports_runtime(self, capsys, backend):
        exit_code = main(["replay", "--dataset", "tweets", "--hours", "12",
                          "--seed", "7", "--shards", "2",
                          "--backend", backend, "--verbose"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert f"runtime: engine=sharded backend={backend} shards=2" in output
        assert "evaluation_path=" in output

    def test_replay_quiet_omits_runtime_line(self, capsys):
        exit_code = main(["replay", "--dataset", "tweets", "--hours", "12",
                          "--seed", "7"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "runtime:" not in output


class TestCompareCommand:
    def test_compare_on_shift_workload(self, capsys):
        exit_code = main(["compare", "--dataset", "shifts", "--hours", "48",
                          "--seed", "11"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "enblogue" in output
        assert "twitter-monitor" in output
        assert "popularity" in output


class TestExploreCommand:
    def test_explore_tweets_range(self, capsys):
        exit_code = main(["explore", "--dataset", "tweets", "--hours", "30",
                          "--seed", "13", "--start-day", "10", "--end-day", "28",
                          "--top-k", "5"])
        output = capsys.readouterr().out
        assert exit_code == 0
        assert "indexed" in output
        assert "ranking for" in output
