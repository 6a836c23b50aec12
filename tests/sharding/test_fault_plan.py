"""The deterministic fault-injection harness: counting, specs, torn tails.

Everything here is counted, not timed — a fault fires on matching events
``after+1 .. after+times`` of its own counter, so the same plan against
the same stream always strikes the same dispatch.  No real clock is
involved anywhere in this module.
"""

import json

import pytest

from repro.core.engine import EnBlogue
from repro.datasets.twitter import TweetStreamGenerator
from repro.faults import Fault, FaultPlan, tear_journal_tail

from differential import HOUR, config


class TestFaultValidation:
    def test_rejects_unknown_site_and_action(self):
        with pytest.raises(ValueError, match="site"):
            Fault(site="teleport", action="raise")
        with pytest.raises(ValueError, match="action"):
            Fault(site="dispatch", action="explode")

    def test_rejects_bad_windows_and_exceptions(self):
        with pytest.raises(ValueError, match="after"):
            Fault(site="dispatch", action="raise", after=-1)
        with pytest.raises(ValueError, match="after"):
            Fault(site="dispatch", action="raise", times=0)
        with pytest.raises(ValueError, match="exception"):
            Fault(site="dispatch", action="raise", exception="boom")
        with pytest.raises(ValueError, match="seconds"):
            Fault(site="gather", action="delay", seconds=-1.0)


class TestCountingSemantics:
    def test_fires_exactly_in_the_window(self):
        fault = Fault(site="dispatch", action="raise", after=2, times=2)
        # Events 1,2 pass; 3,4 fire; 5+ pass again.
        assert [fault.fires() for _ in range(6)] == [
            False, False, True, True, False, False,
        ]

    def test_shard_and_operation_filters_gate_the_counter(self):
        plan = FaultPlan().fail_dispatch(
            shard=1, after=1, operation="ingest")
        # Non-matching shards and operations never advance the counter.
        plan.on_dispatch(0, "ingest")
        plan.on_dispatch(1, "evaluate")
        plan.on_dispatch(1, "ingest")  # seen=1, still before the window
        with pytest.raises(BrokenPipeError):
            plan.on_dispatch(1, "ingest")  # seen=2, fires
        plan.on_dispatch(1, "ingest")  # window consumed
        assert plan.fired() == 1

    def test_kill_worker_counts_ingest_batches(self):
        plan = FaultPlan().kill_worker(0, after_batches=3)
        verdicts = [plan.on_dispatch(0, "ingest") for _ in range(4)]
        assert verdicts == [None, None, "kill", None]

    def test_delay_gather_uses_the_injected_sleep(self):
        slept = []
        plan = FaultPlan(sleep=slept.append).delay_gather(
            shard=0, seconds=2.5)
        plan.on_gather(0)
        plan.on_gather(0)
        assert slept == [2.5]

    def test_fail_gather_raises_at_the_gather_site_only(self):
        plan = FaultPlan().fail_gather(shard=0, exception=EOFError)
        assert plan.on_dispatch(0, "ingest") is None
        with pytest.raises(EOFError):
            plan.on_gather(0)

    def test_reset_rewinds_every_counter(self):
        plan = FaultPlan().fail_dispatch(shard=0)
        with pytest.raises(BrokenPipeError):
            plan.on_dispatch(0, "ingest")
        plan.on_dispatch(0, "ingest")
        plan.reset()
        with pytest.raises(BrokenPipeError):
            plan.on_dispatch(0, "ingest")


class TestSpecRoundTrip:
    def test_plan_survives_json_round_trip(self):
        plan = (
            FaultPlan()
            .kill_worker(1, after_batches=2)
            .fail_dispatch(shard=0, exception=ConnectionResetError,
                           after=3, times=2, operation="evaluate")
            .delay_gather(shard=2, seconds=1.5)
        )
        spec = json.loads(json.dumps(plan.to_spec()))
        rebuilt = FaultPlan.from_spec(spec)
        assert rebuilt.to_spec() == plan.to_spec()
        assert rebuilt.faults[1].exception is ConnectionResetError

    def test_from_spec_rejects_non_lists_and_unknown_exceptions(self):
        with pytest.raises(ValueError, match="JSON list"):
            FaultPlan.from_spec({"site": "dispatch"})
        with pytest.raises(ValueError, match="unknown exception"):
            Fault.from_spec({"site": "dispatch", "action": "raise",
                             "exception": "NoSuchError"})

    def test_from_env_inline_json_file_path_and_absent(self, tmp_path):
        spec = FaultPlan().kill_worker(0).to_spec()
        inline = {"REPRO_FAULT_PLAN": json.dumps(spec)}
        plan = FaultPlan.from_env(environ=inline)
        assert plan is not None and plan.to_spec() == spec

        path = tmp_path / "plan.json"
        path.write_text(json.dumps(spec), "utf-8")
        plan = FaultPlan.from_env(environ={"REPRO_FAULT_PLAN": str(path)})
        assert plan is not None and plan.to_spec() == spec

        assert FaultPlan.from_env(environ={}) is None
        assert FaultPlan.from_env(environ={"REPRO_FAULT_PLAN": "  "}) is None


class TestTearJournalTail:
    def test_truncates_the_newest_segment(self, tmp_path):
        corpus, _ = TweetStreamGenerator(hours=8, tweets_per_hour=40,
                                         seed=11).generate()
        docs = list(corpus)
        engine = EnBlogue(config())
        engine.process_batch(docs[:150])
        engine.save_checkpoint(tmp_path, track_deltas=True)
        engine.process_batch(docs[150:300])
        engine.save_delta_checkpoint(tmp_path)

        segments = sorted(tmp_path.glob("engine-*.delta"))
        assert segments
        before = segments[-1].stat().st_size
        path, after = tear_journal_tail(tmp_path, cut=16)
        assert path == segments[-1]
        assert after == before - 16 == path.stat().st_size

    def test_raises_without_a_journal(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            tear_journal_tail(tmp_path)
