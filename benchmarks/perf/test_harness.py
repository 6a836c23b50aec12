"""The harness end to end on smoke-sized inputs, and its declared contract."""

import json
import os
import re

import pytest

from repro.core.vectorized import FusedEvaluator
from repro.sharding.worker import ShardWorker

from . import REPO_ROOT, replay, serve
from .metrics import END_TO_END, PER_LAYER, zero_filled
from .workloads import OTHER_SEED, WORKLOADS

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_keeps_the_contract_and_names_the_workloads():
    with open(REPO_ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        declared = json.load(handle)
    assert set(declared) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert declared["paths"] == ["benchmarks/perf"]
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)
    names = [m.name for m in END_TO_END + PER_LAYER] + list(WORKLOADS)
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(m.unit) for m in END_TO_END + PER_LAYER)
    assert all(0 < m.bound <= 0.25 for m in END_TO_END)
    assert "setup_s" in {m.name for m in END_TO_END}


def test_undeclared_layer_metrics_are_refused():
    assert zero_filled({"core.docs": 5})["core.docs"] == 5
    assert zero_filled({})["persistence.ticks"] == 0.0
    with pytest.raises(KeyError):
        zero_filled({"core.typo": 1.0})


@pytest.mark.parametrize("name", ["replay_zipf", "replay_sharded"])
def test_replay_smoke_matches_reference_untraced_and_traced(name, kernel,
                                                            tmp_path):
    workload = WORKLOADS[name]
    inputs = replay.prepare(workload, seed=OTHER_SEED, smoke=True)
    assert inputs.expected
    flat = [d for chunk in inputs.traced_chunks for d in chunk]
    assert flat == inputs.documents

    outcome = replay.measure(workload, inputs, 0.0, kernel)
    assert outcome["failed"] == 0
    assert outcome["attempted"] == replay.MIN_ROUNDS * len(inputs.expected)
    assert all(value > 0 for value in outcome["metrics"].values())

    originals = (FusedEvaluator.evaluate, ShardWorker.ingest,
                 ShardWorker.evaluate)
    traced = replay.measure_traced(workload, inputs, 0.0, kernel,
                                   tmp_path / "trace.json")
    assert (FusedEvaluator.evaluate, ShardWorker.ingest,
            ShardWorker.evaluate) == originals
    assert traced["failed"] == 0
    metrics = zero_filled(traced["metrics"])
    assert metrics["core.evaluations"] == \
        replay.MIN_ROUNDS * len(inputs.expected)
    assert metrics["trace.span_coverage"] > 0.9
    own = "sharding.coordinator_self_us_per_doc" if workload.sharded \
        else "core.tracker.observe_us_per_doc"
    assert metrics[own] > 0
    assert json.loads((tmp_path / "trace.json").read_text())


def test_a_wrong_ranking_is_counted_as_failed(kernel):
    workload = WORKLOADS["replay_tweets"]
    inputs = replay.prepare(workload, seed=OTHER_SEED, smoke=True)
    timestamp, topics = inputs.expected[2]
    inputs.expected[2] = (timestamp + 1.0, topics)
    inputs.expected.append(inputs.expected[-1])
    outcome = replay.measure(workload, inputs, 0.0, kernel)
    assert outcome["failed"] == 2 * replay.MIN_ROUNDS


@pytest.mark.parametrize("traced", [False, True])
def test_serve_smoke_frames_and_checkpoint_match_reference(traced):
    inputs = serve.prepare(seed=OTHER_SEED, seconds=0.4)
    affinity = os.sched_getaffinity(0)
    with serve.Server(traced=traced) as server:
        directory = server.directory
        process = server.process
        outcome = serve.measure_traced(inputs, server) if traced \
            else serve.measure(inputs, server)
    assert process.poll() is not None
    assert not directory.exists()
    # The generator binds itself to a core only while it drives the load.
    assert os.sched_getaffinity(0) == affinity
    assert outcome["failed"] == 0
    assert outcome["attempted"] == \
        len(inputs.requests) + len(inputs.expected_frames) + 1
    if traced:
        metrics = zero_filled(outcome["metrics"])
        assert metrics["core.docs"] == len(inputs.requests) * serve.SERVE_BATCH
        assert metrics["serving.http_parse_us_per_doc"] > 0
        assert metrics["persistence.base_bytes"] > 0
    else:
        assert all(value > 0 for value in outcome["metrics"].values())


def test_a_server_that_stops_answering_yields_metrics_and_failures():
    inputs = serve.prepare(seed=OTHER_SEED, seconds=0.4)
    answered = 3
    result = serve.LoadResult(
        due=[0.0, 0.1, 0.2], sent=[0.0, 0.1, 0.2], done=[0.01, 0.11, 0.21],
        status=[202] * answered, queued=[0] * answered,
        broken="ConnectionError('server closed the producer connection')",
    )
    attempted, failed = serve.judge(inputs, result, state="")
    assert failed == (len(inputs.requests) - answered
                      + len(inputs.expected_frames) + 1)
    assert attempted == failed + answered
    load = serve.load_metrics(inputs, result)
    assert load["ack_latency_ms_p50"] == pytest.approx(10.0)
    assert load["frame_latency_ms_p50"] == 0.0
    assert load["update_us_per_doc"] == 0.0
    assert load["broken"]
    # Nothing at all came back: still every metric, all of them 0.
    empty = serve.load_metrics(inputs, serve.LoadResult())
    assert empty["server_cpu_us_per_doc"] == 0.0
    assert empty["ack_latency_ms"]["count"] == 0
