"""The three replay workloads: documents through ``process_batch`` in-process.

A run is a sequence of rounds; each round builds a fresh engine and feeds
it the whole stream in ``REPLAY_CHUNK``-document calls, timing every call.
Kernel slices are taken at the round start and after calls that returned a
ranking (some sixteen per round) — points at which every engine variant has
just synchronised, so no shard thread competes with the slice.
"""

from __future__ import annotations

import gc
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from statistics import median
from typing import Dict, List, Optional

from repro.core.config import EnBlogueConfig
from repro.core.engine import EnBlogue
from repro.core.tracker import DocumentDecomposer
from repro.core.vectorized import FusedEvaluator
from repro.sharding import ShardedEnBlogue
from repro.sharding.partitioner import PairPartitioner
from repro.sharding.worker import ShardWorker

from . import calibration
from .stats import center, percentile, summarize, tail
from .tracing import Ledger, Recorder
from .workloads import (
    REPLAY_CHUNK,
    Workload,
    chunked,
    replay_config,
    replay_documents,
)

#: Rounds a run makes at least, however short ``--seconds`` is.
MIN_ROUNDS = 3

#: Kernel slices a round aims for, spread over its ranking-producing calls.
SLICES_PER_ROUND = 16

#: Slices taken before a round's first document.
LEADING_SLICES = 3

#: Set-up calls its pulse once per this many reference-replay chunks.
PULSE_EVERY_CHUNKS = 4

NUM_SHARDS = 2


@dataclass
class ReplayInputs:
    """Everything one set-up produces."""

    config: EnBlogueConfig
    documents: list
    chunks: List[list]
    traced_chunks: List[list]
    expected: List[tuple]


@dataclass
class Round:
    """What one round measured (times in seconds, unnormalised)."""

    durations: List[float]
    boundary_calls: List[int]
    closing: float
    cpu: float
    slices: List[float]
    failed: int

    @property
    def wall(self) -> float:
        return sum(self.durations) + self.closing

    @property
    def cal_ms(self) -> float:
        return calibration.observed_ms(self.slices)


def signature(ranking) -> tuple:
    """What must match the reference exactly: time, pairs and scores."""
    return (ranking.timestamp,
            [(topic.pair.as_tuple(), topic.score) for topic in ranking])


def split_at_boundaries(chunks: List[list], interval: float) -> List[list]:
    """``chunks`` re-cut so each boundary-crossing document is a call of its own.

    Rankings are unchanged (``process_batch`` splits at boundaries itself);
    the one-document calls make evaluation delay observable from outside.
    """
    result: List[list] = []
    next_evaluation: Optional[float] = None
    for chunk in chunks:
        pending: list = []
        for document in chunk:
            if next_evaluation is None:
                next_evaluation = document.timestamp + interval
            if document.timestamp >= next_evaluation:
                if pending:
                    result.append(pending)
                    pending = []
                result.append([document])
                while document.timestamp >= next_evaluation:
                    next_evaluation += interval
            else:
                pending.append(document)
        if pending:
            result.append(pending)
    return result


def prepare(workload: Workload, seed: int, smoke: bool = False,
            pulse=lambda: None) -> ReplayInputs:
    """One set-up: generate the stream and replay the scalar reference.

    ``pulse`` is called every few chunks (``calibration.Stopwatch``).
    """
    config = replay_config()
    documents = replay_documents(workload, seed, smoke)
    pulse()
    chunks = chunked(documents, REPLAY_CHUNK)
    reference = EnBlogue(config, vectorize=False)
    expected: List[tuple] = []
    for index, chunk in enumerate(chunks):
        expected.extend(signature(ranking)
                        for ranking in reference.process_batch(chunk))
        if index % PULSE_EVERY_CHUNKS == 0:
            pulse()
    return ReplayInputs(
        config=config,
        documents=documents,
        chunks=chunks,
        traced_chunks=split_at_boundaries(chunks, config.evaluation_interval),
        expected=expected,
    )


def make_engine(workload: Workload, config: EnBlogueConfig):
    if workload.sharded:
        return ShardedEnBlogue(config, num_shards=NUM_SHARDS,
                               backend="threads")
    return EnBlogue(config)


def close_engine(engine) -> None:
    close = getattr(engine, "close", None)
    if close is not None:
        close()


def mismatches(produced: list, expected: list) -> int:
    """Outputs that differ from, are missing from or exceed the reference."""
    differing = sum(1 for got, want in zip(produced, expected) if got != want)
    return differing + abs(len(produced) - len(expected))


def play(engine, chunks: List[list], expected: List[tuple], sharded: bool,
         kernel: calibration.Kernel, probe=None) -> Round:
    """Feed ``chunks`` to a fresh ``engine``, timing every call.

    ``probe`` (traced runs) is called, untimed, after every call that
    returned a ranking — where state sizes are sampled.
    """
    clock = time.perf_counter
    process_batch = engine.process_batch
    durations: List[float] = []
    boundary_calls: List[int] = []
    produced: List[tuple] = []
    slice_every = max(1, len(expected) // SLICES_PER_ROUND)
    slices = kernel.sample(LEADING_SLICES)
    cpu_start = time.process_time()
    for chunk in chunks:
        start = clock()
        rankings = process_batch(chunk)
        durations.append(clock() - start)
        if rankings:
            boundary_calls.append(len(durations) - 1)
            produced.extend(rankings)
            if len(boundary_calls) % slice_every == 0:
                slices.append(kernel.time_slice())
            if probe is not None:
                probe(engine)
    closing = 0.0
    if sharded:
        # The closing sync point: every dispatched chunk is ingested.
        start = clock()
        engine.shard_stats()
        closing = clock() - start
    cpu = time.process_time() - cpu_start - sum(slices[LEADING_SLICES:])
    return Round(
        durations=durations,
        boundary_calls=boundary_calls,
        closing=closing,
        cpu=cpu,
        slices=slices,
        failed=mismatches([signature(r) for r in produced], expected),
    )


@contextmanager
def settled():
    """Keep the corpus out of the collector's sight while timing."""
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


def run_rounds(workload: Workload, inputs: ReplayInputs, seconds: float,
               chunks: List[list], kernel: calibration.Kernel,
               recorder: Optional[Recorder] = None):
    """Rounds until ``seconds`` have passed; returns ``(rounds, extras)``.

    ``extras`` carries the state sizes: the last round's snapshot length
    and, in traced runs, the largest pair and tag counts seen at a boundary
    (the sharded engine's pairs live in its shards, so there it is the
    closing ``shard_stats``).
    """
    clock = time.perf_counter
    rounds: List[Round] = []
    extras: Dict[str, object] = {"live_pairs": 0, "tags_live": 0}
    probe = None
    if recorder is not None and not workload.sharded:
        def probe(engine) -> None:
            tracker = engine.tracker
            extras["live_pairs"] = max(extras["live_pairs"],
                                       len(tracker.candidate_index))
            extras["tags_live"] = max(extras["tags_live"],
                                      len(tracker.tag_window.counts))
    started = clock()
    while True:
        engine = make_engine(workload, inputs.config)
        try:
            if recorder is not None:
                install(recorder, engine, workload.sharded)
            try:
                rounds.append(play(engine, chunks, inputs.expected,
                                   workload.sharded, kernel, probe))
            finally:
                if recorder is not None:
                    recorder.restore()
            last = (len(rounds) >= MIN_ROUNDS
                    and clock() - started >= seconds)
            if last:
                extras["state_bytes"] = len(json.dumps(engine.snapshot()))
                if workload.sharded:
                    extras["shard_stats"] = engine.shard_stats()
        finally:
            close_engine(engine)
        del engine
        gc.collect()
        if last:
            return rounds, extras


# -- untraced: the end-to-end metrics -------------------------------------------


def measure(workload: Workload, inputs: ReplayInputs, seconds: float,
            kernel: calibration.Kernel) -> dict:
    """The untraced run; returns metrics, counts and calibration facts."""
    with settled():
        rounds, extras = run_rounds(workload, inputs, seconds, inputs.chunks,
                                    kernel)
    documents = len(inputs.documents)
    per_doc = [
        calibration.normalise(r.wall / documents * 1e6, r.cal_ms)
        for r in rounds
    ]
    cpu_per_doc = [
        calibration.normalise(r.cpu / documents * 1e6, r.cal_ms)
        for r in rounds
    ]
    ack: List[float] = []
    frame: List[float] = []
    for r in rounds:
        scaled = [calibration.normalise(d * 1e3, r.cal_ms)
                  for d in r.durations]
        ack.extend(scaled)
        frame.extend(scaled[index] for index in r.boundary_calls)
    cal = [r.cal_ms for r in rounds]
    return {
        "metrics": {
            "update_us_per_doc": median(per_doc),
            "state_bytes": extras["state_bytes"],
            "frame_latency_ms_p50": median(frame),
            "frame_latency_ms_p90": percentile(frame, 90),
            "ack_latency_ms_p50": median(ack),
            "ack_latency_ms_p90": percentile(ack, 90),
            "server_cpu_us_per_doc": median(cpu_per_doc),
        },
        "attempted": len(rounds) * len(inputs.expected),
        "failed": sum(r.failed for r in rounds),
        "info": {
            "rounds": len(rounds),
            "documents": documents,
            "raw_update_us_per_doc": median(
                r.wall / documents * 1e6 for r in rounds
            ),
            "cal_observed_ms": median(cal),
            "disturbed_share": calibration.disturbed_share(cal),
            "frame_latency_ms": summarize(frame),
            "ack_latency_ms": summarize(ack),
        },
    }


# -- traced: the per-layer ledger -------------------------------------------------


def install(recorder: Recorder, engine, sharded: bool, batch=None) -> None:
    """Wrap the public callables an engine's documents pass through.

    ``batch`` numbers the ``process_batch`` calls (the serving path pairs
    them with the submits that queued them).
    """
    recorder.wrap(engine, "process_batch", "engine.process_batch",
                  batch=batch, count=len)
    recorder.wrap(engine.seed_selector, "select", "seeds.select")
    recorder.wrap(FusedEvaluator, "evaluate", "vectorized.evaluate")
    if sharded:
        recorder.wrap(engine.backend, "ingest", "sharding.dispatch")
        recorder.wrap(engine.backend, "evaluate", "sharding.gather",
                      fanout=True)
        recorder.wrap(engine.ranking_builder, "merge", "sharding.merge")
        recorder.wrap(engine, "shard_stats", "sharding.sync", fanout=True)
        recorder.wrap(ShardWorker, "ingest", "shard.ingest")
        recorder.wrap(ShardWorker, "evaluate", "shard.evaluate")
    else:
        tracker = engine.tracker
        recorder.wrap(tracker, "observe_many", "tracker.observe_many")
        recorder.wrap(tracker, "advance_to", "tracker.advance_to")
        recorder.wrap(tracker, "count_history", "tracker.count_history")
        recorder.wrap(tracker, "record_count_history_row",
                      "tracker.count_row")


def per_document_loops(inputs: ReplayInputs) -> Dict[str, float]:
    """Per-document functions, too hot to wrap: seconds per document.

    Timed in a standalone loop over the workload's documents, with fresh
    objects so the decomposer's memo starts as cold as an engine's.
    """
    clock = time.perf_counter
    decomposer = DocumentDecomposer(use_entities=inputs.config.use_entities)
    decompose = decomposer.decompose
    start = clock()
    decomposed = [
        (document.timestamp, decompose(document.tags, ())[1])
        for document in inputs.documents
    ]
    decompose_s = clock() - start
    split_event = PairPartitioner(NUM_SHARDS).split_event
    start = clock()
    for timestamp, pairs in decomposed:
        if pairs:
            split_event(timestamp, pairs)
    partition_s = clock() - start
    documents = len(inputs.documents)
    return {"decompose": decompose_s / documents,
            "partition": partition_s / documents}


def measure_traced(workload: Workload, inputs: ReplayInputs, seconds: float,
                   kernel: calibration.Kernel, trace_path=None) -> dict:
    """The traced run: every per-layer metric this workload exercises."""
    recorder = Recorder()
    with settled():
        slices = kernel.sample(LEADING_SLICES)
        loops = per_document_loops(inputs)
        slices += kernel.sample(LEADING_SLICES)
        loops_cal = calibration.observed_ms(slices)
        rounds, extras = run_rounds(workload, inputs, seconds,
                                    inputs.traced_chunks, kernel, recorder)
    if trace_path is not None:
        recorder.dump(trace_path)
    ledger = Ledger(recorder.spans)
    cal = median(r.cal_ms for r in rounds)
    documents = len(rounds) * len(inputs.documents)
    evaluations = len(rounds) * len(inputs.expected)
    per_round = len(inputs.documents)
    wall = sum(r.wall for r in rounds)

    def us_per_doc(seconds_total: float) -> float:
        return calibration.normalise(seconds_total / documents * 1e6, cal)

    def ms_per_eval(seconds_total: float) -> float:
        return calibration.normalise(seconds_total / evaluations * 1e3, cal)

    # The one-document boundary calls: evaluation delay seen from outside.
    delays = [
        calibration.normalise(r.durations[index] * 1e3, r.cal_ms)
        for r in rounds for index in r.boundary_calls
    ]
    # Self times partition the top-level spans, so their summed duration
    # is the wall time the named spans account for.
    covered = sum(span.duration for span in ledger.spans
                  if span.parent is None
                  and span.name in ("engine.process_batch", "sharding.sync"))
    batch_self = us_per_doc(ledger.self_total("engine.process_batch"))
    metrics = {
        ("sharding.coordinator_self_us_per_doc" if workload.sharded
         else "core.engine.batch_self_us_per_doc"): batch_self,
        "core.tracker.observe_us_per_doc":
            us_per_doc(ledger.total("tracker.observe_many")),
        "core.tracker.decompose_us_per_doc":
            calibration.normalise(loops["decompose"] * 1e6, loops_cal),
        "core.tracker.advance_ms_per_eval":
            ms_per_eval(ledger.total("tracker.advance_to")),
        "core.tracker.count_history_ms_per_eval":
            ms_per_eval(ledger.total("tracker.count_history")),
        "core.tracker.count_row_ms_per_eval":
            ms_per_eval(ledger.total("tracker.count_row")),
        "core.seeds.select_ms_per_eval":
            ms_per_eval(ledger.total("seeds.select")),
        "core.vectorized.evaluate_ms_per_eval":
            ms_per_eval(ledger.total("vectorized.evaluate")),
        "core.eval_delay_ms_p50": center(delays),
        "core.eval_delay_ms_p95": tail(delays, 95),
        "core.evaluations": evaluations,
        "core.docs": documents,
        "core.live_pairs_peak": extras["live_pairs"],
        "core.tags_live": extras["tags_live"],
        "sharding.dispatch_us_per_doc":
            us_per_doc(ledger.total("sharding.dispatch")),
        "sharding.chunks_dispatched": ledger.calls("sharding.dispatch"),
        "sharding.shard_ingest_us_per_doc":
            us_per_doc(ledger.total("shard.ingest")),
        "sharding.gather_ms_per_eval":
            ms_per_eval(ledger.total("sharding.gather")),
        "sharding.merge_ms_per_eval":
            ms_per_eval(ledger.total("sharding.merge")),
        "trace.traced_us_per_doc": median(
            calibration.normalise(r.wall / per_round * 1e6, r.cal_ms)
            for r in rounds
        ),
        "trace.span_coverage": covered / wall,
        "trace.spans": len(ledger.spans),
    }
    if workload.sharded:
        shards = extras["shard_stats"]
        events = [shard["events"] for shard in shards]
        metrics["core.live_pairs_peak"] = sum(
            shard["live_pairs"] for shard in shards
        )
        metrics["sharding.shard_event_skew"] = \
            max(events) / (sum(events) / len(events))
        metrics["sharding.partition_us_per_doc"] = calibration.normalise(
            loops["partition"] * 1e6, loops_cal
        )
    return {
        "metrics": metrics,
        "attempted": len(rounds) * len(inputs.expected),
        "failed": sum(r.failed for r in rounds),
        "info": {
            "rounds": len(rounds),
            "cal_observed_ms": cal,
            "disturbed_share": calibration.disturbed_share(
                [r.cal_ms for r in rounds]
            ),
        },
    }
