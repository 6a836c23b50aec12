"""PERF-1: engine throughput, operator sharing and sketch-based counting.

Section 4.1 claims a push-based architecture where "overlapping parts, like
data sources, sketching operators, entity tagging, and statistics operators
are shared for efficiency" across parallel query plans.  The benchmark
measures

* raw detection throughput (documents/second through the full pipeline),
* the batched, index-backed ingestion path against a faithful replica of
  the seed revision's document-at-a-time path (``seed_path.py``), asserting
  first that both produce identical rankings,
* incremental seed-postings candidate generation against the seed
  revision's full scan over every windowed pair,
* the sharded scatter-gather engine (serial and process backends, shard
  counts 1/2/4) against the single engine — rankings asserted
  bit-identical first, then ingest+evaluation documents/second,
* the cost of durability: the batch replay with ``save_checkpoint`` on a
  fixed cadence versus without (the CLI's ``--checkpoint-every``),
* the cost of running N parallel query plans with and without sharing the
  expensive upstream operators (entity tagging + statistics), and
* exact windowed counting versus the Count-Min sketch synopsis.

Absolute numbers are not comparable to the paper's Java system; the claims
being reproduced are the *relative* benefits of sharing, batching and
postings-based pruning.  Run ``PYTHONPATH=src python -m
benchmarks.bench_throughput`` from the repo root to re-record the machine
baseline in ``BENCH_throughput.json``; ``--section sharding`` (or
``checkpointing``) re-records just that section — CI uses the former to
refresh the sharded scaling rows on a multi-core runner.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import statistics
import tempfile
import time
from pathlib import Path

import pytest

from benchmarks.conftest import HOUR, live_config
from benchmarks.seed_path import SeedPathEngine
from repro.core.engine import EnBlogue
from repro.core.tracker import CorrelationTracker
from repro.observability import (
    Observability,
    parse_prometheus_families,
    render_prometheus,
)
from repro.faults import FaultPlan
from repro.persistence.resume import load_engine
from repro.sharding import (
    ProcessBackend,
    RetryPolicy,
    ShardedEnBlogue,
    SupervisedBackend,
)
from repro.sharding.backends import ThreadBackend
from repro.datasets.synthetic import SyntheticStreamGenerator
from repro.datasets.twitter import TweetStreamGenerator
from repro.datasets.vocabulary import TagVocabulary
from repro.entity.tagger import EntityTaggingOperator
from repro.evaluation.reporting import format_table
from repro.sketches.countmin import WindowedCountMinSketch
from repro.streams.operators import StatisticsOperator, TagNormalizerOperator
from repro.streams.plan import PlanExecutor, QueryPlan
from repro.streams.sources import DocumentStreamSource
from repro.windows.aggregates import TagFrequencyWindow

BASELINE_PATH = Path(__file__).resolve().parent.parent / "BENCH_throughput.json"


@pytest.fixture(scope="module")
def small_tweets():
    corpus, _ = TweetStreamGenerator(hours=24, tweets_per_hour=50, seed=43).generate()
    return corpus


@pytest.fixture(scope="module")
def heavy_tweets():
    """The 24h twitter stream at heavy-traffic rate for the batching claims."""
    corpus, _ = TweetStreamGenerator(hours=24, tweets_per_hour=400, seed=43).generate()
    return list(corpus)


def throughput_config(name: str):
    """Configuration of the batch-vs-seed comparison.

    High-rate streams make a support threshold meaningful: pairs that
    co-occur fewer than five times in a 24h window are noise, and sampling
    them would dominate the evaluation regardless of ingestion speed.
    """
    return live_config(name=name, min_pair_support=5, num_seeds=15)


def ranking_signature(engine):
    return [
        (ranking.timestamp, [(topic.pair, topic.score) for topic in ranking])
        for ranking in engine.ranking_history()
    ]


def replay_seed_path(docs):
    engine = SeedPathEngine(throughput_config("seed-path"))
    for document in docs:
        engine.process(document)
    return engine


def replay_single(docs):
    engine = EnBlogue(throughput_config("single"))
    engine.process_many(docs)
    return engine


def replay_batch(docs):
    engine = EnBlogue(throughput_config("batch"))
    engine.process_batch(docs)
    return engine


def replay_batch_observed(docs):
    """The batch replay with the full observability layer enabled."""
    engine = EnBlogue(throughput_config("batch"),
                      observability=Observability())
    engine.process_batch(docs)
    return engine


def replay_batch_disabled(docs):
    """The batch replay through an explicitly disabled bundle.

    Every instrumentation call site still executes — counters, spans,
    log emits, SLO ticks — but against the shared no-op singletons.
    This is the path a deployment that opts out of observability pays.
    """
    engine = EnBlogue(throughput_config("batch"),
                      observability=Observability(enabled=False))
    engine.process_batch(docs)
    return engine


def replay_batch_profiled(docs):
    """The observed replay with the sampling profiler running at 100Hz.

    The heaviest configuration the serving stack supports: metrics,
    tracing, structured logging and SLO accounting live, plus a
    background thread walking every stack ten times per replay.
    """
    observability = Observability()
    observability.profiler.start(interval=0.01)
    try:
        engine = EnBlogue(throughput_config("batch"),
                          observability=observability)
        engine.process_batch(docs)
    finally:
        observability.close()
    return engine


def replay_sharded(docs, num_shards, backend):
    """Replay through the scatter-gather engine (batch path, like ``batch``).

    The process backend runs under the "fork" start method here: the
    benchmark measures steady-state ingest+evaluation scaling, and the
    pinned "spawn" default would spend ~0.5s per worker booting a fresh
    interpreter — longer than the whole replay, drowning the signal.  A
    long-running deployment amortizes that boot cost to nothing.
    """
    if backend == "process":
        backend = ProcessBackend(start_method="fork")
    engine = ShardedEnBlogue(
        throughput_config("batch"), num_shards=num_shards, backend=backend,
    )
    try:
        engine.process_batch(docs)
    finally:
        engine.close()
    return engine


#: Checkpoint cadence of the durability scenario: one ``save_checkpoint``
#: per CHECKPOINT_EVERY chunks of CHUNK_DOCS documents.
CHUNK_DOCS = 256
CHECKPOINT_EVERY = 4

#: Re-base cadence of the delta-mode contestant (the CLI's --full-every):
#: every K-th cadence tick writes a full base, the others append journal
#: segments.  Larger than the ~9 ticks of one replay, so the measured
#: steady state is one base plus deltas — the shape a deployment pays.
FULL_EVERY = 16


def replay_batch_checkpointed(docs, checkpoint_dir=None, mode="full",
                              full_every=FULL_EVERY):
    """The batch replay in CHUNK_DOCS chunks, checkpointing on a cadence.

    With ``checkpoint_dir`` unset this is the plain chunked batch path —
    the "off" contestant, paying the same chunking as the "on" one so the
    measured delta is purely the durability cost.  ``mode`` mirrors the
    CLI's ``--checkpoint-mode``: ``"full"`` re-serializes the window every
    tick, ``"delta"`` writes a base on the first (and every
    ``full_every``-th) tick and appends journal segments otherwise.
    """
    engine = EnBlogue(throughput_config("batch"))
    chunks = 0
    written = 0
    if checkpoint_dir is not None and mode == "delta":
        # The chain's base is the (near-empty) stream-start state — the
        # CLI does the same — so every cadence tick below appends a
        # journal segment and the full-window serialization is paid only
        # at the re-base cadence, not inside the steady state.
        engine.save_checkpoint(checkpoint_dir, track_deltas=True)
        written = 1
    for start in range(0, len(docs), CHUNK_DOCS):
        engine.process_batch(docs[start:start + CHUNK_DOCS])
        chunks += 1
        if checkpoint_dir is not None and chunks % CHECKPOINT_EVERY == 0:
            if mode == "full":
                engine.save_checkpoint(checkpoint_dir)
            elif written % full_every == 0:
                engine.save_checkpoint(checkpoint_dir, track_deltas=True)
            else:
                engine.save_delta_checkpoint(checkpoint_dir)
            written += 1
    return engine


def interleaved_medians(runners, rounds):
    """Median seconds per runner, measured in interleaved rounds.

    Interleaving spreads machine noise (frequency scaling, background load)
    evenly over the contestants instead of penalising whoever runs last.
    """
    samples = {name: [] for name, _ in runners}
    for _ in range(rounds):
        for name, fn in runners:
            start = time.perf_counter()
            fn()
            samples[name].append(time.perf_counter() - start)
    return {name: statistics.median(times) for name, times in samples.items()}


def interleaved_minima(runners, rounds):
    """Best seconds per runner over interleaved rounds, after a warm-up.

    For sub-100ms contestants the median still carries frequency-scaling
    noise worth tens of percent — a contestant that sleeps (the sampling
    profiler between ticks) lets the core downclock and taxes whoever
    runs next.  Noise only ever *adds* time, so the per-contestant
    minimum is the robust estimator for the tight overhead gates; the
    discarded first round absorbs cold caches.
    """
    samples = {name: [] for name, _ in runners}
    for round_index in range(rounds + 1):
        for name, fn in runners:
            start = time.perf_counter()
            fn()
            if round_index > 0:
                samples[name].append(time.perf_counter() - start)
    return {name: min(times) for name, times in samples.items()}


# -- batched ingestion vs the seed path --------------------------------------


def test_batch_path_matches_seed_path_rankings(heavy_tweets):
    """The refactor is behaviour-preserving: all three paths agree exactly."""
    seed = ranking_signature(replay_seed_path(heavy_tweets))
    single = ranking_signature(replay_single(heavy_tweets))
    batch = ranking_signature(replay_batch(heavy_tweets))
    assert seed == single == batch
    assert len(seed) == 23


def test_batch_vs_seed_path_throughput(heavy_tweets):
    """Documents/second: batched+indexed pipeline vs the seed revision."""
    medians = interleaved_medians(
        [
            ("seed-path", lambda: replay_seed_path(heavy_tweets)),
            ("single", lambda: replay_single(heavy_tweets)),
            ("batch", lambda: replay_batch(heavy_tweets)),
        ],
        rounds=5,
    )
    rows = [
        {
            "path": name,
            "docs/s": round(len(heavy_tweets) / seconds),
            "ms/replay": round(seconds * 1000, 1),
            "speedup vs seed": round(medians["seed-path"] / seconds, 2),
        }
        for name, seconds in medians.items()
    ]
    print()
    print(format_table(rows, title="PERF-1 — 24h twitter stream, "
                                   "batched vs seed-revision ingestion"))
    # The recorded baseline (BENCH_throughput.json) shows >= 1.5x; under a
    # noisy CI runner we only insist the batch path actually wins.
    assert medians["batch"] < medians["seed-path"]


# -- sharded scatter-gather engine vs the single engine ----------------------


def test_sharded_rankings_bit_identical_to_single_engine(heavy_tweets):
    """Shard counts 1/2/4, serial and process backends: same rankings."""
    reference = ranking_signature(replay_batch(heavy_tweets))
    for num_shards in (1, 2, 4):
        sharded = replay_sharded(heavy_tweets, num_shards, "serial")
        assert ranking_signature(sharded) == reference
    process = replay_sharded(heavy_tweets, 4, "process")
    assert ranking_signature(process) == reference


def test_sharded_vs_single_throughput(heavy_tweets):
    """Ingest+evaluation documents/second across shard counts and backends."""
    medians = interleaved_medians(
        [
            ("single", lambda: replay_batch(heavy_tweets)),
            ("serial-4", lambda: replay_sharded(heavy_tweets, 4, "serial")),
            ("process-4", lambda: replay_sharded(heavy_tweets, 4, "process")),
        ],
        rounds=3,
    )
    rows = [
        {
            "engine": name,
            "docs/s": round(len(heavy_tweets) / seconds),
            "ms/replay": round(seconds * 1000, 1),
            "vs single": round(medians["single"] / seconds, 2),
        }
        for name, seconds in medians.items()
    ]
    print()
    print(format_table(rows, title="PERF-2 — 24h twitter stream, "
                                   "sharded scatter-gather vs single engine"))
    # No speedup assertion: on a small per-evaluation pair population the
    # scatter-gather overhead (routing + IPC) can dominate; the recorded
    # baseline captures where the crossover lies on this machine.
    assert all(seconds > 0 for seconds in medians.values())


# -- observability overhead ---------------------------------------------------


#: Absolute slack of the observability overhead gate, in seconds.  A 24h
#: replay finishes in ~100ms here, where a single scheduler hiccup is a
#: multi-percent swing; the relative bound carries the actual claim.
OBSERVABILITY_GATE_SLACK_S = 0.005


def observability_within_gate(on_seconds: float, off_seconds: float) -> bool:
    """The <=2% contract: enabled instrumentation stays within two percent
    of the uninstrumented replay (plus a fixed noise allowance)."""
    return on_seconds <= off_seconds * 1.02 + OBSERVABILITY_GATE_SLACK_S


#: Absolute slack of the profiling gates, in seconds.  The bench replay
#: finishes in under 100ms, so the 100Hz sampler lands fewer than ten
#: samples per run — one sample walking every stack is a multi-percent
#: swing at this scale.  The relative bounds carry the claim on the
#: runs that matter (a production replay is minutes, not milliseconds).
PROFILING_GATE_SLACK_S = 0.010


def profiling_disabled_within_gate(disabled_seconds: float,
                                   off_seconds: float) -> bool:
    """The disabled contract: a bundle built with ``enabled=False`` may
    cost at most half a percent over no bundle at all (plus the fixed
    noise allowance) — opting out must be effectively free."""
    return disabled_seconds <= off_seconds * 1.005 + PROFILING_GATE_SLACK_S


def profiling_enabled_within_gate(profiled_seconds: float,
                                  enabled_seconds: float) -> bool:
    """The profiled contract: the 100Hz sampler plus structured logging
    may cost at most five percent over plain enabled instrumentation
    (plus the fixed noise allowance)."""
    return profiled_seconds <= enabled_seconds * 1.05 \
        + PROFILING_GATE_SLACK_S


def test_profiling_and_logging_overhead_within_gate(heavy_tweets):
    """The PR-10 gates: disabled <=0.5% over bare, profiled <=5% over enabled.

    Results first — the profiled replay's rankings must equal the plain
    replay's exactly; a sampling profiler reads stacks, it must never
    perturb the math.  Then the two cost contracts, measured interleaved
    so machine noise spreads over all four contestants.
    """
    plain = replay_batch(heavy_tweets)
    profiled = replay_batch_profiled(heavy_tweets)
    assert ranking_signature(profiled) == ranking_signature(plain)

    medians = interleaved_minima(
        [
            ("off", lambda: replay_batch(heavy_tweets)),
            ("disabled", lambda: replay_batch_disabled(heavy_tweets)),
            ("enabled", lambda: replay_batch_observed(heavy_tweets)),
            ("profiled-100hz", lambda: replay_batch_profiled(heavy_tweets)),
        ],
        rounds=5,
    )
    print()
    print(format_table(
        [
            {"configuration": name,
             "docs/s": round(len(heavy_tweets) / seconds),
             "ms/replay": round(seconds * 1000, 1)}
            for name, seconds in medians.items()
        ],
        title="PERF-6 — profiling + logging overhead",
    ))
    assert profiling_disabled_within_gate(
        medians["disabled"], medians["off"]), (
        f"disabled bundle costs "
        f"{(medians['disabled'] / medians['off'] - 1.0):+.2%} "
        "over no bundle, breaking the <=0.5% gate"
    )
    assert profiling_enabled_within_gate(
        medians["profiled-100hz"], medians["enabled"]), (
        f"profiler+logging cost "
        f"{(medians['profiled-100hz'] / medians['enabled'] - 1.0):+.2%} "
        "over plain instrumentation, breaking the <=5% gate"
    )


def test_observability_overhead_within_two_percent(heavy_tweets):
    """Full instrumentation on vs off: bit-identical rankings, <=2% cost.

    Results first: the instrumented replay's rankings must equal the
    plain replay's exactly — observing the pipeline must not perturb it.
    Then the gate: counters, histograms and span tracing together may
    cost at most two percent of replay wall time (plus a fixed slack
    absorbing scheduler noise on sub-second replays).
    """
    plain = replay_batch(heavy_tweets)
    observed = replay_batch_observed(heavy_tweets)
    assert ranking_signature(observed) == ranking_signature(plain)
    # The scrape the instrumented replay leaves behind must be valid
    # exposition text covering the evaluation path it actually took.
    families = parse_prometheus_families(
        render_prometheus(observed.observability.registry))
    assert "repro_core_evaluation_seconds" in families

    medians = interleaved_medians(
        [
            ("off", lambda: replay_batch(heavy_tweets)),
            ("on", lambda: replay_batch_observed(heavy_tweets)),
        ],
        rounds=5,
    )
    overhead = medians["on"] / medians["off"] - 1.0
    print()
    print(format_table(
        [
            {"instrumentation": name,
             "docs/s": round(len(heavy_tweets) / seconds),
             "ms/replay": round(seconds * 1000, 1)}
            for name, seconds in medians.items()
        ],
        title=f"PERF-5 — observability overhead ({overhead:+.1%})",
    ))
    assert observability_within_gate(medians["on"], medians["off"]), (
        f"observability overhead {overhead:+.1%} breaks the <=2% gate "
        f"(on={medians['on'] * 1000:.1f}ms off={medians['off'] * 1000:.1f}ms)"
    )


# -- checkpoint overhead ------------------------------------------------------


def test_checkpoint_overhead(heavy_tweets, tmp_path):
    """Documents/second with --checkpoint-every on vs. off.

    Durability must not change results: the checkpointed replay's rankings
    are asserted identical first.  No hard overhead bound — the recorded
    baseline (``checkpointing`` section) tracks the cost in the
    trajectory; a noisy CI runner only has to finish both replays.
    """
    plain = replay_batch_checkpointed(heavy_tweets)
    checkpointed = replay_batch_checkpointed(heavy_tweets,
                                             checkpoint_dir=tmp_path)
    assert ranking_signature(plain) == ranking_signature(checkpointed)

    medians = interleaved_medians(
        [
            ("checkpoint-off",
             lambda: replay_batch_checkpointed(heavy_tweets)),
            ("checkpoint-on",
             lambda: replay_batch_checkpointed(heavy_tweets,
                                               checkpoint_dir=tmp_path)),
        ],
        rounds=3,
    )
    overhead = medians["checkpoint-on"] / medians["checkpoint-off"] - 1.0
    rows = [
        {
            "path": name,
            "docs/s": round(len(heavy_tweets) / seconds),
            "ms/replay": round(seconds * 1000, 1),
        }
        for name, seconds in medians.items()
    ]
    checkpoint_bytes = sum(
        path.stat().st_size for path in tmp_path.iterdir()
    )
    print()
    print(format_table(
        rows,
        title=f"PERF-3 — checkpoint every {CHECKPOINT_EVERY * CHUNK_DOCS} "
              f"docs ({checkpoint_bytes / 1024:.0f} KiB on disk, "
              f"overhead {overhead:+.1%})",
    ))
    assert all(seconds > 0 for seconds in medians.values())


def test_delta_checkpoint_overhead(heavy_tweets, tmp_path):
    """Delta-mode cadence vs full-mode vs off: journaling must be cheaper.

    Results first: the delta-checkpointed replay's rankings are asserted
    identical to the plain replay, and the final base+journal directory
    must restore into a state equal to the live engine's snapshot.  Then
    docs/s for off / full-mode / delta-mode, asserting only the ordering
    (delta cheaper than full) — the recorded ``checkpointing_delta``
    baseline section carries the measured percentages.
    """
    from repro.persistence import read_checkpoint

    plain = replay_batch_checkpointed(heavy_tweets)
    delta_dir = tmp_path / "delta"
    delta = replay_batch_checkpointed(heavy_tweets, checkpoint_dir=delta_dir,
                                      mode="delta")
    assert ranking_signature(plain) == ranking_signature(delta)
    # The cadence stopped before the trailing partial chunk; append one
    # more segment so the directory describes the live engine exactly.
    delta.save_delta_checkpoint(delta_dir)
    _, merged = read_checkpoint(delta_dir)
    assert merged == delta.snapshot()

    full_dir = tmp_path / "full"
    medians = interleaved_medians(
        [
            ("off", lambda: replay_batch_checkpointed(heavy_tweets)),
            ("full", lambda: replay_batch_checkpointed(
                heavy_tweets, checkpoint_dir=full_dir)),
            ("delta", lambda: replay_batch_checkpointed(
                heavy_tweets, checkpoint_dir=delta_dir, mode="delta")),
        ],
        rounds=3,
    )
    rows = [
        {
            "path": name,
            "docs/s": round(len(heavy_tweets) / seconds),
            "overhead": f"{medians[name] / medians['off'] - 1.0:+.1%}",
        }
        for name, seconds in medians.items()
    ]
    print()
    print(format_table(rows, title="PERF-3 — full vs delta checkpoint "
                                   f"cadence (every "
                                   f"{CHECKPOINT_EVERY * CHUNK_DOCS} docs)"))
    assert medians["delta"] < medians["full"]


# -- the async serving layer ---------------------------------------------------


def serve_replay(docs, checkpoint_dir=None, lockstep=False,
                 chunk=CHUNK_DOCS):
    """Replay ``docs`` through the asyncio serving layer.

    Free-running mode submits chunks as fast as the bounded queue accepts
    them — the serving docs/s figure.  ``lockstep`` instead drains the
    service after every submit and records, for each chunk that produced
    rankings, the seconds from ``submit`` to the frames being pushed to
    the subscriber — the ingest→ranking-push latency (with a checkpoint
    cadence this includes the journal segment written on the same tick,
    which is exactly what a served cadence tick costs).

    Returns ``(engine, frames, latencies, seconds)``.
    """
    from repro.persistence import CheckpointCadence
    from repro.serving import DetectionService

    async def scenario():
        engine = EnBlogue(throughput_config("batch"))
        cadence = None
        if checkpoint_dir is not None:
            cadence = CheckpointCadence(
                engine, directory=checkpoint_dir, every=CHECKPOINT_EVERY,
                mode="delta", full_every=FULL_EVERY,
            )
        service = DetectionService(engine, cadence=cadence)
        await service.start()
        subscription = service.subscribe(buffer_limit=1 << 16)
        latencies = []
        started = time.perf_counter()
        pushed = 0
        for start in range(0, len(docs), chunk):
            submit_at = time.perf_counter()
            await service.submit(docs[start:start + chunk])
            if lockstep:
                await service.drain()
                if service.stats.rankings_published > pushed:
                    latencies.append(time.perf_counter() - submit_at)
                    pushed = service.stats.rankings_published
        await service.stop()
        elapsed = time.perf_counter() - started
        frames = []
        while (message := await subscription.next_message()) is not None:
            frames.append(message.payload)
        return engine, frames, latencies, elapsed

    return asyncio.run(scenario())


def test_served_rankings_match_batch_replay(heavy_tweets):
    """The serving path is behaviour-preserving: pushed frames == replay."""
    reference = replay_batch(heavy_tweets)
    engine, frames, _, _ = serve_replay(heavy_tweets)
    assert engine.ranking_history() == reference.ranking_history()
    assert frames == reference.ranking_history()


def test_serving_push_latency_and_checkpoint_overhead(heavy_tweets, tmp_path):
    """Ingest→push latency with and without a concurrent delta cadence.

    Results first: the delta-checkpointed serve's frames equal the plain
    serve's.  No hard latency bound — the recorded ``serving`` baseline
    section carries the measured milliseconds; a noisy CI runner only has
    to produce positive latencies and a journal on disk.
    """
    _, plain_frames, plain_latencies, _ = serve_replay(
        heavy_tweets, lockstep=True)
    _, delta_frames, delta_latencies, _ = serve_replay(
        heavy_tweets, checkpoint_dir=tmp_path, lockstep=True)
    assert delta_frames == plain_frames
    assert plain_latencies and delta_latencies
    assert list(tmp_path.glob("*.delta")), \
        "the serve-time delta cadence wrote no journal segments"
    rows = [
        {"path": name,
         "p50 ingest->push ms": round(
             statistics.median(values) * 1000, 1)}
        for name, values in (("serve", plain_latencies),
                             ("serve + delta ckpt", delta_latencies))
    ]
    print()
    print(format_table(rows, title="PERF-4 — serving push latency "
                                   f"({CHUNK_DOCS}-doc batches)"))
    assert all(value > 0 for value in plain_latencies + delta_latencies)


# -- count-history maintenance (micro) ----------------------------------------


def seed_record_count_history(history, snapshot, history_length):
    """The pre-deque implementation: rescan and slice every tag per tick."""
    for tag, count in snapshot.items():
        history.setdefault(tag, []).append(count)
    for tag in list(history):
        if tag not in snapshot:
            history[tag].append(0)
        if len(history[tag]) > history_length:
            del history[tag][: -history_length]


def test_count_history_deques_vs_seed_slicing():
    """Bounded deques vs the seed rescan-and-slice, same evolution.

    Every evaluation used to copy the key list and re-slice every tag's
    series; with deque(maxlen) the append is the whole trim.  Equivalence
    is asserted first over a tag population with churn (appearing and
    disappearing tags), then both maintenance loops are timed.
    """
    from repro.core.tracker import record_count_history

    tags = [f"tag{i:04d}" for i in range(2000)]
    rows = [
        {tag: (step + index) % 7 + 1
         for index, tag in enumerate(tags)
         if (step + index) % 3}          # a third of the tags churn out
        for step in range(48)
    ]
    history_length = 24

    lists: dict = {}
    deques: dict = {}
    for row in rows:
        seed_record_count_history(lists, row, history_length)
        record_count_history(deques, row, history_length)
    assert {tag: list(series) for tag, series in deques.items()} == lists

    def run_seed():
        history: dict = {}
        for row in rows:
            seed_record_count_history(history, row, history_length)

    def run_deques():
        history: dict = {}
        for row in rows:
            record_count_history(history, row, history_length)

    medians = interleaved_medians(
        [("rescan+slice (seed)", run_seed), ("bounded deques", run_deques)],
        rounds=5,
    )
    per_eval = {name: seconds / len(rows) * 1e6
                for name, seconds in medians.items()}
    print()
    print(format_table(
        [
            {"method": name, "us/evaluation": round(value, 1)}
            for name, value in per_eval.items()
        ],
        title=f"PERF-3 — count-history maintenance over {len(tags)} tags",
    ))
    assert medians["bounded deques"] < medians["rescan+slice (seed)"]


# -- indexed vs scanned candidate generation ---------------------------------


def _candidate_workload():
    """A tag-rich stream where the window holds far more pairs than any seed
    set touches — the regime the postings index exists for."""
    vocabulary = TagVocabulary(
        {"tail": [f"tag{i:04d}" for i in range(1200)]}
    )
    generator = SyntheticStreamGenerator(
        vocabulary=vocabulary, docs_per_step=300, tags_per_doc=(2, 4),
        step=HOUR, seed=47,
    )
    tracker = CorrelationTracker(window_horizon=24 * HOUR, min_pair_support=2)
    for batch in generator.iter_batches(24):
        tracker.observe_many(
            (doc.timestamp, doc.tags, ()) for doc in batch
        )
    seeds = [tag for tag, _ in tracker.tag_window.top_tags(15)]
    return tracker, seeds


def seed_scan_candidates(pair_counts, seeds, min_support):
    """The seed revision's candidate generation: scan every windowed pair."""
    seed_set = set(seeds)
    if not seed_set:
        return []
    candidates = []
    for pair, count in pair_counts.items():
        if count < min_support:
            continue
        if pair.first in seed_set:
            candidates.append((pair, pair.first))
        elif pair.second in seed_set:
            candidates.append((pair, pair.second))
    candidates.sort(key=lambda item: item[0])
    return candidates


def test_indexed_vs_scan_candidate_generation():
    """Seed-postings union vs the seed revision's full pair scan."""
    tracker, seeds = _candidate_workload()
    index = tracker.candidate_index
    # The seed revision kept a flat {pair: count} mapping; rebuild it so the
    # scan baseline pays exactly the cost it paid then.
    flat_counts = dict(index.items())
    assert tracker.candidate_pairs(seeds) \
        == seed_scan_candidates(flat_counts, seeds, index.min_support) \
        == index.scan_candidates(seeds)

    # Time what each pipeline actually runs per evaluation: the seed path
    # scanned and sorted every windowed pair; the new path unions the seed
    # postings unsorted (ordering is applied by the ranking, not here).
    repetitions = 200
    medians = interleaved_medians(
        [
            ("scan", lambda: [seed_scan_candidates(flat_counts, seeds,
                                                   index.min_support)
                              for _ in range(repetitions)]),
            ("indexed", lambda: [index.iter_candidates(seeds)
                                 for _ in range(repetitions)]),
        ],
        rounds=5,
    )
    scan_us = medians["scan"] / repetitions * 1e6
    indexed_us = medians["indexed"] / repetitions * 1e6
    print()
    print(format_table(
        [
            {"method": "scan (seed)", "us/evaluation": round(scan_us, 1)},
            {"method": "indexed", "us/evaluation": round(indexed_us, 1),
             "speedup": round(scan_us / indexed_us, 2)},
        ],
        title=f"PERF-1 — candidate generation over {len(index)} live pairs, "
              f"{len(seeds)} seeds",
    ))
    assert indexed_us < scan_us


# -- operator sharing and sketches (unchanged claims) ------------------------


def test_single_plan_throughput(benchmark, small_tweets):
    """Documents/second through normalizer -> entity tagging -> enBlogue."""

    def replay():
        engine = EnBlogue(live_config(name="throughput"))
        executor = PlanExecutor()
        source = DocumentStreamSource(small_tweets, source_name="twitter")
        executor.register(QueryPlan(
            "single", source,
            [TagNormalizerOperator(), EntityTaggingOperator()],
            engine.as_sink()))
        executor.run()
        return engine

    engine = benchmark(replay)
    assert engine.documents_processed == len(small_tweets)


def test_batched_plan_throughput(benchmark, small_tweets):
    """The same DAG replayed through the batch protocol (256-item chunks)."""

    def replay():
        engine = EnBlogue(live_config(name="throughput-batch"))
        executor = PlanExecutor()
        source = DocumentStreamSource(small_tweets, source_name="twitter")
        executor.register(QueryPlan(
            "batched", source,
            [TagNormalizerOperator(), EntityTaggingOperator()],
            engine.as_sink()))
        executor.run(batch_size=256)
        return engine

    engine = benchmark(replay)
    assert engine.documents_processed == len(small_tweets)


@pytest.mark.parametrize("plans", [1, 2, 4])
@pytest.mark.parametrize("shared", [True, False], ids=["shared", "unshared"])
def test_parallel_plans_with_and_without_sharing(benchmark, small_tweets, plans, shared):
    """N parameter settings over one stream: shared vs. private upstream operators."""

    def replay():
        executor = PlanExecutor()
        source = DocumentStreamSource(small_tweets, source_name="twitter")
        engines = []
        if shared:
            upstream = [
                executor.shared_operator("normalize", TagNormalizerOperator),
                executor.shared_operator("stats", StatisticsOperator),
                executor.shared_operator("entities", EntityTaggingOperator),
            ]
        for index in range(plans):
            engine = EnBlogue(live_config(
                name=f"plan-{index}", top_k=10,
                predictor="ewma" if index % 2 == 0 else "moving_average"))
            engines.append(engine)
            operators = upstream if shared else [
                TagNormalizerOperator(), StatisticsOperator(), EntityTaggingOperator(),
            ]
            executor.register(QueryPlan(f"plan-{index}", source, operators,
                                        engine.as_sink()))
        executor.run()
        return engines

    engines = benchmark.pedantic(replay, rounds=2, iterations=1)
    assert all(engine.documents_processed == len(small_tweets) for engine in engines)


def test_exact_vs_sketch_counting(benchmark, small_tweets):
    """Windowed tag counting: exact TagFrequencyWindow vs. Count-Min panes."""

    def count_with_both():
        exact = TagFrequencyWindow(24 * HOUR)
        sketch = WindowedCountMinSketch(horizon=24 * HOUR, panes=8, width=512, depth=4)
        for document in small_tweets:
            exact.add_document(document.timestamp, document.tags)
            for tag in document.tags:
                sketch.add(document.timestamp, tag)
        return exact, sketch

    exact, sketch = benchmark.pedantic(count_with_both, rounds=1, iterations=1)

    rows = []
    overestimates = []
    for tag, true_count in exact.top_tags(10):
        estimate = sketch.estimate(tag)
        overestimates.append(estimate - true_count)
        rows.append({"tag": tag, "exact": true_count, "count-min": estimate,
                     "overestimate": estimate - true_count})
    print()
    print(format_table(rows, title="PERF-1 — exact vs. Count-Min windowed counts "
                                   "(top-10 tags, last 24h)"))
    # The sketch never undercounts and stays close on the heavy hitters.
    assert all(delta >= 0 for delta in overestimates)
    assert max(overestimates) <= 0.2 * max(count for _, count in exact.top_tags(1))


# -- baseline recording ------------------------------------------------------


def _bench_docs():
    corpus, _ = TweetStreamGenerator(hours=24, tweets_per_hour=400,
                                     seed=43).generate()
    return list(corpus)


def _cpu_cores():
    # Sharded/checkpoint numbers are only meaningful relative to the cores
    # the recording machine actually had: on one core the process backend
    # can't beat the single engine by construction.
    return len(os.sched_getaffinity(0)) \
        if hasattr(os, "sched_getaffinity") else os.cpu_count()


def _measure_sharding_section(docs, rounds: int) -> dict:
    """The ``sharding`` section: scaling rows vs the single engine."""
    reference = ranking_signature(replay_batch(docs))
    for num_shards in (1, 2, 4):
        assert ranking_signature(replay_sharded(docs, num_shards, "serial")) \
            == reference
    assert ranking_signature(replay_sharded(docs, 4, "threads")) == reference
    assert ranking_signature(replay_sharded(docs, 4, "process")) == reference
    # The single engine runs inside the same interleaved rounds as the
    # sharded contestants so the recorded speedups compare like conditions
    # (interleaving exists to cancel machine drift between runners).
    sharded_medians = interleaved_medians(
        [
            ("single", lambda: replay_batch(docs)),
            ("serial-1", lambda: replay_sharded(docs, 1, "serial")),
            ("serial-2", lambda: replay_sharded(docs, 2, "serial")),
            ("serial-4", lambda: replay_sharded(docs, 4, "serial")),
            ("threads-4", lambda: replay_sharded(docs, 4, "threads")),
            ("process-4", lambda: replay_sharded(docs, 4, "process")),
        ],
        rounds=rounds,
    )
    return {
        "rankings_identical": True,
        "recorded": time.strftime("%Y-%m-%d"),
        "cpu_cores": _cpu_cores(),
        **{
            f"{name}_docs_per_s": round(len(docs) / seconds)
            for name, seconds in sharded_medians.items()
        },
        "threads_4_vs_single_speedup": round(
            sharded_medians["single"] / sharded_medians["threads-4"], 2),
        "process_4_vs_single_speedup": round(
            sharded_medians["single"] / sharded_medians["process-4"], 2),
    }


#: Evaluations timed per measurement round of the vectorized-evaluation
#: section (each advances stream time by one second, so state mutation is
#: realistic but the window barely moves across a whole measurement).
EVALUATION_REPETITIONS = 20


def _measure_evaluation_vectorized_section(rounds: int) -> dict:
    """The ``evaluation_vectorized`` section: scalar vs numpy-batched.

    Times ``evaluate_now`` — candidate sampling, shift scoring and top-k —
    on identically-ingested engines whose only difference is the
    evaluation path, at three candidate-set scales (the stream rate grows
    the windowed pair count, which grows the per-seed candidate set).
    Rankings are asserted bit-identical before anything is timed.
    """
    section = {
        "rankings_identical": True,
        "recorded": time.strftime("%Y-%m-%d"),
        "evaluations_per_round": EVALUATION_REPETITIONS,
    }
    for scale, rate in (("1x", 100), ("4x", 400), ("16x", 1600)):
        corpus, _ = TweetStreamGenerator(
            hours=24, tweets_per_hour=rate, seed=43
        ).generate()
        docs = list(corpus)
        scalar_engine = EnBlogue(
            throughput_config("eval-scalar"), vectorize=False)
        batched_engine = EnBlogue(
            throughput_config("eval-vectorized"), vectorize=True)
        assert scalar_engine.evaluation_path == "scalar"
        assert batched_engine.evaluation_path == "vectorized"
        scalar_engine.process_batch(docs)
        batched_engine.process_batch(docs)
        assert ranking_signature(scalar_engine) \
            == ranking_signature(batched_engine)

        clocks = {"scalar": docs[-1].timestamp,
                  "vectorized": docs[-1].timestamp}

        def evaluate(engine, name):
            timestamp = clocks[name]
            for _ in range(EVALUATION_REPETITIONS):
                timestamp += 1.0
                engine.evaluate_now(timestamp)
            clocks[name] = timestamp

        medians = interleaved_medians(
            [
                ("scalar", lambda: evaluate(scalar_engine, "scalar")),
                ("vectorized",
                 lambda: evaluate(batched_engine, "vectorized")),
            ],
            rounds=rounds,
        )
        candidates = len(batched_engine.tracker.candidate_index
                         .iter_candidates(batched_engine.current_seeds))
        scalar_us = medians["scalar"] / EVALUATION_REPETITIONS * 1e6
        vectorized_us = medians["vectorized"] / EVALUATION_REPETITIONS * 1e6
        section[f"scale_{scale}"] = {
            "tweets_per_hour": rate,
            "candidates_per_evaluation": candidates,
            "scalar_us_per_evaluation": round(scalar_us, 1),
            "vectorized_us_per_evaluation": round(vectorized_us, 1),
            "vectorized_vs_scalar_speedup": round(
                scalar_us / vectorized_us, 2),
        }
    return section


def _measure_checkpointing_section(docs, rounds: int) -> dict:
    """The ``checkpointing`` section: the docs/s cost of durability."""
    with tempfile.TemporaryDirectory() as raw_dir:
        directory = Path(raw_dir)
        assert ranking_signature(replay_batch_checkpointed(docs)) \
            == ranking_signature(
                replay_batch_checkpointed(docs, checkpoint_dir=directory))
        medians = interleaved_medians(
            [
                ("off", lambda: replay_batch_checkpointed(docs)),
                ("on", lambda: replay_batch_checkpointed(
                    docs, checkpoint_dir=directory)),
            ],
            rounds=rounds,
        )
        checkpoint_bytes = sum(
            path.stat().st_size for path in directory.iterdir()
        )
    checkpoints = (len(docs) // CHUNK_DOCS) // CHECKPOINT_EVERY
    return {
        "rankings_identical": True,
        "recorded": time.strftime("%Y-%m-%d"),
        "checkpoint_every_docs": CHECKPOINT_EVERY * CHUNK_DOCS,
        "checkpoints_per_replay": checkpoints,
        "checkpoint_bytes": checkpoint_bytes,
        "off_docs_per_s": round(len(docs) / medians["off"]),
        "on_docs_per_s": round(len(docs) / medians["on"]),
        # The replay-relative overhead is brutal by construction (a 24h
        # stream replays in ~100ms); the per-checkpoint milliseconds are
        # the number a deployment actually pays per cadence tick.
        "overhead_pct": round(
            (medians["on"] / medians["off"] - 1.0) * 100, 1),
        "checkpoint_ms": round(
            (medians["on"] - medians["off"]) / max(checkpoints, 1) * 1000, 1),
    }


def _measure_checkpointing_delta_section(docs, rounds: int) -> dict:
    """The ``checkpointing_delta`` section: journaled vs full durability.

    Same cadence as the ``checkpointing`` section (a checkpoint every
    CHECKPOINT_EVERY * CHUNK_DOCS documents), but the contestant writes a
    base plus journal segments.  Besides the docs/s comparison the section
    records that the delta-checkpointed rankings equal the plain replay's
    and that the final base+journal folds back into the live snapshot.
    """
    from repro.persistence import read_checkpoint

    with tempfile.TemporaryDirectory() as raw_dir:
        directory = Path(raw_dir)
        delta_engine = replay_batch_checkpointed(
            docs, checkpoint_dir=directory, mode="delta")
        assert ranking_signature(replay_batch_checkpointed(docs)) \
            == ranking_signature(delta_engine)
        # One extra segment covers the trailing partial chunk, so the
        # fold-back check compares like with like.
        delta_engine.save_delta_checkpoint(directory)
        _, merged = read_checkpoint(directory)
        assert merged == delta_engine.snapshot()
        medians = interleaved_medians(
            [
                ("off", lambda: replay_batch_checkpointed(docs)),
                ("on", lambda: replay_batch_checkpointed(
                    docs, checkpoint_dir=directory, mode="delta")),
            ],
            rounds=rounds,
        )
        # Base state files only — MANIFEST.json is chain metadata, not
        # snapshot payload.
        base_bytes = sum(
            path.stat().st_size
            for pattern in ("engine-*.json", "shard-*.json")
            for path in directory.glob(pattern))
        journal_bytes = sum(
            path.stat().st_size for path in directory.glob("*.delta"))
        segments = len(list(directory.glob("engine-*.delta")))
    checkpoints = (len(docs) // CHUNK_DOCS) // CHECKPOINT_EVERY
    return {
        "rankings_identical": True,
        "journal_restores_live_snapshot": True,
        "recorded": time.strftime("%Y-%m-%d"),
        "checkpoint_every_docs": CHECKPOINT_EVERY * CHUNK_DOCS,
        "full_every_ticks": FULL_EVERY,
        "checkpoints_per_replay": checkpoints,
        "journal_segments_per_replay": segments,
        "base_bytes": base_bytes,
        "journal_bytes": journal_bytes,
        "off_docs_per_s": round(len(docs) / medians["off"]),
        "on_docs_per_s": round(len(docs) / medians["on"]),
        "overhead_pct": round(
            (medians["on"] / medians["off"] - 1.0) * 100, 1),
        # +1: the replay also writes the chain's initial (near-empty)
        # base, so the total overhead spreads over checkpoints+1 writes.
        "checkpoint_ms": round(
            (medians["on"] - medians["off"]) / (checkpoints + 1) * 1000, 1),
    }


def _measure_serving_section(docs, rounds: int) -> dict:
    """The ``serving`` section: the asyncio layer vs the bare batch path.

    Records serving docs/s (free-running producer over the bounded queue)
    with and without a concurrent delta checkpoint cadence, plus the
    median ingest→ranking-push latency measured in lockstep (submit, wait
    for the frames).  Frames are asserted identical to the plain batch
    replay before anything is timed.
    """
    reference = ranking_signature(replay_batch(docs))
    engine, frames, _, _ = serve_replay(docs)
    assert ranking_signature(engine) == reference
    assert [
        (ranking.timestamp, [(topic.pair, topic.score) for topic in ranking])
        for ranking in frames
    ] == reference

    with tempfile.TemporaryDirectory() as raw_dir:
        directory = Path(raw_dir)
        medians = interleaved_medians(
            [
                ("replay", lambda: replay_batch(docs)),
                ("serve", lambda: serve_replay(docs)),
                ("serve-delta-ckpt", lambda: serve_replay(
                    docs, checkpoint_dir=directory)),
            ],
            rounds=rounds,
        )
        _, _, plain_latencies, _ = serve_replay(docs, lockstep=True)
        with tempfile.TemporaryDirectory() as latency_dir:
            _, _, ckpt_latencies, _ = serve_replay(
                docs, checkpoint_dir=Path(latency_dir), lockstep=True)
    return {
        "rankings_identical": True,
        "recorded": time.strftime("%Y-%m-%d"),
        "cpu_cores": _cpu_cores(),
        "chunk_docs": CHUNK_DOCS,
        "checkpoint_every_rankings": CHECKPOINT_EVERY,
        "replay_docs_per_s": round(len(docs) / medians["replay"]),
        "serve_docs_per_s": round(len(docs) / medians["serve"]),
        "serve_delta_ckpt_docs_per_s": round(
            len(docs) / medians["serve-delta-ckpt"]),
        "serve_vs_replay_overhead_pct": round(
            (medians["serve"] / medians["replay"] - 1.0) * 100, 1),
        "delta_ckpt_overhead_pct": round(
            (medians["serve-delta-ckpt"] / medians["serve"] - 1.0) * 100, 1),
        "push_latency_ms_p50": round(
            statistics.median(plain_latencies) * 1000, 2),
        "push_latency_ms_p50_with_delta_ckpt": round(
            statistics.median(ckpt_latencies) * 1000, 2),
    }


def _measure_observability_section(docs, rounds: int) -> dict:
    """The ``observability`` section: the docs/s cost of instrumentation.

    Rankings are asserted bit-identical with the full metrics+tracing
    layer enabled before anything is timed; the recorded overhead is held
    to the <=2% gate (plus the fixed sub-second-replay slack) — the same
    predicate ``test_observability_overhead_within_two_percent`` enforces
    in CI.
    """
    plain = replay_batch(docs)
    observed = replay_batch_observed(docs)
    assert ranking_signature(observed) == ranking_signature(plain)
    families = parse_prometheus_families(
        render_prometheus(observed.observability.registry))
    medians = interleaved_medians(
        [
            ("off", lambda: replay_batch(docs)),
            ("on", lambda: replay_batch_observed(docs)),
        ],
        rounds=rounds,
    )
    return {
        "rankings_identical": True,
        "recorded": time.strftime("%Y-%m-%d"),
        "metric_families": len(families),
        "off_docs_per_s": round(len(docs) / medians["off"]),
        "on_docs_per_s": round(len(docs) / medians["on"]),
        "overhead_pct": round(
            (medians["on"] / medians["off"] - 1.0) * 100, 1),
        "gate": "on <= off * 1.02 + 5ms",
        "within_gate": observability_within_gate(
            medians["on"], medians["off"]),
    }


def _measure_observability_profiling_section(docs, rounds: int) -> dict:
    """The ``observability_profiling`` section: profiler + logging cost.

    Four contestants replayed interleaved: no bundle, a disabled bundle
    (no-op singletons at every call site), the enabled bundle, and the
    enabled bundle with the 100Hz sampling profiler running.  Rankings
    are asserted bit-identical under the heaviest configuration before
    anything is timed; the recorded numbers are held to the same two
    gates ``test_profiling_and_logging_overhead_within_gate`` enforces.
    """
    plain = replay_batch(docs)
    profiled = replay_batch_profiled(docs)
    assert ranking_signature(profiled) == ranking_signature(plain)

    # One instrumented run counts what the subsystems actually did.
    observability = Observability()
    observability.profiler.start(interval=0.01)
    try:
        engine = EnBlogue(throughput_config("batch"),
                          observability=observability)
        engine.process_batch(docs)
        samples = observability.profiler.samples_total
        log_records = observability.log.sequence
    finally:
        observability.close()

    medians = interleaved_minima(
        [
            ("off", lambda: replay_batch(docs)),
            ("disabled", lambda: replay_batch_disabled(docs)),
            ("enabled", lambda: replay_batch_observed(docs)),
            ("profiled-100hz", lambda: replay_batch_profiled(docs)),
        ],
        rounds=rounds,
    )
    return {
        "rankings_identical": True,
        "recorded": time.strftime("%Y-%m-%d"),
        "profiler_hz": 100,
        "profiler_samples_per_replay": int(samples),
        "log_records_per_replay": int(log_records),
        "off_docs_per_s": round(len(docs) / medians["off"]),
        "disabled_docs_per_s": round(len(docs) / medians["disabled"]),
        "enabled_docs_per_s": round(len(docs) / medians["enabled"]),
        "profiled_docs_per_s": round(
            len(docs) / medians["profiled-100hz"]),
        "disabled_overhead_pct": round(
            (medians["disabled"] / medians["off"] - 1.0) * 100, 2),
        "profiled_overhead_pct": round(
            (medians["profiled-100hz"] / medians["enabled"] - 1.0) * 100, 2),
        "gates": "disabled <= off * 1.005 + 10ms; "
                 "profiled <= enabled * 1.05 + 10ms",
        "within_disabled_gate": profiling_disabled_within_gate(
            medians["disabled"], medians["off"]),
        "within_profiled_gate": profiling_enabled_within_gate(
            medians["profiled-100hz"], medians["enabled"]),
    }


# -- approximate tracking: the two-tier tracker at 100x cardinality ----------

#: Tag universe of the approximate-tracking workload: 100x the 1,200-tag
#: universe of the candidate-generation workload, so exact tracking pays
#: the quadratic pair blow-up the sketch tier exists to bound.
APPROXIMATE_TAGS = 120_000
APPROXIMATE_STEPS = 72
APPROXIMATE_THRESHOLDS = (2, 3, 4)
#: The promote-support row the acceptance gates are asserted on.
APPROXIMATE_HEADLINE_SUPPORT = 2


def _approximate_docs():
    """Deterministic high-cardinality synthetic stream (14,400 documents).

    A Zipf tail over 120,000 tags keeps most pairs cold — the regime where
    admission filtering pays — while the hourly step and three-day span
    give the engine ~71 evaluation boundaries to rank at.
    """
    vocabulary = TagVocabulary(
        {"tail": [f"tag{i:06d}" for i in range(APPROXIMATE_TAGS)]})
    generator = SyntheticStreamGenerator(
        vocabulary=vocabulary, docs_per_step=200, tags_per_doc=(2, 4),
        step=HOUR, seed=51)
    return [doc for batch in generator.iter_batches(APPROXIMATE_STEPS)
            for doc in batch]


def _approximate_config(name: str, promote_support: int = 0):
    overrides = dict(name=name, min_pair_support=5, num_seeds=15)
    if promote_support >= 2:
        overrides.update(tracking="tiered", promote_support=promote_support)
    return live_config(**overrides)


def _replay_approximate(docs, promote_support: int = 0, sample_every: int = 512):
    """Replay ``docs``; return ``(engine, peak live pairs, seconds)``.

    The peak is sampled between ``sample_every``-document chunks — live
    pairs rise and fall with window eviction, so the end-of-stream count
    alone would understate what the exact tracker had to hold.
    """
    engine = EnBlogue(_approximate_config(
        "approx-tiered" if promote_support >= 2 else "approx-exact",
        promote_support))
    peak = 0
    start = time.perf_counter()
    for begin in range(0, len(docs), sample_every):
        engine.process_batch(docs[begin:begin + sample_every])
        peak = max(peak, len(engine.tracker.candidate_index))
    return engine, peak, time.perf_counter() - start


def _topk_agreement(exact_engine, tiered_engine):
    """Micro-averaged (precision, recall) of tiered top-k vs exact top-k."""
    exact_total = tiered_total = intersection = 0
    for exact_ranking, tiered_ranking in zip(
            exact_engine.ranking_history(), tiered_engine.ranking_history()):
        exact_pairs = {topic.pair for topic in exact_ranking}
        tiered_pairs = {topic.pair for topic in tiered_ranking}
        exact_total += len(exact_pairs)
        tiered_total += len(tiered_pairs)
        intersection += len(exact_pairs & tiered_pairs)
    recall = intersection / exact_total if exact_total else 1.0
    precision = intersection / tiered_total if tiered_total else 1.0
    return precision, recall


def _tracker_state_bytes(engine):
    """``(pair-specific bytes, total bytes)`` of the tracker's JSON snapshot.

    Pair-specific state — pair events, the candidate index, pair histories,
    plus the sketch tier when present — is what admission filtering bounds;
    tag-level state (tag window, count history) scales with the tag
    population identically in both modes.
    """
    tracker = engine.snapshot()["tracker"]
    pair_bytes = sum(len(json.dumps(tracker[part]))
                     for part in ("pair_events", "candidates", "histories"))
    if tracker.get("tier") is not None:
        pair_bytes += len(json.dumps(tracker["tier"]))
    return pair_bytes, len(json.dumps(tracker))


def _approximate_resume_identical(docs, reference_engine, promote_support):
    """Checkpoint a tiered 2-shard replay mid-stream, resume into 4 shards.

    Returns whether the resumed rankings match the uninterrupted single
    tiered engine's — which covers both the sharded/single parity and the
    N->M re-partitioning of the coordinator-owned tier state.
    """
    half = len(docs) // 2
    config = _approximate_config("approx-tiered", promote_support)
    with tempfile.TemporaryDirectory() as raw_dir:
        first = ShardedEnBlogue(config, num_shards=2, backend="serial")
        try:
            first.process_batch(docs[:half])
            first.save_checkpoint(raw_dir)
        finally:
            first.close()
        resumed, _ = load_engine(raw_dir, num_shards=4)
        try:
            resumed.process_batch(docs[half:])
            return ranking_signature(resumed) \
                == ranking_signature(reference_engine)
        finally:
            resumed.close()


def test_tiered_tracking_meets_approximate_gates():
    """The acceptance gates of the two-tier tracker, on the 100x stream.

    At the headline threshold the tier must cut the exact tracker's peak
    live-pair count by >= 5x while keeping >= 0.9 recall of the exact
    top-k — including across a mid-stream checkpoint and a 2->4 shard
    resume.  Everything here is deterministic (synthetic stream, blake2b
    hashing), so the gate cannot flake with machine load.
    """
    docs = _approximate_docs()
    exact_engine, exact_peak, _ = _replay_approximate(docs)
    tiered_engine, tiered_peak, _ = _replay_approximate(
        docs, APPROXIMATE_HEADLINE_SUPPORT)
    precision, recall = _topk_agreement(exact_engine, tiered_engine)
    reduction = exact_peak / tiered_peak
    print()
    print(format_table(
        [
            {"tracking": "exact", "peak live pairs": exact_peak,
             "precision": 1.0, "recall": 1.0},
            {"tracking": f"tiered K={APPROXIMATE_HEADLINE_SUPPORT}",
             "peak live pairs": tiered_peak,
             "precision": round(precision, 3), "recall": round(recall, 3)},
        ],
        title=f"PERF-3 — two-tier tracking over {APPROXIMATE_TAGS} tags "
              f"({reduction:.1f}x live-pair reduction)",
    ))
    assert reduction >= 5.0
    assert recall >= 0.9
    assert _approximate_resume_identical(
        docs, tiered_engine, APPROXIMATE_HEADLINE_SUPPORT)


def _measure_approximate_section(rounds: int) -> dict:
    """The ``approximate`` section: memory/accuracy of the sketch tier.

    One exact and three tiered replays of the 100x-cardinality stream,
    recording peak live pairs, snapshot state size, top-k agreement and
    tier counters per promote-support threshold; ingest rates come from
    interleaved timing of the exact and headline contestants.  The
    headline gates (>= 5x live-pair reduction at >= 0.9 recall, rankings
    preserved across a mid-stream 2->4 shard resume) are asserted before
    the section is returned, so a recorded baseline always satisfies them.
    """
    docs = _approximate_docs()
    exact_engine, exact_peak, _ = _replay_approximate(docs)
    exact_pair_bytes, exact_total_bytes = _tracker_state_bytes(exact_engine)
    section = {
        "recorded": time.strftime("%Y-%m-%d"),
        "workload": {
            "stream": "SyntheticStreamGenerator(120000-tag Zipf tail, "
                      "docs_per_step=200, tags_per_doc=(2, 4), step=1h, "
                      "seed=51) x 72 steps",
            "documents": len(docs),
            "tags": APPROXIMATE_TAGS,
            "config": "live_config(min_pair_support=5, num_seeds=15)",
            "evaluations": len(exact_engine.ranking_history()),
        },
        "exact": {
            "peak_live_pairs": exact_peak,
            "pair_state_kb": round(exact_pair_bytes / 1024),
            "tracker_state_kb": round(exact_total_bytes / 1024),
        },
    }
    headline_engine = None
    headline_row = None
    for support in APPROXIMATE_THRESHOLDS:
        tiered_engine, tiered_peak, _ = _replay_approximate(docs, support)
        precision, recall = _topk_agreement(exact_engine, tiered_engine)
        pair_bytes, total_bytes = _tracker_state_bytes(tiered_engine)
        tier = tiered_engine.tracker.tier
        row = {
            "peak_live_pairs": tiered_peak,
            "live_pair_reduction": round(exact_peak / tiered_peak, 1),
            "pair_state_kb": round(pair_bytes / 1024),
            "tracker_state_kb": round(total_bytes / 1024),
            "precision": round(precision, 3),
            "recall": round(recall, 3),
            "promotions": tier.promotions,
            "filtered": tier.filtered,
        }
        section[f"promote_support_{support}"] = row
        if support == APPROXIMATE_HEADLINE_SUPPORT:
            headline_engine = tiered_engine
            headline_row = row

    medians = interleaved_medians(
        [
            ("exact", lambda: _replay_approximate(docs)),
            ("tiered", lambda: _replay_approximate(
                docs, APPROXIMATE_HEADLINE_SUPPORT)),
        ],
        rounds=rounds,
    )
    section["exact"]["docs_per_s"] = round(len(docs) / medians["exact"])
    headline_row["docs_per_s"] = round(len(docs) / medians["tiered"])

    resume_identical = _approximate_resume_identical(
        docs, headline_engine, APPROXIMATE_HEADLINE_SUPPORT)
    section["headline"] = {
        "promote_support": APPROXIMATE_HEADLINE_SUPPORT,
        "live_pair_reduction": headline_row["live_pair_reduction"],
        "recall": headline_row["recall"],
        "resume_rankings_identical": resume_identical,
        "gate": "reduction >= 5x, recall >= 0.9, rankings preserved "
                "across a 2->4 shard mid-stream resume",
    }
    assert headline_row["live_pair_reduction"] >= 5.0
    assert headline_row["recall"] >= 0.9
    assert resume_identical
    return section


def replay_supervised(docs, plan=None, observability=None):
    """The batch replay through the self-healing supervised threads pool.

    ``plan`` scripts worker deaths mid-stream (a fresh plan per run — the
    occurrence counters are stateful); the near-zero backoff base keeps
    the measured dip the *recovery* cost, not configured sleeping.
    """
    backend = SupervisedBackend(
        ThreadBackend(),
        policy=RetryPolicy(max_retries=3, backoff_base=0.001),
    )
    if plan is not None:
        backend.bind_fault_plan(plan)
    engine = ShardedEnBlogue(
        throughput_config("batch"), num_shards=2, backend=backend,
        observability=observability,
    )
    try:
        engine.process_batch(docs)
    finally:
        engine.close()
    return engine


def _measure_fault_recovery_section(docs, rounds: int) -> dict:
    """The ``fault_recovery`` section: the docs/s cost of losing a worker.

    A scripted kill takes one of two shard workers down mid-stream; the
    supervisor rebuilds it from base + operation-log replay.  Rankings
    are asserted bit-identical to the undisturbed replay before anything
    is timed — recovery is exact, the only price is wall clock.
    """
    reference = ranking_signature(replay_batch(docs))
    faulted = replay_supervised(
        docs, plan=FaultPlan().kill_worker(1, after_batches=2))
    assert ranking_signature(faulted) == reference
    assert faulted.supervision_info()["recoveries"] == 1

    medians = interleaved_medians(
        [
            ("supervised", lambda: replay_supervised(docs)),
            ("supervised-faulted", lambda: replay_supervised(
                docs, plan=FaultPlan().kill_worker(1, after_batches=2))),
        ],
        rounds=rounds,
    )

    # One instrumented run reads the recovery latency off the histogram
    # the supervisor feeds (the same family /metrics scrapes).
    observability = Observability()
    replay_supervised(
        docs, plan=FaultPlan().kill_worker(1, after_batches=2),
        observability=observability,
    )
    histogram = observability.registry.histogram(
        "repro_sharding_recovery_seconds")
    recoveries = max(1, int(histogram.count))

    return {
        "rankings_identical": True,
        "recorded": time.strftime("%Y-%m-%d"),
        "cpu_cores": _cpu_cores(),
        "shards": 2,
        "backend": "supervised[threads]",
        "fault": "kill worker 1 after its 2nd ingest dispatch",
        "supervised_docs_per_s": round(len(docs) / medians["supervised"]),
        "faulted_docs_per_s": round(
            len(docs) / medians["supervised-faulted"]),
        "recovery_dip_pct": round(
            (medians["supervised-faulted"] / medians["supervised"] - 1.0)
            * 100, 1),
        "recovery_ms_mean": round(
            histogram.sum / recoveries * 1000, 2),
        "recoveries_per_run": recoveries,
    }


def update_sections(sections, rounds: int = 3) -> dict:
    """Re-record only ``sections`` of an existing ``BENCH_throughput.json``.

    CI uses ``sharding`` and ``checkpointing_delta`` here: the full
    baseline was recorded in a 1-core container where the process backend
    can only lose, so the scaling rows are refreshed on the multi-core CI
    runner and uploaded as an artifact alongside the journaled-durability
    numbers.
    """
    baseline = json.loads(BASELINE_PATH.read_text())
    docs = _bench_docs()
    for section in sections:
        if section == "sharding":
            baseline["sharding"] = _measure_sharding_section(docs, rounds)
        elif section == "checkpointing":
            baseline["checkpointing"] = _measure_checkpointing_section(
                docs, rounds)
        elif section == "checkpointing_delta":
            baseline["checkpointing_delta"] = \
                _measure_checkpointing_delta_section(docs, rounds)
        elif section == "serving":
            baseline["serving"] = _measure_serving_section(docs, rounds)
        elif section == "evaluation_vectorized":
            baseline["evaluation_vectorized"] = \
                _measure_evaluation_vectorized_section(rounds)
        elif section == "observability":
            baseline["observability"] = _measure_observability_section(
                docs, rounds)
        elif section == "observability_profiling":
            baseline["observability_profiling"] = \
                _measure_observability_profiling_section(docs, rounds)
        elif section == "approximate":
            baseline["approximate"] = _measure_approximate_section(rounds)
        elif section == "fault_recovery":
            baseline["fault_recovery"] = _measure_fault_recovery_section(
                docs, rounds)
        else:
            raise SystemExit(f"unknown section {section!r}")
    BASELINE_PATH.write_text(json.dumps(baseline, indent=2) + "\n")
    return baseline


def record_baseline(rounds: int = 9) -> dict:
    """Measure the machine baseline and write ``BENCH_throughput.json``."""
    docs = _bench_docs()
    assert ranking_signature(replay_seed_path(docs)) \
        == ranking_signature(replay_single(docs)) \
        == ranking_signature(replay_batch(docs))

    medians = interleaved_medians(
        [
            ("seed-path", lambda: replay_seed_path(docs)),
            ("single", lambda: replay_single(docs)),
            ("batch", lambda: replay_batch(docs)),
        ],
        rounds=rounds,
    )

    tracker, seeds = _candidate_workload()
    index = tracker.candidate_index
    flat_counts = dict(index.items())
    assert tracker.candidate_pairs(seeds) \
        == seed_scan_candidates(flat_counts, seeds, index.min_support)
    repetitions = 200
    candidate_medians = interleaved_medians(
        [
            ("scan", lambda: [seed_scan_candidates(flat_counts, seeds,
                                                   index.min_support)
                              for _ in range(repetitions)]),
            ("indexed", lambda: [index.iter_candidates(seeds)
                                 for _ in range(repetitions)]),
        ],
        rounds=5,
    )

    baseline = {
        "benchmark": "PERF-1 throughput",
        "recorded": time.strftime("%Y-%m-%d"),
        "workload": {
            "stream": "TweetStreamGenerator(hours=24, tweets_per_hour=400, seed=43)",
            "documents": len(docs),
            "config": "live_config(min_pair_support=5, num_seeds=15)",
            "rounds": rounds,
            "cpu_cores": _cpu_cores(),
        },
        "ingestion": {
            "seed_path_docs_per_s": round(len(docs) / medians["seed-path"]),
            "single_docs_per_s": round(len(docs) / medians["single"]),
            "batch_docs_per_s": round(len(docs) / medians["batch"]),
            "batch_vs_seed_speedup": round(
                medians["seed-path"] / medians["batch"], 2),
            "rankings_identical": True,
        },
        "candidate_generation": {
            "live_pairs": len(index),
            "seeds": len(seeds),
            "scan_us_per_evaluation": round(
                candidate_medians["scan"] / repetitions * 1e6, 1),
            "indexed_us_per_evaluation": round(
                candidate_medians["indexed"] / repetitions * 1e6, 1),
            "indexed_vs_scan_speedup": round(
                candidate_medians["scan"] / candidate_medians["indexed"], 2),
        },
        "sharding": _measure_sharding_section(docs, max(3, rounds // 3)),
        "checkpointing": _measure_checkpointing_section(
            docs, max(3, rounds // 3)),
        "checkpointing_delta": _measure_checkpointing_delta_section(
            docs, max(3, rounds // 3)),
        "serving": _measure_serving_section(docs, max(3, rounds // 3)),
        "evaluation_vectorized": _measure_evaluation_vectorized_section(
            max(3, rounds // 3)),
        "observability": _measure_observability_section(
            docs, max(3, rounds // 3)),
        "observability_profiling": _measure_observability_profiling_section(
            docs, max(3, rounds // 3)),
        "approximate": _measure_approximate_section(max(3, rounds // 3)),
        "fault_recovery": _measure_fault_recovery_section(
            docs, max(3, rounds // 3)),
    }
    BASELINE_PATH.write_text(json.dumps(baseline, indent=2) + "\n")
    return baseline


if __name__ == "__main__":
    arguments = argparse.ArgumentParser(
        description="record the machine baseline in BENCH_throughput.json")
    arguments.add_argument(
        "--section", action="append",
        choices=("sharding", "checkpointing", "checkpointing_delta",
                 "serving", "evaluation_vectorized", "observability",
                 "observability_profiling", "approximate", "fault_recovery"),
        help="re-record only this section of the existing baseline "
             "(repeatable); default: record everything")
    arguments.add_argument("--rounds", type=int, default=None,
                           help="interleaved measurement rounds")
    parsed = arguments.parse_args()
    if parsed.section:
        recorded = update_sections(parsed.section, rounds=parsed.rounds or 3)
        print(json.dumps(recorded, indent=2))
    else:
        recorded = record_baseline(rounds=parsed.rounds or 9)
        print(json.dumps(recorded, indent=2))
        speedup = recorded["ingestion"]["batch_vs_seed_speedup"]
        if speedup < 1.5:
            raise SystemExit(
                f"batch path speedup {speedup} below the 1.5x target")
