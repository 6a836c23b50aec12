"""Instrumentation overhead gates on the 24h heavy-traffic tweet stream.

Two contracts of the observability layer, each checked results-first
(the instrumented replay must rank exactly like the plain one) and then
timed in interleaved rounds so machine noise spreads over every
contestant:

* full instrumentation (metrics, tracing, logs, SLOs) costs at most 2%
  over the uninstrumented batch replay, and
* a bundle built with ``enabled=False`` costs at most 0.5% over no bundle,
  while the 100Hz sampling profiler plus structured logging costs at most
  5% over plain enabled instrumentation.

Each bound carries a fixed absolute slack: the replay finishes in about
100ms, where one scheduler hiccup is a multi-percent swing.  Run with
``PYTHONPATH=src python -m pytest benchmarks/bench_overhead.py
--benchmark-disable -s`` to see the tables.
"""

from __future__ import annotations

import statistics
import time

import pytest

from benchmarks.conftest import live_config
from repro.core.engine import EnBlogue
from repro.datasets.twitter import TweetStreamGenerator
from repro.evaluation.reporting import format_table
from repro.observability import (
    Observability,
    parse_prometheus_families,
    render_prometheus,
)


@pytest.fixture(scope="module")
def heavy_tweets():
    """The 24h twitter stream at heavy-traffic rate for the batching claims."""
    corpus, _ = TweetStreamGenerator(hours=24, tweets_per_hour=400, seed=43).generate()
    return list(corpus)


def throughput_config(name: str):
    """Configuration of the heavy-traffic replays.

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
    """The profiling gates: disabled <=0.5% over bare, profiled <=5% over enabled.

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
