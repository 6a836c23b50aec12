"""SC-2: Show case 2 — live data with the audience-injected SIGMOD topic.

The demo consumes live Twitter and RSS streams, offers a time-lapse view
over the past couple of days, and invites the audience to push a
"SIGMOD + Athens" topic into the ranking.  The benchmark merges the
synthetic tweet stream with the synthetic RSS feeds through the stream
engine, serves the plan's output through the detection service to a
connected subscriber, prints how the ranking evolves, and tracks the
rank trajectory of the injected SIGMOD/Athens topic.
"""

from __future__ import annotations

import asyncio

from benchmarks.conftest import HOUR, live_config
from repro.core.engine import EnBlogue
from repro.core.types import TagPair
from repro.datasets.rss import RssFeedGenerator
from repro.evaluation.ground_truth import GroundTruthMatcher
from repro.evaluation.reporting import format_series, format_table
from repro.serving import DetectionService
from repro.streams.operators import CollectorSink, TagNormalizerOperator
from repro.streams.plan import PlanExecutor, QueryPlan
from repro.streams.sources import DocumentStreamSource, MergedSource

#: Documents per submitted batch: a group of queued batches then spans a
#: few hours of stream, far fewer rankings than a subscriber buffers.
CHUNK = 64


async def serve(engine, documents):
    """Submit ``documents`` to a service; return the subscriber's frames."""
    service = DetectionService(engine)
    await service.start()
    subscription = service.subscribe()

    async def collect():
        return [message async for message in subscription]

    reader = asyncio.ensure_future(collect())
    for start in range(0, len(documents), CHUNK):
        await service.submit(documents[start:start + CHUNK])
    await service.stop()
    frames = await reader
    assert subscription.dropped == 0
    return frames


def replay_live(tweets):
    """Merge tweets + RSS feeds and serve them through engine + push."""
    feeds = RssFeedGenerator(hours=72, posts_per_hour=5, seed=37).generate_all()
    sources = [DocumentStreamSource(tweets, source_name="twitter")]
    for name, corpus in feeds.items():
        sources.append(DocumentStreamSource(corpus, source_name=name))
    merged = MergedSource(sources, name="live-feeds")

    collector = CollectorSink()
    executor = PlanExecutor()
    executor.register(QueryPlan(
        "live-monitoring", merged, [TagNormalizerOperator()], collector))
    executor.run()

    engine = EnBlogue(live_config(name="live"))
    frames = asyncio.run(serve(engine, collector.items))
    return engine, frames


def test_showcase2_live_monitoring(benchmark, tweet_stream):
    tweets, schedule = tweet_stream
    engine, frames = benchmark.pedantic(
        replay_live, args=(tweets,), rounds=1, iterations=1)

    rankings = engine.ranking_history()
    sigmod = next(e for e in schedule if e.name == "sigmod-athens")
    pair = TagPair.from_tuple(sigmod.pair)

    # Rank trajectory of the injected topic (the audience experiment).
    trajectory = []
    for ranking in rankings:
        position = ranking.position_of(pair)
        trajectory.append(float(position) if position is not None else float("nan"))
    hours = [round(r.timestamp / HOUR, 1) for r in rankings]
    print()
    print(format_series(
        {"rank of (athens, sigmod)": [
            t if t == t else -1.0 for t in trajectory]},  # NaN -> -1 (absent)
        x_values=hours,
        title="Show case 2 — rank of the injected SIGMOD/Athens topic "
              "(-1 = not in ranking, x = hours)",
        precision=0,
    ))

    # Snapshot rankings at a few points of the time-lapse view.
    rows = []
    for fraction in (0.25, 0.5, 0.75, 1.0):
        ranking = rankings[min(len(rankings) - 1, int(fraction * len(rankings)) - 1)]
        rows.append({
            "hour": round(ranking.timestamp / HOUR, 1),
            "top-1": str(ranking[0].pair) if len(ranking) > 0 else None,
            "top-2": str(ranking[1].pair) if len(ranking) > 1 else None,
            "top-3": str(ranking[2].pair) if len(ranking) > 2 else None,
        })
    print()
    print(format_table(rows, title="Time-lapse view of the evolving ranking"))

    print(f"\npush: {len(frames)} ranking updates pushed to the demo "
          f"browser's subscription without polling")

    # -- shape assertions -----------------------------------------------------------
    matcher = GroundTruthMatcher(schedule, k=10)
    outcomes = {o.event.name: o for o in matcher.outcomes(rankings)}
    assert outcomes["sigmod-athens"].detected
    assert outcomes["sigmod-athens"].latency <= 12 * HOUR
    best_rank = outcomes["sigmod-athens"].best_rank
    assert best_rank is not None and best_rank < 5
    # The push layer delivered every ranking to the connected subscriber.
    assert [message.payload for message in frames] == rankings
