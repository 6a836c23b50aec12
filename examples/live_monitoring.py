#!/usr/bin/env python
"""Show case 2: live monitoring of merged Twitter + RSS streams with push updates.

Builds the full demo architecture in process:

  twitter source ─┐
  rss feed 1     ─┼─ merged, time-ordered ─ tag normalizer ─ entity tagging
  rss feed 2     ─┘                                                │
                          detection service (enBlogue + push) ◄────┘
                                          │
                   subscribed laptop and smartphone clients (no polling)

and replays three days of synthetic live data, showing how the ranking
evolves and how the audience-injected "SIGMOD + Athens" topic climbs into
the top positions while both subscribers receive every update by push —
the same fan-out that ``GET /rankings/stream`` serves over HTTP.

Run with:  python examples/live_monitoring.py
"""

from __future__ import annotations

import asyncio

from repro import DetectionService, EnBlogue, TagPair, live_stream_config
from repro.datasets import RssFeedGenerator, TweetStreamGenerator
from repro.entity import EntityTaggingOperator
from repro.streams import (
    CollectorSink,
    DocumentStreamSource,
    MergedSource,
    QueryPlan,
    PlanExecutor,
    StatisticsOperator,
    TagNormalizerOperator,
)

HOUR = 3600.0
CHUNK = 64  # documents per submitted batch


async def serve(engine, documents):
    """Serve the documents; return what each subscribed client received."""
    service = DetectionService(engine)
    await service.start()
    clients = {"laptop": service.subscribe(), "smartphone": service.subscribe()}

    async def receive(subscription):
        return [message.payload async for message in subscription]

    readers = [asyncio.ensure_future(receive(s)) for s in clients.values()]
    for start in range(0, len(documents), CHUNK):
        await service.submit(documents[start:start + CHUNK])
    await service.stop()
    received = dict(zip(clients, await asyncio.gather(*readers)))
    assert all(s.dropped == 0 for s in clients.values())
    print(f"\nservice status: {service.status()['rankings_published']} "
          f"rankings published to {len(clients)} subscribers")
    return received


def main() -> None:
    # 1. Data sources: one tweet stream plus the default RSS feed line-up.
    tweets, events = TweetStreamGenerator(hours=72, tweets_per_hour=40).generate()
    feeds = RssFeedGenerator(hours=72, posts_per_hour=5).generate_all()
    sources = [DocumentStreamSource(tweets, source_name="twitter")]
    for name, corpus in feeds.items():
        sources.append(DocumentStreamSource(corpus, source_name=name))
    merged = MergedSource(sources, name="live-feeds")
    print(f"sources: twitter ({len(tweets)} posts) + "
          f"{len(feeds)} RSS feeds ({sum(len(c) for c in feeds.values())} posts)")

    # 2. The operator DAG: shared normalizer / statistics / entity tagging in
    #    front of the detection engine, exactly as in Section 4.1.
    executor = PlanExecutor()
    collector = CollectorSink()
    plan = QueryPlan(
        "live-monitoring",
        merged,
        [
            executor.shared_operator("normalize", TagNormalizerOperator),
            executor.shared_operator("statistics", StatisticsOperator),
            executor.shared_operator("entities", EntityTaggingOperator),
        ],
        collector,
    )
    executor.register(plan)
    print(executor.describe())
    executor.run()

    # 3. The detection service: two clients subscribe and receive pushed
    #    updates while the plan's output is ingested.
    engine = EnBlogue(live_stream_config())
    received = asyncio.run(serve(engine, collector.items))

    # 4. What the connected clients saw.
    laptop = received["laptop"]
    print(f"laptop session received {len(laptop)} ranking updates; "
          f"latest view:")
    print(laptop[-1].describe(k=5))

    sigmod = TagPair("sigmod", "athens")
    trajectory = [
        (round(r.timestamp / HOUR), r.position_of(sigmod))
        for r in engine.ranking_history()
        if r.position_of(sigmod) is not None
    ]
    if trajectory:
        first_hour, first_rank = trajectory[0]
        best_rank = min(rank for _, rank in trajectory)
        print(f"\nthe injected {sigmod} topic entered the ranking at hour "
              f"{first_hour} (rank {first_rank + 1}) and peaked at rank {best_rank + 1}")
    else:
        print(f"\nthe injected {sigmod} topic never entered the top-10")

    # The smartphone got exactly the same pushes - "we in particular also
    # support (mobile) smartphone users receiving continuous updates".
    assert received["smartphone"] == laptop == engine.ranking_history()


if __name__ == "__main__":
    main()
