"""The async serving layer: live ingestion, ranking push, checkpointing.

The paper's premise is *live* emergent-topic detection — a ranking is
only useful while the shift is happening — and this package is what turns
the batch-replay engines into a servable system:

* :class:`~repro.serving.service.DetectionService` — a bounded ingest
  queue with backpressure, one consumer task draining micro-batches into
  ``process_batch`` on a single-thread executor (the event loop never
  blocks on the process backend), the global ranking and one personalised
  ranking per registered user published on the fan-out, and an optional
  :class:`~repro.persistence.cadence.CheckpointCadence` persisting the
  engine between batches as base + journal (a tick costs one segment
  sized by the new documents).
* :class:`~repro.serving.broadcast.AsyncFanout` /
  :class:`~repro.serving.broadcast.Subscription` — the one push path:
  channels of frames, each fanned out to per-subscriber bounded buffers
  that SSE handlers and in-process consumers await (slow consumers drop
  oldest frames, never grow without bound).
* :class:`~repro.serving.http.RankingServer` — ``POST /ingest``,
  ``GET /rankings``, ``GET /rankings/stream[?user=U]`` (SSE), ``GET /status``
  (with per-shard health; 503 when a shard worker is dead),
  ``GET /metrics`` (Prometheus text) and ``GET /trace`` (NDJSON span
  trees) on asyncio's stdlib primitives.

``POST /ingest`` is the one way documents reach a served engine; a
producer is paced by the queue's bound through its withheld responses.
The serving path replays the exact batch sequence through the same
``process_batch`` the CLI uses, so served rankings are bit-identical to
an offline replay of the same stream — pinned by ``tests/serving``.
Reach it from the command line via ``python -m repro.cli serve``.
"""

from repro.serving.broadcast import AsyncFanout, Subscription
from repro.serving.http import IngestDocument, RankingServer, parse_ingest_body
from repro.serving.service import (
    DetectionService,
    ServiceClosedError,
    ServingStats,
)

__all__ = [
    "AsyncFanout",
    "Subscription",
    "DetectionService",
    "ServiceClosedError",
    "ServingStats",
    "RankingServer",
    "IngestDocument",
    "parse_ingest_body",
]
