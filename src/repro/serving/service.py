"""The asyncio serving core: bounded ingest, one consumer, ranking push.

:class:`DetectionService` wraps a detection engine (single or sharded)
behind an event loop:

* **Ingest** is a bounded :class:`asyncio.Queue` of document batches.
  ``await submit(batch)`` blocks the producer when shard dispatch falls
  behind — backpressure, not buffering without bound.
* **One consumer task** hands batches to ``engine.process_batch`` via a
  single-thread executor, so the loop never blocks on the process backend
  and the engine is only ever touched from that one worker thread (the
  engines are not thread-safe; serialization through the executor is the
  whole synchronisation story).  The consumer **group-commits**: after
  taking one batch it also takes every batch already waiting,
  concatenates them in arrival order and makes one executor hop, one
  engine call, one publish loop, one cadence decision and one SLO tick
  for the group.  That is safe because ``process_batch`` is
  chunking-invariant (rankings and snapshots are bit-identical under any
  chunking of the stream) and every batch was validated at ``submit``;
  the frames of a group are published when the group returns.  There is
  no knob: a group is whatever the queue holds, an idle server sees
  groups of one through the same path, and accepted-but-unprocessed
  batches never exceed ``2 × queue_capacity`` (one group inside the
  engine, one full queue behind it).  A group the engine *rejects* has
  changed nothing (``process_batch`` validates before touching state
  and raises ``ValueError``), so it is replayed batch by batch and a
  poisoned batch costs only itself; any other failure is recorded for
  the whole group and nothing is re-fed.
* **Ranking push**: every ranking a batch produces is published on the
  global channel of :class:`~repro.serving.broadcast.AsyncFanout`, and
  its personalisation for each profile registered through
  :meth:`DetectionService.register_user` on that user's channel — SSE
  handlers and in-process consumers just await frames.  The personalised
  rankings are computed in the same executor hop as ``process_batch``
  (the engine is only touched from that thread).  Profiles live in the
  engine's personalization component and are not checkpointed.
* **Checkpointing** rides the same loop: a
  :class:`~repro.persistence.cadence.CheckpointCadence` writes its base
  when the service starts and appends journal segments on the engine
  executor between engine calls, so a snapshot never observes a
  half-ingested batch and ingestion keeps accepting documents (into the
  queue) while the segment fsyncs.

Because the consumer feeds the exact document sequence through the same
``process_batch`` the offline CLI uses, the rankings pushed to
subscribers are **bit-identical** to a batch replay of the same document
stream — the property the serving test-suite pins for shards 1/2 on both
backends.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
from itertools import chain
from typing import List, Optional, Sequence, Tuple

from repro.core.engine import require_stream_time
from repro.core.personalization import UserProfile
from repro.observability import Observability
from repro.persistence.cadence import CheckpointCadence
from repro.serving.broadcast import (
    DEFAULT_BUFFER_LIMIT,
    GLOBAL_CHANNEL,
    AsyncFanout,
    Subscription,
    user_channel,
)
from repro.sharding.backends import ShardExecutionError

#: Default bound of the ingest queue, in batches (not documents): small
#: enough that a stalled shard backend pushes back on producers within a
#: few chunks, large enough to keep the consumer busy between awaits.
DEFAULT_QUEUE_CAPACITY = 8


class ServiceClosedError(RuntimeError):
    """Submit after ``stop()``: the batch could never reach a shard."""


class ServingStats:
    """Operational counters, updated on the event-loop thread.

    The counters live in a metrics registry, so ``GET /status`` (which
    reads these attributes) and ``GET /metrics`` (which scrapes the
    registry) can never disagree — there is one set of numbers.  Reads
    keep the old dataclass surface (``stats.rankings_published`` is an
    ``int``); writes go through :meth:`add`/:meth:`set_max`.
    Restored registries carry these forward, so a resumed server's
    counters continue monotonically.
    """

    #: Attribute name → counter family backing it.
    _COUNTERS = {
        "documents_submitted": "repro_serving_documents_submitted_total",
        "batches_submitted": "repro_serving_batches_submitted_total",
        "documents_processed": "repro_serving_documents_processed_total",
        "batches_processed": "repro_serving_batches_processed_total",
        "rankings_published": "repro_serving_rankings_published_total",
        "batch_errors": "repro_serving_batch_errors_total",
        "publish_errors": "repro_serving_publish_errors_total",
    }

    #: Attribute name → gauge family backing it (absolute values).
    _GAUGES = {
        "queue_high_watermark": "repro_serving_queue_high_watermark",
    }

    def __init__(self, registry=None):
        if registry is None:
            registry = Observability().registry
        self._counters = {
            attr: registry.counter(name)
            for attr, name in self._COUNTERS.items()
        }
        self._gauges = {
            attr: registry.gauge(name)
            for attr, name in self._GAUGES.items()
        }
        self.last_error: Optional[str] = None

    def add(self, name: str, amount: int = 1) -> None:
        self._counters[name].inc(amount)

    def set_max(self, name: str, value: int) -> None:
        self._gauges[name].set_max(value)

    def __getattr__(self, name: str):
        # Only reached when normal lookup fails — i.e. for the metric-
        # backed read-only attributes; plain fields (last_error) and the
        # metric dicts resolve before this.
        counters = self.__dict__.get("_counters") or {}
        if name in counters:
            return int(counters[name].value)
        gauges = self.__dict__.get("_gauges") or {}
        if name in gauges:
            return int(gauges[name].value)
        raise AttributeError(name)

    def as_dict(self) -> dict:
        payload = {attr: int(child.value)
                   for attr, child in self._counters.items()}
        payload.update(
            (attr, int(child.value)) for attr, child in self._gauges.items()
        )
        payload["last_error"] = self.last_error
        return payload


class DetectionService:
    """Non-blocking front end over a detection engine (see module docs).

    ``cadence`` persists the engine on the ranking cadence it describes
    (its writes run on the engine executor, between batches).  ``stop``
    quiesces the service and closes what it created (executor, fan-out),
    while the engine is the caller's to close — typically after a final
    checkpoint.
    """

    def __init__(
        self,
        engine,
        queue_capacity: int = DEFAULT_QUEUE_CAPACITY,
        buffer_limit: int = DEFAULT_BUFFER_LIMIT,
        cadence: Optional[CheckpointCadence] = None,
        observability: Optional[Observability] = None,
    ):
        if queue_capacity < 1:
            raise ValueError("queue_capacity must be at least 1")
        self.engine = engine
        self.queue_capacity = int(queue_capacity)
        self.cadence = cadence
        # The service always runs with an enabled registry: its stats ARE
        # metrics (that is what keeps /status and /metrics in agreement),
        # and the per-event cost is a striped-counter add.  An engine that
        # already carries an enabled bundle shares it, so one registry
        # spans the whole stack and /metrics covers every layer.
        if observability is None or not observability.enabled:
            engine_bundle = getattr(engine, "observability", None)
            if engine_bundle is not None and engine_bundle.enabled:
                observability = engine_bundle
            else:
                observability = Observability()
        self.observability = observability
        self.stats = ServingStats(observability.registry)
        self.dispatcher = AsyncFanout(
            buffer_limit=buffer_limit, observability=observability
        )
        # Users with a channel, recorded once their profile is registered.
        self._users: set = set()
        self._queue: asyncio.Queue = asyncio.Queue(maxsize=self.queue_capacity)
        self.observability.registry.gauge("repro_serving_queue_depth") \
            .set_function(self._queue.qsize)
        # Ingest→publish latency per batch: the histogram the default
        # batch_latency SLO reads its attainment from.
        self._metric_batch_seconds = \
            self.observability.registry.histogram(
                "repro_serving_batch_seconds"
            )
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="enblogue-serving"
        )
        self._consumer: Optional[asyncio.Task] = None
        self._closed = False
        self._last_submitted: Optional[float] = None
        # Graceful degradation state: the last ranking that reached the
        # dispatcher (served while a shard recovers and the engine
        # executor is busy replaying state), and the terminal engine
        # failure once the supervision budget is spent (submit() raises
        # it so the HTTP layer can answer 503 + Retry-After).
        self._last_ranking = None
        self._engine_error: Optional[ShardExecutionError] = None
        # Captured once, before any serving traffic: engine topology and
        # the active evaluation path are fixed for the engine's lifetime,
        # and status() must not call into shard backends concurrently
        # with evaluations running on the engine executor.
        self._runtime_info = dict(engine.runtime_info())

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> None:
        """Arm the checkpoint cadence and start the consumer task."""
        if self._consumer is not None:
            raise RuntimeError("service already started")
        if self._closed:
            raise ServiceClosedError("service is closed")
        # A resumed engine already consumed part of the stream; submit()'s
        # order validation must continue from its latest timestamp, not
        # from None, or a stale producer would get a 202 for documents
        # the consumer can only drop.
        self._last_submitted = await self._run_on_engine(
            self.engine._latest_timestamp
        )
        if self.cadence is not None:
            await self._run_on_engine(self.cadence.begin)
        self._consumer = asyncio.ensure_future(self._consume())

    async def stop(self, drain: bool = True) -> None:
        """Shut down; with ``drain`` every accepted batch is processed first.

        Draining is what makes shutdown *clean*: producers are refused
        from now on (``submit`` raises :class:`ServiceClosedError`), the
        consumer works through everything already accepted — no document
        is lost or replayed — and subscribers receive every produced
        frame before their streams end.  ``drain=False`` abandons queued
        batches (the engine still finishes the group it is on, so its
        state stays batch-consistent).  Idempotent.
        """
        if self._closed:
            return
        self._closed = True
        if self._consumer is not None:
            if drain:
                await self._queue.put(None)
                await self._consumer
            else:
                self._consumer.cancel()
                try:
                    await self._consumer
                except asyncio.CancelledError:
                    pass
        if self.cadence is not None:
            # Persist the end state: documents accepted after the last
            # cadence tick are live (not re-feedable from a dataset), so
            # the shutdown writes one closing tick — or the one-off
            # end-state save when no cadence was configured.  A failed
            # write must not leave the rest of the shutdown undone.
            try:
                await self._run_on_engine(self.cadence.shutdown)
            except Exception as exc:
                self.stats.last_error = repr(exc)
        self.dispatcher.close()
        self._executor.shutdown(wait=True)

    @property
    def closed(self) -> bool:
        return self._closed

    # -- ingest ----------------------------------------------------------------

    async def submit(self, documents: Sequence) -> int:
        """Enqueue one batch; blocks (async) while the queue is full.

        The batch's time order is validated *here*, against the last
        enqueued timestamp, so an HTTP producer gets its 400 before the
        batch is accepted rather than a silent drop in the consumer.
        Returns the number of documents accepted.
        """
        if self._closed:
            raise ServiceClosedError("service is closed")
        if self._engine_error is not None:
            # The engine is permanently down (supervision budget spent or
            # an unsupervised pool torn down): accepting more batches
            # would 202 documents nothing can ever process.
            raise self._engine_error
        batch = list(documents)
        if not batch:
            return 0
        previous = self._last_submitted
        for document in batch:
            timestamp = float(getattr(document, "timestamp"))
            # Negated >=, as in the engine: a NaN fails the order check.
            if previous is not None and not timestamp >= previous:
                raise ValueError(
                    f"out-of-order document: {timestamp} < {previous}"
                )
            previous = timestamp
        # The engine's own range check, so a batch it would reject (or
        # one whose boundary could never advance) gets its 400 here.
        interval = self.engine.config.evaluation_interval
        require_stream_time(float(batch[0].timestamp), interval)
        require_stream_time(previous, interval)
        # Commit the high-water mark BEFORE parking on the queue: while
        # this producer waits for capacity, a concurrent submit must
        # validate against this batch, not against the pre-batch value —
        # otherwise it could earn a 202 for documents the consumer can
        # only drop.  (A producer cancelled mid-put leaves a phantom
        # mark that conservatively rejects the gap; it never admits an
        # out-of-order batch.)
        self._last_submitted = previous
        # The enqueue stamp rides with the batch so _process can observe
        # the full ingest→publish latency, queue wait included.
        await self._queue.put((self.observability.clock(), batch))
        self.stats.add("documents_submitted", len(batch))
        self.stats.add("batches_submitted")
        self.stats.set_max("queue_high_watermark", self._queue.qsize())
        return len(batch)

    def queue_depth(self) -> int:
        """Batches currently waiting for the consumer."""
        return self._queue.qsize()

    async def drain(self) -> None:
        """Wait until every batch accepted so far has been processed."""
        await self._queue.join()

    # -- results ---------------------------------------------------------------

    async def register_user(self, profile: UserProfile) -> UserProfile:
        """Register a personalisation profile and open its user's channel.

        Every ranking produced after this returns is also published,
        personalised for the user, on ``user_channel(profile.user_id)``.
        """
        registered = await self._run_on_engine(
            self.engine.register_user, profile
        )
        self._users.add(registered.user_id)
        return registered

    def subscribe(self, subscriber_id: Optional[str] = None,
                  buffer_limit: Optional[int] = None,
                  user: Optional[str] = None) -> Subscription:
        """A bounded async subscription to the global ranking stream, or
        to ``user``'s personalised one (``KeyError`` if not registered)."""
        channel = GLOBAL_CHANNEL
        if user is not None:
            if user not in self._users:
                raise KeyError(f"no profile registered for user {user!r}")
            channel = user_channel(user)
        return self.dispatcher.subscribe(channel, subscriber_id, buffer_limit)

    def unsubscribe(self, subscription: Subscription) -> None:
        self.dispatcher.unsubscribe(subscription)

    async def current_ranking(self):
        """The engine's latest ranking (runs on the engine executor).

        While a shard recovers, the engine executor is busy rebuilding
        state — instead of queueing behind it, the last ranking that was
        published is served immediately (the ``stale: true`` case on
        ``GET /rankings``).
        """
        if self.degradation()["stale"] and self._last_ranking is not None:
            return self._last_ranking
        ranking = await self._run_on_engine(self.engine.current_ranking)
        if ranking is not None:
            self._last_ranking = ranking
        return ranking

    async def documents_processed(self) -> int:
        return await self._run_on_engine(lambda: self.engine.documents_processed)

    def status(self) -> dict:
        """Operational counters for the HTTP status endpoint.

        Includes per-shard health (processed pair events, queue depth,
        last dispatch latency, liveness) — read without a backend sync
        point, so it is safe from the event loop even while a shard is
        wedged.  ``healthy: False`` (any shard not alive) is what the
        HTTP layer turns into a 503.
        """
        try:
            shards = list(self.engine.shard_health())
        except Exception:
            shards = []
        degradation = self.degradation()
        # A shard that is *recovering* is degraded service, not an
        # outage: /status stays 200 (with the stale marker) and only a
        # permanent failure — or an unsupervised dead worker, which has
        # no recovery coming — flips healthy off.
        healthy = all(
            record.get("alive", True) or record.get("recovering", False)
            for record in shards
        ) and degradation["permanent_failure"] is None
        return {
            "closed": self._closed,
            "healthy": healthy,
            "queue_depth": self.queue_depth(),
            "queue_capacity": self.queue_capacity,
            "subscribers": self.dispatcher.subscriber_count(),
            **degradation,
            **self._runtime_info,
            **self.stats.as_dict(),
            # Every write of the cadence, its base included; the ticks
            # alone are repro_persistence_checkpoints_total.
            "checkpoints_written": (
                0 if self.cadence is None else self.cadence.checkpoints_written
            ),
            # "shards" (from runtime_info) is the count; this is the
            # per-shard detail (pair events, queue depth, last dispatch).
            "shard_health": shards,
            "slo": self.observability.slo.summary(),
        }

    def degradation(self) -> dict:
        """The degradation markers served on /rankings, /status and SSE.

        ``stale`` is True while any shard is recovering or after a
        permanent failure — exactly when a served ranking may lag the
        accepted stream.  Reads only supervisor-side state; never calls
        into the backend.
        """
        info = None
        supervision_info = getattr(self.engine, "supervision_info", None)
        if supervision_info is not None:
            try:
                info = supervision_info()
            except Exception:  # pragma: no cover - must never raise
                info = None
        if info is None:
            return {
                "stale": False,
                "recovering_shards": [],
                "permanent_failure": None,
                "recoveries": 0,
            }
        recovering = list(info.get("recovering_shards") or ())
        permanent = info.get("permanent_failure")
        return {
            "stale": bool(recovering) or permanent is not None,
            "recovering_shards": recovering,
            "permanent_failure": permanent,
            "recoveries": int(info.get("recoveries", 0)),
        }

    # -- internals -------------------------------------------------------------

    async def _run_on_engine(self, fn, *args):
        """Run engine work on the single-thread executor (serialized)."""
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(self._executor, fn, *args)

    def _engine_step(self, documents):
        """``process_batch`` plus, once a profile is registered, each
        ranking's personalised views (runs on the engine executor)."""
        rankings = self.engine.process_batch(documents)
        personalization = self.engine.personalization
        if not len(personalization):
            return rankings, None
        return rankings, [personalization.personalize_all(ranking)
                          for ranking in rankings]

    async def _consume(self) -> None:
        queue = self._queue
        while True:
            group = [await queue.get()]
            try:
                # Group commit: whatever is already waiting rides in the
                # same engine call; the shutdown sentinel ends the group.
                while group[-1] is not None and not queue.empty():
                    group.append(queue.get_nowait())
                stopping = group[-1] is None
                batches = group[:-1] if stopping else group
                if batches:
                    await self._process(batches)
                if stopping:
                    return
            finally:
                for _ in group:
                    queue.task_done()

    async def _process(self, group: List[Tuple[float, List]]) -> None:
        """One engine call for ``group``: ``(enqueue stamp, batch)`` items."""
        documents = list(chain.from_iterable(batch for _, batch in group))
        try:
            rankings, views = await self._run_on_engine(
                self._engine_step, documents
            )
        except Exception as exc:
            # process_batch validates the whole chunk before touching any
            # state and rejects it with a ValueError, so a rejected call
            # leaves the engine unchanged and the stream serviceable: the
            # group is replayed batch by batch and one poisoned batch
            # costs only itself.  Any other failure may have come after
            # documents were ingested, so nothing is re-fed: the group is
            # recorded and the consumer moves on.  A ShardExecutionError
            # that reaches here means the pool is gone for good (the
            # supervised backend only lets one through after its retry
            # budget is spent) — latch it so submit() stops accepting
            # batches nothing can process.
            if isinstance(exc, ValueError) and len(group) > 1:
                for item in group:
                    await self._process([item])
                return
            if isinstance(exc, ShardExecutionError):
                self._engine_error = exc
            self.stats.add("batch_errors", len(group))
            self.stats.last_error = repr(exc)
            return
        self.stats.add("documents_processed", len(documents))
        self.stats.add("batches_processed", len(group))
        if rankings:
            self._last_ranking = rankings[-1]
        # Push first (the frame is the product), persist second — the
        # cadence write happens between engine calls either way.  A raising
        # subscriber (or a closed fan-out) must not kill the consumer: the
        # engine already ingested the group, and a dead consumer would
        # keep 202-ing batches nothing drains.
        for index, ranking in enumerate(rankings):
            try:
                self.dispatcher.publish(
                    GLOBAL_CHANNEL, ranking, timestamp=ranking.timestamp
                )
                if views is not None:
                    for user_id, view in views[index].items():
                        self.dispatcher.publish(
                            user_channel(user_id), view,
                            timestamp=ranking.timestamp,
                        )
            except Exception as exc:
                self.stats.add("publish_errors")
                self.stats.last_error = repr(exc)
            else:
                self.stats.add("rankings_published")
        if self.cadence is not None and rankings:
            # Only a write hops to the engine executor (the consumer is
            # the cadence's one caller while it runs: nothing races it).
            try:
                if self.cadence.due(len(rankings)):
                    await self._run_on_engine(
                        self.cadence.note_rankings, len(rankings)
                    )
                else:
                    self.cadence.note_rankings(len(rankings))
            except Exception as exc:
                self.stats.add("batch_errors")
                self.stats.last_error = repr(exc)
        # Full ingest→publish latency (queue wait included), once per
        # submitted batch from its own enqueue stamp.  The SLO tick samples
        # every objective's good/total right after, so burn-rate windows
        # advance on the engine-call cadence.
        now = self.observability.clock()
        for enqueued_at, _ in group:
            self._metric_batch_seconds.observe(now - enqueued_at)
        self.observability.slo.tick()
