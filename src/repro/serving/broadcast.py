"""The one push path: ranking frames fanned out to per-subscriber buffers.

Section 4.2 pushes rankings through APE, which "dispatches the messages
to the registered clients": no client polls.  :class:`AsyncFanout` is
that dispatcher.  It holds ``channel → subscriptions``; the global
ranking travels on :data:`GLOBAL_CHANNEL` and each registered user's
personalised ranking on :func:`user_channel`.  ``publish`` stamps a frame
with its channel's own sequence number (so one channel's ``id:`` lines do
not depend on how many other channels exist) and buffers it for that
channel's subscriptions; SSE handlers and in-process consumers await
frames from their :class:`Subscription`.

Backpressure on the subscriber side is *lossy by design*: a ranking
stream is a sequence of full snapshots, so a slow consumer does not need
every intermediate frame — its buffer is bounded and the oldest frame is
dropped (and counted) when a new one arrives over a full buffer.  This is
the opposite of the ingest side, where the bounded queue blocks producers
instead of dropping documents.
"""

from __future__ import annotations

import asyncio
import itertools
from dataclasses import dataclass
from typing import Any, AsyncIterator, Dict, Optional

#: Channel carrying the global (non-personalised) ranking.
GLOBAL_CHANNEL = "emergent-topics"

#: Default per-subscriber frame buffer (frames, not bytes).
DEFAULT_BUFFER_LIMIT = 64


def user_channel(user_id: str) -> str:
    """Channel name carrying one user's personalised ranking."""
    return f"{GLOBAL_CHANNEL}/{user_id}"


@dataclass(frozen=True)
class PushMessage:
    """One frame published on a channel."""

    channel: str
    payload: Any
    sequence: int
    timestamp: float = 0.0


class Subscription:
    """One subscriber's bounded frame buffer, awaitable from the loop.

    Obtain via :meth:`AsyncFanout.subscribe`; consume with
    :meth:`next_message` (``None`` marks the end of the stream) or by
    async iteration.  ``dropped`` counts frames discarded because the
    consumer fell more than ``buffer_limit`` frames behind.
    """

    def __init__(self, subscriber_id: str, channel: str, buffer_limit: int):
        if buffer_limit < 1:
            raise ValueError("buffer_limit must be at least 1")
        self.subscriber_id = subscriber_id
        self.channel = channel
        self.buffer_limit = int(buffer_limit)
        self.dropped = 0
        # The bound is enforced in deliver() rather than by the queue's
        # maxsize, so the close sentinel always fits without evicting a
        # frame the consumer is still entitled to.
        self._queue: asyncio.Queue = asyncio.Queue()
        self._closed = False

    @property
    def closed(self) -> bool:
        return self._closed

    def pending(self) -> int:
        """Frames currently buffered (bounded by ``buffer_limit``)."""
        return self._queue.qsize() - (1 if self._closed else 0)

    def deliver(self, message: PushMessage) -> bool:
        """Buffer one frame, dropping the oldest when the buffer is full.

        Returns whether an older frame was evicted to make room (the
        fan-out counts these as dropped-frame metric events).
        """
        if self._closed:
            return False
        evicted = False
        if self._queue.qsize() >= self.buffer_limit:
            try:
                self._queue.get_nowait()
                self.dropped += 1
                evicted = True
            except asyncio.QueueEmpty:  # pragma: no cover - tiny race
                pass
        self._queue.put_nowait(message)
        return evicted

    def close(self) -> None:
        """End the stream: consumers see ``None`` after the buffered frames."""
        if self._closed:
            return
        self._closed = True
        self._queue.put_nowait(None)

    async def next_message(self) -> Optional[PushMessage]:
        """The next buffered frame, or ``None`` once the stream ended."""
        message = await self._queue.get()
        if message is None:
            # Keep the sentinel visible to any further next_message call.
            self._queue.put_nowait(None)
            return None
        return message

    def __aiter__(self) -> AsyncIterator[PushMessage]:
        return self

    async def __anext__(self) -> PushMessage:
        message = await self.next_message()
        if message is None:
            raise StopAsyncIteration
        return message


class AsyncFanout:
    """Channels of frames, each fanned out to its subscriptions' buffers.

    All methods must run on the event-loop thread (the serving layer
    publishes from there; engine work happens in an executor and never
    touches the fan-out).  ``publish`` and ``subscribe`` raise
    ``RuntimeError`` after :meth:`close`: a shut-down push path must never
    silently drop ranking updates.
    """

    def __init__(self, buffer_limit: int = DEFAULT_BUFFER_LIMIT,
                 observability=None):
        self.buffer_limit = int(buffer_limit)
        self._channels: Dict[str, Dict[str, Subscription]] = {}
        self._sequences: Dict[str, int] = {}
        self._ids = itertools.count()
        self._closed = False
        # Fan-out metrics (None when no enabled bundle was handed over):
        # frames delivered, frames evicted off full buffers, open
        # subscriptions as a live gauge.
        self._observability = observability
        if observability is not None and observability.enabled:
            registry = observability.registry
            self._metric_frames = registry.counter(
                "repro_serving_sse_frames_total")
            self._metric_dropped = registry.counter(
                "repro_serving_sse_dropped_frames_total")
            registry.gauge("repro_serving_subscribers") \
                .set_function(self.subscriber_count)
        else:
            self._metric_frames = None
            self._metric_dropped = None

    @property
    def closed(self) -> bool:
        return self._closed

    def subscriber_count(self) -> int:
        return sum(map(len, self._channels.values()))

    def subscribe(self, channel: str = GLOBAL_CHANNEL,
                  subscriber_id: Optional[str] = None,
                  buffer_limit: Optional[int] = None) -> Subscription:
        """Open a bounded subscription to ``channel``'s later frames."""
        self._ensure_open(f"subscribe to channel {channel!r}")
        if subscriber_id is None:
            subscriber_id = f"subscriber-{next(self._ids)}"
        subscriptions = self._channels.setdefault(channel, {})
        if subscriber_id in subscriptions:
            raise ValueError(f"subscriber {subscriber_id!r} already exists")
        subscription = Subscription(
            subscriber_id, channel, buffer_limit or self.buffer_limit
        )
        subscriptions[subscriber_id] = subscription
        self._log_event("sse_subscribe", subscriber=subscriber_id)
        return subscription

    def unsubscribe(self, subscription: Subscription) -> None:
        """Close one subscription and stop delivering to it (idempotent)."""
        subscriptions = self._channels.get(subscription.channel, {})
        removed = subscriptions.pop(subscription.subscriber_id, None)
        subscription.close()
        if removed is not None:
            self._log_event(
                "sse_unsubscribe",
                subscriber=subscription.subscriber_id,
                dropped=subscription.dropped,
            )

    def close(self) -> None:
        """End every subscription's stream (idempotent).

        Buffered frames stay readable; the ``None`` sentinel follows them.
        """
        if self._closed:
            return
        self._closed = True
        ended = 0
        for subscriptions in self._channels.values():
            for subscription in subscriptions.values():
                subscription.close()
            ended += len(subscriptions)
        self._channels.clear()
        self._log_event("sse_close", ended=ended)

    def publish(self, channel: str, payload: Any,
                timestamp: float = 0.0) -> PushMessage:
        """Stamp ``payload`` with the channel's next sequence; buffer it."""
        self._ensure_open(f"publish on channel {channel!r}")
        sequence = self._sequences.get(channel, 0)
        self._sequences[channel] = sequence + 1
        message = PushMessage(channel, payload, sequence, timestamp)
        subscriptions = self._channels.get(channel)
        if not subscriptions:
            # Nothing to deliver: no span either, so idle publishes don't
            # crowd batch traces out of the bounded trace ring.
            return message
        if self._metric_frames is None:
            for subscription in list(subscriptions.values()):
                subscription.deliver(message)
            return message
        delivered = 0
        dropped = 0
        with self._observability.tracer.span("sse_fanout") as span:
            for subscription in list(subscriptions.values()):
                if subscription.deliver(message):
                    dropped += 1
                delivered += 1
            span.set(subscribers=delivered, dropped=dropped)
        self._metric_frames.inc(delivered)
        if dropped:
            self._metric_dropped.inc(dropped)
        return message

    def _ensure_open(self, action: str) -> None:
        if self._closed:
            raise RuntimeError(f"cannot {action}: the fan-out is closed")

    def _log_event(self, event: str, **fields) -> None:
        observability = self._observability
        if observability is not None:
            observability.log.emit(event, subscribers=self.subscriber_count(),
                                   **fields)
