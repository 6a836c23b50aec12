"""The one fan-out: channels, per-channel sequences, bounded buffers, close."""

import asyncio

import pytest

from repro.serving.broadcast import (
    GLOBAL_CHANNEL,
    AsyncFanout,
    user_channel,
)


def frames(subscription):
    """Every frame buffered so far, once the subscription's stream ended."""

    async def collect():
        return [message async for message in subscription]

    subscription.close()
    return asyncio.run(collect())


class TestChannels:
    def test_subscribers_of_a_channel_each_receive_every_publish(self):
        fanout = AsyncFanout()
        first, second = fanout.subscribe(), fanout.subscribe()
        fanout.publish(GLOBAL_CHANNEL, "one", timestamp=1.0)
        fanout.publish(GLOBAL_CHANNEL, "two", timestamp=2.0)
        for subscription in (first, second):
            received = frames(subscription)
            assert [m.payload for m in received] == ["one", "two"]
            assert [m.timestamp for m in received] == [1.0, 2.0]
            assert {m.channel for m in received} == {GLOBAL_CHANNEL}

    def test_channels_are_isolated(self):
        fanout = AsyncFanout()
        alice = fanout.subscribe(user_channel("alice"))
        fanout.publish(GLOBAL_CHANNEL, "global")
        fanout.publish(user_channel("bob"), "for bob")
        fanout.publish(user_channel("alice"), "for alice")
        assert [m.payload for m in frames(alice)] == ["for alice"]

    def test_each_channel_has_its_own_sequence(self):
        fanout = AsyncFanout()
        sequences = [
            fanout.publish(channel, index).sequence
            for index, channel in enumerate(
                [GLOBAL_CHANNEL, user_channel("a"), GLOBAL_CHANNEL,
                 user_channel("a"), GLOBAL_CHANNEL])
        ]
        assert sequences == [0, 0, 1, 1, 2]

    def test_a_late_subscriber_sees_only_later_frames(self):
        fanout = AsyncFanout()
        fanout.publish(GLOBAL_CHANNEL, "before")
        late = fanout.subscribe()
        fanout.publish(GLOBAL_CHANNEL, "after")
        assert [(m.sequence, m.payload) for m in frames(late)] == [(1, "after")]

    def test_unsubscribe_mid_stream_stops_delivery(self):
        fanout = AsyncFanout()
        leaving, staying = fanout.subscribe(), fanout.subscribe()
        fanout.publish(GLOBAL_CHANNEL, 1)
        fanout.unsubscribe(leaving)
        fanout.unsubscribe(leaving)  # idempotent
        fanout.publish(GLOBAL_CHANNEL, 2)
        assert leaving.closed
        assert fanout.subscriber_count() == 1
        assert [m.payload for m in frames(leaving)] == [1]
        assert [m.payload for m in frames(staying)] == [1, 2]

    def test_subscriber_ids_are_unique_per_channel(self):
        fanout = AsyncFanout()
        fanout.subscribe(subscriber_id="phone")
        fanout.subscribe(user_channel("alice"), subscriber_id="phone")
        with pytest.raises(ValueError, match="already exists"):
            fanout.subscribe(subscriber_id="phone")
        assert fanout.subscriber_count() == 2

    def test_a_full_buffer_drops_its_oldest_frame(self):
        fanout = AsyncFanout(buffer_limit=3)
        slow = fanout.subscribe()
        roomy = fanout.subscribe(buffer_limit=16)
        for index in range(10):
            fanout.publish(GLOBAL_CHANNEL, index)
        assert slow.pending() == 3
        assert slow.dropped == 7
        assert [m.payload for m in frames(slow)] == [7, 8, 9]
        assert roomy.dropped == 0


class TestUseAfterClose:
    """A closed push path fails loudly instead of dropping rankings."""

    def test_publish_and_subscribe_after_close_raise(self):
        fanout = AsyncFanout()
        fanout.publish(GLOBAL_CHANNEL, "one")
        fanout.close()
        assert fanout.closed
        with pytest.raises(RuntimeError, match="closed"):
            fanout.publish(GLOBAL_CHANNEL, "two")
        with pytest.raises(RuntimeError, match="closed"):
            fanout.subscribe(user_channel("late"))

    def test_close_ends_every_stream_after_its_buffered_frames(self):
        fanout = AsyncFanout()
        plain = fanout.subscribe()
        personal = fanout.subscribe(user_channel("alice"))
        fanout.publish(GLOBAL_CHANNEL, "global")
        fanout.publish(user_channel("alice"), "personal")
        fanout.close()
        fanout.close()  # idempotent
        assert fanout.subscriber_count() == 0
        assert plain.closed and personal.closed
        assert [m.payload for m in frames(plain)] == ["global"]
        assert [m.payload for m in frames(personal)] == ["personal"]

    def test_unsubscribe_after_close_is_a_noop(self):
        fanout = AsyncFanout()
        subscription = fanout.subscribe()
        fanout.close()
        fanout.unsubscribe(subscription)
