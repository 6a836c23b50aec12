"""Edge-case behaviour of the EnBlogue engine."""

import signal
from contextlib import contextmanager
from types import SimpleNamespace

import pytest

from repro.core.engine import EnBlogue, require_stream_time
from repro.datasets.documents import Document

from differential import HOUR, IN_PROCESS, close, config, doc, make_engine


class TestDegenerateDocuments:
    def test_documents_without_tags_are_ingested_harmlessly(self):
        engine = EnBlogue(config())
        engine.process(doc(0, []))
        engine.process(doc(1, []))
        assert engine.documents_processed == 2
        ranking = engine.evaluate_now()
        assert len(ranking) == 0

    def test_single_tag_documents_produce_no_pairs(self):
        engine = EnBlogue(config())
        for t in range(5):
            engine.process(doc(t * 600, ["solo"]))
        ranking = engine.evaluate_now()
        assert len(ranking) == 0
        assert engine.tracker.tag_count("solo") == 5

    def test_duplicate_timestamps_are_accepted(self):
        engine = EnBlogue(config())
        engine.process(doc(100, ["a", "b"], doc_id="one"))
        engine.process(doc(100, ["a", "c"], doc_id="two"))
        assert engine.documents_processed == 2

    def test_out_of_order_documents_are_rejected(self):
        engine = EnBlogue(config())
        engine.process(doc(1000, ["a", "b"]))
        with pytest.raises(ValueError):
            engine.process(doc(10, ["a", "b"], doc_id="late"))

    def test_empty_string_tags_are_dropped(self):
        engine = EnBlogue(config())
        engine.process(doc(0, ["", "real"]))
        assert engine.tracker.tag_count("real") == 1
        assert engine.tracker.tag_count("") == 0

    def test_whitespace_only_text_without_tagger_is_fine(self):
        engine = EnBlogue(config())
        engine.process(doc(0, ["a", "b"], text="   "))
        assert engine.documents_processed == 1


class TestEvaluationBoundaries:
    def test_no_seeds_when_all_tags_below_min_count(self):
        engine = EnBlogue(config(min_seed_count=5))
        engine.process(doc(0, ["a", "b"]))
        engine.process(doc(2 * HOUR, ["a", "b"]))
        assert engine.current_seeds == []
        # Without seeds there are no candidate pairs and no topics.
        assert all(len(r) == 0 for r in engine.ranking_history())

    def test_evaluate_now_does_not_disturb_periodic_schedule(self):
        engine = EnBlogue(config())
        engine.process(doc(0, ["a", "b"]))
        engine.evaluate_now()
        before = len(engine.ranking_history())
        engine.process(doc(HOUR + 1, ["a", "b"]))
        assert len(engine.ranking_history()) == before + 1

    def test_long_quiet_gap_produces_one_ranking_per_interval(self):
        engine = EnBlogue(config())
        engine.process(doc(0, ["a", "b"]))
        engine.process(doc(5 * HOUR + 1, ["a", "b"]))
        # Boundaries at 1h..5h after the first document.
        assert len(engine.ranking_history()) == 5
        timestamps = [r.timestamp for r in engine.ranking_history()]
        assert timestamps == sorted(timestamps)

    def test_rankings_after_window_fully_expires(self):
        engine = EnBlogue(config())
        engine.process(doc(0, ["a", "b"]))
        engine.process(doc(0.5 * HOUR, ["a", "b"]))
        # Jump far beyond the window: all live state should have expired and
        # evaluation must still work (producing empty/low-score rankings).
        engine.process(doc(48 * HOUR, ["c", "d"]))
        assert engine.tracker.tag_count("a") == 0
        final = engine.evaluate_now()
        assert all(topic.score >= 0 for topic in final)


class TestScoreSemantics:
    def test_scores_decay_when_a_topic_goes_quiet(self):
        engine = EnBlogue(config(decay_half_life=2 * HOUR))
        # Hours 0-5: the tags co-occur at a low, steady rate (1 of 5 docs per
        # hour); hours 6-8: they suddenly co-occur in every document, which is
        # the shift being scored.
        for hour in range(9):
            together = hour >= 6
            if together:
                hour_docs = [["a", "b"]] * 5
            else:
                hour_docs = [["a", "b"], ["a", "x"], ["a", "x"], ["b", "y"], ["b", "y"]]
            for i, tags in enumerate(hour_docs):
                engine.process(doc(hour * HOUR + i, tags, doc_id=f"d{hour}-{i}"))
        peak = engine.topic_score("a", "b")
        assert peak > 0
        # Then the topic goes completely quiet for a day.
        engine.process(doc(30 * HOUR, ["x", "y"]))
        decayed = engine.topic_score("a", "b")
        assert decayed < peak / 4

    def test_topic_score_for_unknown_pair_is_zero(self):
        engine = EnBlogue(config())
        engine.process(doc(0, ["a", "b"]))
        assert engine.topic_score("never", "seen") == 0.0


@contextmanager
def time_limit(seconds):
    """Fail instead of hanging: an ``inf`` timestamp used to park the
    boundary catch-up loop forever."""
    def expired(signum, frame):
        raise AssertionError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def hostile_doc(timestamp, tags):
    # Not a Document: that refuses a negative timestamp on its own.
    return SimpleNamespace(timestamp=timestamp, tags=frozenset(tags))


class TestNonFiniteTimestamps:
    """``nan`` cannot be ordered and ``inf`` cannot be caught up to: both
    are rejected before any state is touched, on every ingestion path.
    So is a finite time where one evaluation interval is below the float
    spacing (|t| ≥ 2**64 for an hour): ``boundary + interval == boundary``
    there, and one such document used to spin the catch-up forever."""

    KINDS = ["single-fused"] + [
        row.name for row in IN_PROCESS if row.shards == 2]
    HOSTILE = (float("nan"), float("inf"), float("-inf"))
    FAR = (1e20, 2.0 ** 65)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("path", ["process", "process_batch"])
    @pytest.mark.parametrize("fresh", [True, False])
    @pytest.mark.parametrize("timestamp", HOSTILE + FAR, ids=str)
    def test_rejected_with_the_engine_unchanged(
        self, kind, path, fresh, timestamp
    ):
        engine = make_engine(kind, config(), chunk_size=256)
        try:
            if not fresh:
                engine.process_batch(
                    [doc(t * 600, ["a", "b", "c"]) for t in range(20)]
                )
            before = engine.snapshot()
            hostile = hostile_doc(timestamp, ["a", "b"])
            with time_limit(5), pytest.raises(ValueError):
                if path == "process":
                    engine.process(hostile)
                else:
                    engine.process_batch([hostile])
            assert engine.snapshot() == before
            # The order check is still armed for what follows.
            if not fresh:
                with pytest.raises(ValueError, match="out-of-order"):
                    engine.process(doc(10, ["a", "b"], doc_id="late"))
            engine.process_batch([doc(20 * 600, ["a", "b"], doc_id="next")])
            assert engine.documents_processed == (1 if fresh else 21)
        finally:
            close(engine)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("timestamp", HOSTILE, ids=str)
    @pytest.mark.parametrize("position", ["first", "middle", "last"])
    def test_rejected_anywhere_in_a_batch(self, kind, timestamp, position):
        engine = make_engine(kind, config(), chunk_size=256)
        try:
            engine.process_batch([doc(t, ["a", "b"]) for t in range(5)])
            before = engine.snapshot()
            batch = [doc(10 + t, ["a", "c"]) for t in range(6)]
            index = {"first": 0, "middle": 3, "last": 5}[position]
            batch[index] = hostile_doc(timestamp, ["a", "c"])
            with time_limit(5), pytest.raises(ValueError):
                engine.process_batch(batch)
            assert engine.snapshot() == before
        finally:
            close(engine)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("timestamp", HOSTILE, ids=str)
    def test_evaluate_now_rejects_it_with_the_engine_unchanged(
        self, kind, timestamp
    ):
        # Used to publish a ranking stamped ``inf`` and park the clock
        # there, after which every honest document was out of order.
        engine = make_engine(kind, config(), chunk_size=256)
        try:
            engine.process_batch([doc(t, ["a", "b"]) for t in range(5)])
            before = engine.snapshot()
            with pytest.raises(ValueError, match="non-finite"):
                engine.evaluate_now(timestamp)
            assert engine.snapshot() == before
            engine.process(doc(5, ["a", "b"], doc_id="next"))
            assert engine.documents_processed == 6
        finally:
            close(engine)

    def test_the_far_bound_is_where_one_interval_stops_measuring_out(self):
        require_stream_time(2.0 ** 63, HOUR)  # spacing 2048 s < 1 h
        require_stream_time(-(2.0 ** 63), HOUR)
        for timestamp in (2.0 ** 64, -(2.0 ** 64)):  # spacing 4096 s
            with pytest.raises(ValueError, match="out of range"):
                require_stream_time(timestamp, HOUR)
        # A shorter interval lowers the bound with it.
        with pytest.raises(ValueError, match="out of range"):
            require_stream_time(2.0 ** 63, 2048.0)

    def test_tracker_order_checks_reject_nan(self):
        tracker = EnBlogue(config()).tracker
        tracker.observe(100.0, ["a", "b"])
        with pytest.raises(ValueError, match="out-of-order"):
            tracker.observe(float("nan"), ["a", "b"])
        with pytest.raises(ValueError, match="out-of-order"):
            tracker.observe_many([(float("nan"), ["a", "b"], ())])
        with pytest.raises(ValueError, match="out-of-order"):
            tracker.observe_pair_events([(float("nan"), ())])
        with pytest.raises(ValueError, match="backwards"):
            tracker.advance_to(float("nan"))
        assert tracker.latest_timestamp == 100.0
