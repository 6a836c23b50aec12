"""Property: histories and scores read the same wherever they are stored.

With a fused evaluator attached, an evaluation writes its columns and
nothing else; the tracker's ``TimeSeries`` dict and the detector's
``DecayedMaximum`` dict are materialised from the touched rows when
something reads them.  Without one (``vectorize=False``, no numpy) the
dicts are written directly.  On random streams the two stores must be
indistinguishable through every reader — queries, snapshots, the delta
journal — at every point of the stream, and through every event that
crosses the boundary between them: a scalar evaluation in the middle of
a tick, a restore or a score reset while rows are pending, a pickle round
trip of a shard worker, an evaluation that fails its checks.

The default-engine-vs-``vectorize=False`` properties also run on the
no-numpy CI leg, where both engines are scalar and the comparison pins
the scalar store's own persistence; the tests that need the evaluator
itself skip there.
"""

import json
import pickle
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import EnBlogueConfig
from repro.core.engine import EnBlogue, make_shift_detector, make_tracker
from repro.core.ranking import RankingBuilder
from repro.core.tracker import DocumentDecomposer
from repro.core.types import TagPair
from repro.core.vectorized import NUMPY_AVAILABLE, make_fused_evaluator
from repro.datasets.documents import Document
from repro.persistence.store import read_checkpoint
from repro.sharding.worker import ShardWorker
from repro.windows.aggregates import TagFrequencyWindow
from repro.windows.decay import DecayedMaximum
from repro.windows.timeseries import TimeSeries

needs_evaluator = pytest.mark.skipif(
    not NUMPY_AVAILABLE, reason="needs the fused evaluator (numpy)"
)

TAGS = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta"]

#: Random streams as (positive time delta, tag set) steps; cumulative sums
#: give the non-decreasing timestamps every ingestion path requires.
document_steps = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=30.0, allow_nan=False),
        st.sets(st.sampled_from(TAGS), min_size=1, max_size=4),
    ),
    min_size=4,
    max_size=60,
)

predictors = st.sampled_from(["moving_average", "ewma", "holt"])

#: Where to cut a stream into process_batch calls, as fractions of it.
cut_points = st.lists(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    min_size=1, max_size=4,
)


def build_docs(steps):
    docs = []
    timestamp = 0.0
    for index, (delta, tags) in enumerate(steps):
        timestamp += delta
        docs.append(Document(
            timestamp=timestamp, doc_id=f"doc-{index}", tags=frozenset(tags),
        ))
    return docs


def config(predictor="moving_average"):
    # history_length 6 with an evaluation every 25 time units: the rings
    # wrap within a stream, so full-row shifts are exercised too.
    return EnBlogueConfig(
        window_horizon=100.0,
        evaluation_interval=25.0,
        num_seeds=6,
        min_seed_count=1,
        min_pair_support=1,
        min_history=2,
        predictor=predictor,
        predictor_window=3,
        history_length=6,
    )


def chunks(docs, cuts):
    """``docs`` split at the given fractions (empty chunks dropped)."""
    indices = sorted({int(cut * len(docs)) for cut in cuts} | {len(docs)})
    start = 0
    for index in indices:
        if index > start:
            yield docs[start:index]
            start = index


def engines(predictor):
    """``(default engine, scalar engine)`` under one configuration."""
    default = EnBlogue(config(predictor))
    scalar = EnBlogue(config(predictor), vectorize=False)
    if NUMPY_AVAILABLE:
        assert default.evaluation_path == "vectorized"
    assert scalar.evaluation_path == "scalar"
    return default, scalar


def snapshot_copy(engine):
    return json.loads(json.dumps(engine.snapshot()))


def assert_same_readers(left, right):
    """Every history/score reader agrees, without snapshotting first."""
    pairs = right.tracker.tracked_pairs()
    assert left.tracker.tracked_pairs() == pairs
    for pair in pairs:
        expected = right.tracker.history(pair)
        found = left.tracker.history(pair)
        assert found.timestamps == expected.timestamps
        assert found.values == expected.values
        assert found.maxlen == expected.maxlen
        assert list(left.correlation_history(*pair)) == list(expected)
    scored = right.detector.scored_pairs()
    assert left.detector.scored_pairs() == scored
    now = right.tracker.latest_timestamp
    for pair in scored:
        assert left.detector.score_at(pair, now) \
            == right.detector.score_at(pair, now)
        assert left.topic_score(*pair) == right.topic_score(*pair)
    # A pair neither engine ever saw reads as empty / zero on both.
    assert len(left.tracker.history(TagPair("no", "such"))) == 0
    assert left.topic_score("no", "such") == 0.0


@settings(max_examples=60, deadline=None)
@given(steps=document_steps, cuts=cut_points, predictor=predictors)
def test_readers_agree_after_every_batch(steps, cuts, predictor):
    docs = build_docs(steps)
    default, scalar = engines(predictor)
    for chunk in chunks(docs, cuts):
        assert default.process_batch(chunk) == scalar.process_batch(chunk)
        assert_same_readers(default, scalar)


@settings(max_examples=60, deadline=None)
@given(steps=document_steps, cuts=cut_points, predictor=predictors)
def test_snapshots_agree_at_arbitrary_cut_points(steps, cuts, predictor):
    docs = build_docs(steps)
    default, scalar = engines(predictor)
    for chunk in chunks(docs, cuts):
        default.process_batch(chunk)
        scalar.process_batch(chunk)
        assert default.snapshot() == scalar.snapshot()
    # Snapshotting is a read: taking one twice changes nothing.
    assert default.snapshot() == default.snapshot()


@settings(max_examples=25, deadline=None)
@given(steps=document_steps, cuts=cut_points, predictor=predictors)
def test_journal_replay_equals_snapshot_through_mid_tick_reads(
        steps, cuts, predictor):
    # One journal tick per chunk; in the middle of every tick a snapshot
    # (a read that folds the rows evaluated so far into the dicts) must
    # neither lose nor duplicate what the tick's segment ships.
    docs = build_docs(steps)
    default, scalar = engines(predictor)
    with tempfile.TemporaryDirectory() as left, \
            tempfile.TemporaryDirectory() as right:
        default.save_checkpoint(left, track_deltas=True)
        scalar.save_checkpoint(right, track_deltas=True)
        for chunk in chunks(docs, cuts):
            half = len(chunk) // 2
            for engine in (default, scalar):
                engine.process_batch(chunk[:half])
            assert default.snapshot() == scalar.snapshot()
            for engine in (default, scalar):
                engine.process_batch(chunk[half:])
            default.save_delta_checkpoint(left)
            scalar.save_delta_checkpoint(right)
            assert read_checkpoint(left)[1] == default.snapshot()
            assert read_checkpoint(left)[1] == read_checkpoint(right)[1]
        # The two stores journal byte-identical segments.
        assert default.delta_since(99) == scalar.delta_since(99)


@settings(max_examples=25, deadline=None)
@given(steps=document_steps, cut=st.floats(min_value=0.1, max_value=0.9),
       predictor=predictors)
def test_scalar_evaluation_inside_a_tick_is_journaled_in_order(
        steps, cut, predictor):
    # tracker.evaluate() samples through the scalar loop: it folds the
    # pending rows in, appends to the dict directly and makes the
    # evaluator reload (renumbering its rows) before the next fused
    # evaluation — all between two drains of one journal tick.
    docs = build_docs(steps)
    split = max(1, int(cut * len(docs)))
    default, scalar = engines(predictor)
    with tempfile.TemporaryDirectory() as left, \
            tempfile.TemporaryDirectory() as right:
        default.save_checkpoint(left, track_deltas=True)
        scalar.save_checkpoint(right, track_deltas=True)
        for engine in (default, scalar):
            engine.process_batch(docs[:split])
            engine.tracker.evaluate(
                engine.tracker.latest_timestamp, engine.current_seeds
            )
            engine.process_batch(docs[split:])
        assert_same_readers(default, scalar)
        default.save_delta_checkpoint(left)
        scalar.save_delta_checkpoint(right)
        assert read_checkpoint(left)[1] == default.snapshot()
        assert read_checkpoint(left)[1] == read_checkpoint(right)[1]


@settings(max_examples=40, deadline=None)
@given(steps=document_steps, cut=st.floats(min_value=0.1, max_value=0.9),
       predictor=predictors)
def test_restore_with_rows_pending_leaves_exactly_the_restored_state(
        steps, cut, predictor):
    docs = build_docs(steps)
    split = max(1, int(cut * len(docs)))
    default, scalar = engines(predictor)
    default.process_batch(docs[:split])
    scalar.process_batch(docs[:split])
    state = snapshot_copy(default)
    # Evaluate past the snapshot and read nothing: rows stay pending.
    default.process_batch(docs[split:])
    default.restore(state)
    assert default.snapshot() == state
    # The dropped rows must not resurface once evaluation resumes.
    assert default.process_batch(docs[split:]) \
        == scalar.process_batch(docs[split:])
    assert default.snapshot() == scalar.snapshot()


@settings(max_examples=40, deadline=None)
@given(steps=document_steps, cut=st.floats(min_value=0.1, max_value=0.9),
       whole=st.booleans(), predictor=predictors)
def test_score_reset_with_rows_pending(steps, cut, whole, predictor):
    docs = build_docs(steps)
    split = max(1, int(cut * len(docs)))
    default, scalar = engines(predictor)
    for engine in (default, scalar):
        engine.process_batch(docs[:split])
    target = None
    if not whole:
        scored = scalar.detector.scored_pairs()
        target = scored[len(scored) // 2] if scored else TagPair("no", "such")
    default.detector.reset(target)
    scalar.detector.reset(target)
    assert default.detector.scored_pairs() == scalar.detector.scored_pairs()
    if whole:
        assert default.detector.scored_pairs() == []
    assert default.process_batch(docs[split:]) \
        == scalar.process_batch(docs[split:])
    assert default.snapshot() == scalar.snapshot()


# -- shard workers -------------------------------------------------------------


def worker_events(docs):
    """``(timestamp, pairs)`` events plus the global statistics a
    coordinator would broadcast at each evaluation boundary."""
    decomposer = DocumentDecomposer()
    window = TagFrequencyWindow(100.0)
    steps = []
    boundary = None
    for document in docs:
        if boundary is None:
            boundary = document.timestamp + 25.0
        while document.timestamp >= boundary:
            window.advance_to(boundary)
            steps.append(("evaluate", boundary, dict(window.counts),
                          window.document_count))
            boundary += 25.0
        ordered, pairs = decomposer.decompose(document.tags)
        window.add_document(document.timestamp, ordered)
        steps.append(("ingest", document.timestamp, pairs, None))
    return steps


def drive(worker, steps):
    topics = []
    for kind, timestamp, payload, total in steps:
        if kind == "ingest":
            worker.ingest([(timestamp, payload)])
        else:
            topics.append(worker.evaluate(timestamp, TAGS, payload, total))
    return topics


@needs_evaluator
@settings(max_examples=30, deadline=None)
@given(steps=document_steps, cut=st.floats(min_value=0.1, max_value=0.9),
       armed=st.booleans())
def test_worker_pickles_with_rows_pending(steps, cut, armed):
    # The process backend ships a worker (evaluator included) through
    # pickle; rows evaluated but not yet folded into the dicts, and the
    # armed journal's records, must survive the trip.
    script = worker_events(build_docs(steps))
    split = max(1, int(cut * len(script)))
    worker = ShardWorker(0, config())
    scalar = ShardWorker(0, config(), vectorize=False)
    assert worker.evaluation_path == "vectorized"
    for each in (worker, scalar):
        if armed:
            each.begin_delta_tracking()
        drive(each, script[:split])
    clone = pickle.loads(pickle.dumps(worker))
    expected = drive(scalar, script[split:])
    assert drive(worker, script[split:]) == expected
    assert drive(clone, script[split:]) == expected
    if armed:
        delta = scalar.delta_since(2)
        assert clone.delta_since(2) == delta
        assert worker.delta_since(2) == delta
    assert clone.snapshot() == worker.snapshot() == scalar.snapshot()


# -- failed evaluations ---------------------------------------------------------


def stack(armed):
    """A tracker/detector/evaluator stack as the engines wire it."""
    cfg = config()
    tracker = make_tracker(cfg)
    detector = make_shift_detector(cfg)
    evaluator = make_fused_evaluator(
        tracker, detector, RankingBuilder(top_k=cfg.top_k)
    )
    if armed:
        tracker.begin_delta_tracking()
        detector.begin_delta_tracking()
    return tracker, detector, evaluator


def evaluate(tracker, evaluator, timestamp, total=None):
    tracker.advance_to(max(timestamp, tracker.latest_timestamp))
    window = tracker.tag_window
    return evaluator.evaluate(
        timestamp, TAGS, window.counts,
        window.document_count if total is None else total,
    )


@needs_evaluator
@pytest.mark.parametrize("failure", ["counts", "out-of-order", "future-score"])
@pytest.mark.parametrize("armed", [False, True])
def test_failed_evaluation_changes_nothing(failure, armed):
    docs = build_docs([(7.0, set(TAGS[index % 4:index % 4 + 3]))
                       for index in range(40)])
    control = stack(armed)
    victim = stack(armed)
    for tracker, _, evaluator in (control, victim):
        for index, document in enumerate(docs[:30]):
            tracker.observe(document.timestamp, document.tags)
            if index % 5 == 4:
                evaluate(tracker, evaluator, document.timestamp)
    tracker, detector, evaluator = victim
    now = tracker.latest_timestamp
    # Rows are pending here: nothing has read the dicts since evaluating.
    if failure == "counts":
        with pytest.raises(ValueError, match="cannot exceed the document"):
            evaluate(tracker, evaluator, now, total=1)
    elif failure == "out-of-order":
        with pytest.raises(ValueError, match="out-of-order append"):
            evaluate(tracker, evaluator, now - 50.0)
    else:
        # A score stamped in the future can only arrive through a
        # (corrupted) restore, which disarms the detector's journal; the
        # control takes the same detour minus the failing evaluation.
        for each in (control, victim):
            good = each[1].snapshot()
            bad = json.loads(json.dumps(good))
            bad["scores"][0][3] = now + 1000.0
            each[1].restore(bad)
            if each is victim:
                with pytest.raises(ValueError,
                                   match="cannot evaluate in the past"):
                    evaluate(tracker, evaluator, now)
            each[1].restore(good)
            if armed:
                each[1].begin_delta_tracking()
    # Both stacks continue identically: histories, scores, the journal.
    results = []
    for tracker, detector, evaluator in (control, victim):
        topics = []
        for index, document in enumerate(docs[30:]):
            tracker.observe(document.timestamp, document.tags)
            if index % 5 == 4:
                topics.append(
                    evaluate(tracker, evaluator, document.timestamp))
        deltas = (tracker.delta_since(1), detector.delta_since(1)) \
            if armed else None
        results.append(
            (topics, tracker.snapshot(), detector.snapshot(), deltas))
    assert results[0] == results[1]


# -- no per-candidate write-back ------------------------------------------------


@needs_evaluator
def test_fused_batch_appends_to_no_series_and_restores_no_maximum(monkeypatch):
    docs = build_docs([(5.0, set(TAGS[index % 3:index % 3 + 3]))
                       for index in range(120)])
    default, scalar = engines("ewma")
    scalar.process_batch(docs)
    calls = []
    real_append = TimeSeries.append
    real_restore = DecayedMaximum.restore_state
    monkeypatch.setattr(
        TimeSeries, "append",
        lambda self, *args: (calls.append("append"),
                             real_append(self, *args))[1],
    )
    monkeypatch.setattr(
        DecayedMaximum, "restore_state",
        lambda self, *args: (calls.append("restore_state"),
                             real_restore(self, *args))[1],
    )
    with tempfile.TemporaryDirectory() as directory:
        # Armed journal included: recording must not touch the dicts.
        default.save_checkpoint(directory, track_deltas=True)
        calls.clear()
        rankings = default.process_batch(docs)
    assert len(rankings) > 10
    assert calls == []
    monkeypatch.undo()
    assert default.snapshot()["tracker"] == scalar.snapshot()["tracker"]
    assert default.snapshot()["detector"] == scalar.snapshot()["detector"]
