"""The collector contract: what the engine keeps per pair is never walked.

CPython's cyclic collector stops tracking a tuple of strings once a
collection has seen it, but never an instance of a tuple subclass.  Inside
the engine a pair is therefore the plain canonical tuple, so the pairs
every live structure holds — candidate counts, pair events, the
decomposition memo and its probation, histories, scores, the fused
evaluator's rows — drop out of the collector's walk, however long the
stream runs.  ``TagPair`` is what a pair is where it leaves the engine:
every published topic carries one.
"""

import gc

import pytest

from repro.core.types import TagPair
from repro.core.vectorized import NUMPY_AVAILABLE
from repro.persistence import load_engine
from repro.sharding import ShardedEnBlogue

from differential import _live_workers, close, make_engine, tweet_stream

needs_numpy = pytest.mark.skipif(
    not NUMPY_AVAILABLE, reason="needs the fused evaluator (numpy)")

VARIANTS = [
    pytest.param("single-fused", None, id="single-fused", marks=needs_numpy),
    pytest.param("single-scalar", None, id="single-scalar"),
    pytest.param("serial-2", "fused", id="serial-2-fused", marks=needs_numpy),
    pytest.param("serial-2", "scalar", id="serial-2-scalar"),
]


def _components(engine):
    """``(decomposer, [(tracker, detector, fused evaluator or None)])``."""
    if isinstance(engine, ShardedEnBlogue):
        return engine._decomposer, [
            (worker.tracker, worker.detector, worker._fused)
            for worker in _live_workers(engine)
        ]
    return engine.tracker._decomposer, [
        (engine.tracker, engine.detector, engine._fused)]


def _held_pairs(engine):
    """Every per-pair object the engine holds, by where it is held."""
    decomposer, parts = _components(engine)
    held = {
        "memo entry": list(decomposer._cache.values()),
        "probation entry": list(decomposer._probation.values()),
        "candidate count key": [],
        "pair-event pair": [],
        "history key": [],
        "score key": [],
        "evaluator row": [],
    }
    for tracker, detector, fused in parts:
        held["candidate count key"] += list(tracker.candidate_index.counts)
        held["pair-event pair"] += [
            pair for _, pairs in tracker._pair_events for pair in pairs]
        held["history key"] += list(tracker.history_map)
        held["score key"] += list(detector.score_map)
        if fused is not None:
            held["evaluator row"] += list(fused._pairs)
    return held


#: Collections that untrack the deepest nesting the engine holds: a
#: collection untracks a tuple only if its members are already untracked
#: when it reaches it, so a routed memo entry (entry → shard split →
#: shard's pairs → pair) may take one collection per level.  No number of
#: collections untracks a ``TagPair``.
NESTING = 4


def assert_untracked(engine):
    # Reading the maps folds pending evaluator rows in first, so nothing
    # is created after the collections below.
    held = _held_pairs(engine)
    for _ in range(NESTING):
        gc.collect()
    for where, objects in held.items():
        tracked = [obj for obj in objects if gc.is_tracked(obj)]
        assert not tracked, f"{len(tracked)} {where}(s) stay GC-tracked, " \
            f"e.g. {tracked[0]!r}"
    return held


def assert_published_pairs_are_tag_pairs(engine):
    topics = [topic for ranking in engine.ranking_history()
              for topic in ranking.topics]
    assert topics
    assert all(type(topic.pair) is TagPair for topic in topics)


@pytest.fixture(scope="module")
def docs():
    return tweet_stream(12, 40, 11)


@pytest.mark.parametrize("name, evaluation", VARIANTS)
def test_no_held_pair_is_tracked_after_ingest(name, evaluation, docs):
    engine = make_engine(name, evaluation=evaluation)
    try:
        engine.process_many(docs)
        held = assert_untracked(engine)
        # Not vacuous: every kind of holder holds something (the scalar
        # path has no evaluator rows).
        fused = evaluation == "fused" or name == "single-fused"
        empty = [where for where, objects in held.items() if not objects]
        assert empty == ([] if fused else ["evaluator row"])
        assert_published_pairs_are_tag_pairs(engine)
    finally:
        close(engine)


@pytest.mark.parametrize("name, evaluation", VARIANTS)
def test_no_held_pair_is_tracked_after_load_engine(
        name, evaluation, docs, tmp_path):
    engine = make_engine(name, evaluation=evaluation)
    try:
        engine.process_many(docs[:300])
        engine.save_checkpoint(tmp_path)
    finally:
        close(engine)
    resumed, _ = load_engine(tmp_path)
    try:
        # The restored state (re-derived pair events, histories, scores)
        # holds plain pairs, and so does what the stream adds to it.
        assert_untracked(resumed)
        resumed.process_many(docs[300:])
        assert_untracked(resumed)
        assert_published_pairs_are_tag_pairs(resumed)
    finally:
        close(resumed)
