"""The differential matrix: every engine variant is the scalar engine.

One cell is a row of the engine table × tracking (exact, tiered K=3) ×
evaluation (fused, scalar) × seed criterion × checkpointing (none, a
journal tick at every cut, a mid-stream N → M resume) × observability
(off; on = served through ``DetectionService`` with every instrument
live) × ``min_pair_support`` (1, 3).  The cells cover every admissible pair of axis values; each runs
on the fixed tweet streams and — unless its workers are child processes —
on hypothesis's hostile streams, against the uninterrupted single scalar
engine on the same stream, through :func:`differential.assert_equivalent`.

Fused cells skip where numpy is missing (CI's no-numpy leg), which then
pins the scalar store.
"""

import dataclasses
import itertools
import math
import tempfile

import pytest
from hypothesis import example, given, settings, strategies as st

from differential import (
    CELLS,
    CHECKPOINTINGS,
    CRITERIA,
    ENGINES,
    EVALUATIONS,
    HOSTILE,
    OBSERVABILITIES,
    REQUIRED,
    ROWS,
    SUPPORTS,
    TRACKINGS,
    admissible,
    assert_equivalent,
    axis_pairs,
    build_docs,
    check_invariants,
    config,
    doc,
    hostile_streams,
    live_pair_state,
    needs_numpy,
    checkpoint_cuts,
    reference_engine,
    run_cell,
    signature,
    tweet_stream,
)
from repro.core.config import live_stream_config
from repro.core.engine import EnBlogue
from repro.persistence import load_engine, read_checkpoint
from repro.sharding import ShardedEnBlogue

#: tracking → (documents, base configuration): the tiered cells run the
#: tiered sharding suites' stream under the live profile, the exact cells
#: the served equivalence stream under the base configuration.
FIXED = {
    "tiered": (tweet_stream(hours=12, per_hour=40, seed=11),
               live_stream_config()),
    "exact": (tweet_stream(hours=18, per_hour=30, seed=23), config()),
}

#: Hostile streams under a narrow sketch: its cells collide, and the
#: tier's state is small enough to snapshot at every cut.
HOSTILE_CONFIG = config(**HOSTILE, sketch_width=64, sketch_depth=2)


def cell_params(cells):
    return [
        pytest.param(cell, id=cell.id, marks=pytest.mark.skipif(
            needs_numpy(cell.evaluation),
            reason="needs the fused evaluator (numpy)"))
        for cell in cells
    ]


@pytest.mark.parametrize("cell", cell_params(CELLS))
def test_cell_on_a_fixed_stream(cell):
    docs, base = FIXED[cell.tracking]
    run = run_cell(cell, docs, checkpoint_cuts(len(docs)), base,
                   chunk_size=32, fixed=True)
    if cell.engine.supervised:
        assert run.recoveries >= 1  # the scripted kill happened


@pytest.mark.parametrize(
    "cell", cell_params([cell for cell in CELLS
                         if not cell.engine.fixed_only]))
@settings(max_examples=6, deadline=None)
@given(docs=hostile_streams(), data=st.data())
def test_cell_on_hostile_streams(cell, docs, data):
    cuts = data.draw(st.lists(st.integers(0, len(docs)), min_size=1,
                              max_size=4), label="cuts")
    resume_shards = data.draw(st.sampled_from([1, 2, 4]),
                              label="resume_shards") \
        if cell.engine.shards else None
    run_cell(cell, docs, cuts, HOSTILE_CONFIG, resume_shards)


# -- the matrix itself -------------------------------------------------------


def test_cells_cover_every_pair_of_axis_values():
    axes = (ENGINES, TRACKINGS, EVALUATIONS, CRITERIA, CHECKPOINTINGS,
            OBSERVABILITIES, SUPPORTS)
    covered = set().union(*map(axis_pairs, CELLS))
    for (a, first), (b, second) in itertools.combinations(
            enumerate(axes), 2):
        for x in first:
            for y in second:
                if a == 0 and b == 2 and y not in x.evaluations:
                    continue  # a single engine pins its evaluation
                assert (a, x, b, y) in covered, (x, y)
    assert all(admissible(cell) for cell in CELLS)
    assert set(REQUIRED) <= set(CELLS)
    assert len(set(cell.id for cell in CELLS)) == len(CELLS)


# -- the support threshold and the index it shapes ----------------------------

SINGLE_ROWS = [
    pytest.param(ROWS[name], id=name, marks=pytest.mark.skipif(
        needs_numpy(ROWS[name].evaluations[0]),
        reason="needs the fused evaluator (numpy)"))
    for name in ("single-fused", "single-scalar")
]


@pytest.mark.parametrize("row", SINGLE_ROWS)
def test_support_lowered_then_raised_between_evaluations(row):
    """A changed ``min_pair_support`` replaces the supported set: pairs
    below the old threshold become candidates, then stop again."""
    docs, _ = FIXED["exact"]
    cfg = config(min_pair_support=3)
    engine, reference = row.build(cfg), reference_engine(cfg)
    previous = 0
    for cut, support in ((len(docs) // 3, 1), (2 * len(docs) // 3, 4),
                         (len(docs), None)):
        for each in (engine, reference):
            each.process_many(docs[previous:cut])
            if support is not None:
                each.tracker.min_pair_support = support
        previous = cut
        assert signature(engine) == signature(reference)
    assert_equivalent(engine, reference)


@pytest.mark.parametrize("support", SUPPORTS)
@pytest.mark.parametrize("row", SINGLE_ROWS)
def test_restore_mid_stream_into_a_fresh_engine(row, support):
    """A restore replaces the tracker's index: a fresh engine, and one
    that ran on past the snapshot, both continue as the reference."""
    docs, _ = FIXED["exact"]
    cfg = config(min_pair_support=support)
    half, later = len(docs) // 2, 3 * len(docs) // 4
    ran_on = row.build(cfg)
    ran_on.process_many(docs[:half])
    state = ran_on.snapshot()
    ran_on.process_many(docs[half:later])
    fresh = row.build(cfg)
    reference = reference_engine(cfg)
    reference.process_many(docs)
    for engine in (fresh, ran_on):
        engine.restore(state)
        check_invariants(engine)
        engine.process_many(docs[half:])
        assert_equivalent(engine, reference)


# -- the oracle against itself -----------------------------------------------


@pytest.fixture(scope="module")
def last_ranking_with_a_fresh_topic():
    docs = tweet_stream(hours=12, per_hour=40, seed=11)
    reference = reference_engine(config())
    reference.process_many(docs)
    ranking = reference.current_ranking()
    assert any(topic.correlation for topic in ranking.topics)
    return docs


def _tampered(docs, tamper):
    copy = reference_engine(config())
    copy.process_many(docs)
    rankings = copy._rankings
    rankings[-1] = tamper(rankings[-1])
    return copy


def _shifted(ranking):
    return dataclasses.replace(ranking, timestamp=ranking.timestamp + 1.0)


def _relabelled(ranking):
    return dataclasses.replace(ranking, label=ranking.label + "x")


def _last_bit(ranking):
    topics = list(ranking.topics)
    index = next(i for i, topic in enumerate(topics) if topic.correlation)
    topic = topics[index]
    topics[index] = dataclasses.replace(
        topic, correlation=math.nextafter(topic.correlation, math.inf))
    return dataclasses.replace(ranking, topics=topics)


@pytest.mark.parametrize("tamper", [_shifted, _relabelled, _last_bit])
def test_the_oracle_sees_one_wrong_ranking(last_ranking_with_a_fresh_topic,
                                           tamper):
    docs = last_ranking_with_a_fresh_topic
    reference = reference_engine(config())
    reference.process_many(docs)
    assert_equivalent(_tampered(docs, lambda ranking: ranking), reference)
    with pytest.raises(AssertionError):
        assert_equivalent(_tampered(docs, tamper), reference)


# -- single-engine identities ------------------------------------------------

#: The degenerate-tier stream: absolute timestamps on a 50-s window.
DEGENERATE = dict(window_horizon=50.0, evaluation_interval=10.0,
                  num_seeds=5)

degenerate_streams = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=200.0, allow_nan=False),
        st.lists(st.sampled_from(["a", "b", "c", "d", "e", "f"]),
                 min_size=1, max_size=4, unique=True),
    ),
    min_size=1, max_size=60,
).map(lambda rows: [
    doc(timestamp, tags, doc_id=f"doc-{index}")
    for index, (timestamp, tags) in enumerate(
        sorted(rows, key=lambda row: row[0]))
])


@settings(max_examples=40, deadline=None)
@given(docs=degenerate_streams, threshold=st.sampled_from([0, 1]))
def test_tier_thresholds_below_two_are_the_exact_engine(docs, threshold):
    """K of 0 or 1 admits on first sight: the tier vanishes."""
    exact = EnBlogue(config(**DEGENERATE))
    tiered = EnBlogue(config(**DEGENERATE, tracking="tiered",
                             promote_support=threshold))
    for engine in (exact, tiered):
        for document in docs:
            engine.process(document)
        engine.evaluate_now()
    assert signature(tiered) == signature(exact)
    assert tiered.tracker.snapshot() == exact.tracker.snapshot()
    check_invariants(tiered)


# -- a chain that spans a re-shard -------------------------------------------


@st.composite
def mid_chain_reshards(draw):
    """A stream, three shard counts, the first chain's cuts and the
    second's."""
    steps = draw(st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=40.0, allow_nan=False),
            st.sets(st.sampled_from(["alpha", "beta", "gamma", "delta",
                                     "epsilon", "zeta", "eta", "theta"]),
                    max_size=4),
        ),
        min_size=4, max_size=50,
    ))
    shards = [draw(st.sampled_from([1, 2, 4]), label=label)
              for label in ("first_shards", "middle_shards", "final_shards")]
    first_cuts = sorted(draw(
        st.lists(st.integers(min_value=0, max_value=len(steps) // 2),
                 min_size=1, max_size=5),
        label="cuts",
    ))
    second_cut = draw(
        st.integers(min_value=first_cuts[-1], max_value=len(steps)),
        label="second_cut",
    )
    return steps, shards, first_cuts, second_cut


def lagging_shard_clock(first_shards):
    """The re-shard example tier-1 used to meet by the luck of the draw.

    The empty document puts the boundaries on 25, 50, 75, 100; the
    evaluation at 100 is the last thing to advance the shard that owns
    ``(alpha, beta)``, and the document at 101 moves only the other
    shard's clock — so at the re-shard the merged clock (101) is past the
    expiry of an event (at 1) its shard still holds.
    """
    steps = [(0.0, set()), (1.0, {"alpha", "beta"}),
             (100.0, {"alpha", "gamma"})]
    return steps, [first_shards, 1, 1], [3], 3


def write_chain(engine, docs, directory, cuts):
    """Replay up to each cut; base at the first, a journal segment after."""
    previous = 0
    for index, cut in enumerate(cuts):
        engine.process_many(docs[previous:cut])
        previous = cut
        if index == 0:
            engine.save_checkpoint(directory, track_deltas=True)
        else:
            engine.save_delta_checkpoint(directory)
    return previous


@settings(max_examples=15, deadline=None)
@given(case=mid_chain_reshards())
@example(case=lagging_shard_clock(2))
@example(case=lagging_shard_clock(4))
def test_chain_spanning_a_mid_chain_reshard(case):
    """Chain → resume re-sharded → new chain → resume again: still
    exact."""
    steps, (first_shards, middle_shards, final_shards), first_cuts, \
        second_cut = case
    docs = build_docs(steps)
    reference = reference_engine(config(**HOSTILE))
    reference.process_many(docs)

    handoff = first_cuts[-1]
    with tempfile.TemporaryDirectory() as directory:
        with ShardedEnBlogue(config(**HOSTILE), num_shards=first_shards,
                             chunk_size=7) as engine:
            write_chain(engine, docs, directory, first_cuts)
            live = live_pair_state(engine)
        middle, _ = load_engine(directory, num_shards=middle_shards)
        with middle:
            # What the re-shard made must be a state a live engine can be in.
            check_invariants(middle)
            assert live_pair_state(middle) == live
            # Restoring compacted base + journal; the new chain re-bases.
            middle.process_many(docs[handoff:second_cut])
            middle.save_checkpoint(directory, track_deltas=True)
            middle.save_delta_checkpoint(directory)
            _, merged = read_checkpoint(directory)
            check_invariants(merged)
            assert merged == middle.snapshot()
            live = live_pair_state(middle)
        final, _ = load_engine(directory, num_shards=final_shards)
        with final:
            check_invariants(final)
            assert live_pair_state(final) == live
            final.process_many(docs[second_cut:])
            assert signature(final) == signature(reference)
            assert_equivalent(final, reference)
