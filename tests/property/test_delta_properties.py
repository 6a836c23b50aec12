"""Property: base + journal chains round-trip bit-identically, always.

For random document streams, random checkpoint cadences (full re-bases
interleaved with delta segments at random cut points) and random shard
counts, a directory written as a delta chain must restore — through the
unchanged ``restore`` path, after the store folds the journal onto the
base — into an engine whose continuation publishes exactly the ranking
sequence of an uninterrupted run.  Two layers are pinned on every
example: the folded state equals the live engine's ``snapshot()`` dict
(so the journal loses nothing, bit for bit), and the resumed run's
rankings equal the reference — including chains that span a mid-chain
re-shard (resume into a different shard count, start a new chain, resume
again).
"""

import tempfile

from hypothesis import example, given, settings, strategies as st

from repro.core.config import EnBlogueConfig
from repro.core.engine import EnBlogue
from repro.datasets.documents import Document
from repro.persistence import load_engine, read_checkpoint
from repro.sharding import ShardedEnBlogue

from invariants import check_invariants, live_pair_state

tag_names = st.sampled_from(
    ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"]
)

#: Random streams as (positive time delta, tag set) steps; cumulative sums
#: give the non-decreasing timestamps every ingestion path requires.
document_steps = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=40.0, allow_nan=False),
        st.sets(tag_names, min_size=0, max_size=4),
    ),
    min_size=4,
    max_size=50,
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


def config():
    return EnBlogueConfig(
        window_horizon=100.0,
        evaluation_interval=25.0,
        num_seeds=6,
        min_seed_count=1,
        min_pair_support=1,
        min_history=2,
        predictor="moving_average",
        predictor_window=3,
        history_length=6,
    )


def signature(engine):
    return [
        (ranking.timestamp, ranking.label, ranking.topics)
        for ranking in engine.ranking_history()
    ]


def draw_cuts(data, count):
    """A sorted run of cut points: base cut first, then delta-tick cuts."""
    cuts = data.draw(
        st.lists(st.integers(min_value=0, max_value=count),
                 min_size=1, max_size=5),
        label="cuts",
    )
    return sorted(cuts)


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


@settings(max_examples=25, deadline=None)
@given(steps=document_steps, data=st.data())
def test_single_engine_chain_restores_bit_identical(steps, data):
    docs = build_docs(steps)
    reference = EnBlogue(config())
    reference.process_many(docs)
    expected = signature(reference)

    cuts = draw_cuts(data, len(docs))
    with tempfile.TemporaryDirectory() as directory:
        engine = EnBlogue(config())
        cut = write_chain(engine, docs, directory, cuts)
        _, merged = read_checkpoint(directory)
        check_invariants(merged)
        assert merged == engine.snapshot()
        resumed, _ = load_engine(directory)
        check_invariants(resumed)
        # The live tables the base leaves out, derived on restore.
        assert live_pair_state(resumed) == live_pair_state(engine)
        resumed.process_many(docs[cut:])
        assert signature(resumed) == expected


@settings(max_examples=25, deadline=None)
@given(steps=document_steps, data=st.data())
def test_sharded_chain_restores_bit_identical_across_shard_counts(steps, data):
    docs = build_docs(steps)
    reference = EnBlogue(config())
    reference.process_many(docs)
    expected = signature(reference)

    cuts = draw_cuts(data, len(docs))
    checkpoint_shards = data.draw(st.sampled_from([1, 2, 4]),
                                  label="checkpoint_shards")
    resume_shards = data.draw(st.sampled_from([1, 2, 4]),
                              label="resume_shards")
    with tempfile.TemporaryDirectory() as directory:
        with ShardedEnBlogue(config(), num_shards=checkpoint_shards,
                             backend="serial", chunk_size=7) as engine:
            cut = write_chain(engine, docs, directory, cuts)
            _, merged = read_checkpoint(directory)
            check_invariants(merged)
            assert merged == engine.snapshot()
            live = live_pair_state(engine)
        resumed, _ = load_engine(directory, num_shards=resume_shards)
        with resumed:
            check_invariants(resumed)
            assert live_pair_state(resumed) == live
            resumed.process_many(docs[cut:])
            assert signature(resumed) == expected


@st.composite
def mid_chain_reshards(draw):
    """A stream, three shard counts, the first chain's cuts and the second's."""
    steps = draw(document_steps)
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


@settings(max_examples=15, deadline=None)
@given(case=mid_chain_reshards())
@example(case=lagging_shard_clock(2))
@example(case=lagging_shard_clock(4))
def test_chain_spanning_a_mid_chain_reshard(case):
    """Chain → resume re-sharded → new chain → resume again, still exact."""
    steps, (first_shards, middle_shards, final_shards), first_cuts, \
        second_cut = case
    docs = build_docs(steps)
    reference = EnBlogue(config())
    reference.process_many(docs)
    expected = signature(reference)

    handoff = first_cuts[-1]
    with tempfile.TemporaryDirectory() as directory:
        with ShardedEnBlogue(config(), num_shards=first_shards,
                             backend="serial", chunk_size=7) as engine:
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
            assert signature(final) == expected
