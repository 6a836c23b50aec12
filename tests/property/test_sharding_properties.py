"""Property tests for pair partitioning (the sharding correctness core).

Two invariants make scatter-gather detection equivalent to the single
engine: every observed pair is owned by *exactly one* shard, and the union
of the shard-local candidate sets equals the single tracker's candidate
set.  Both are checked here on randomized streams, seed sets and shard
counts.  A third property pins the coordinator's ingest: however a stream
is cut into ``process``/``process_batch`` calls, the shards are sent the
same chunks and the engine ends in the same state.
"""

import tempfile

from hypothesis import given, settings, strategies as st

from repro.core.engine import make_tracker
from repro.core.config import EnBlogueConfig
from repro.core.tracker import CorrelationTracker, DocumentDecomposer
from repro.sharding import ShardedEnBlogue
from repro.sharding.partitioner import PairPartitioner

from differential import (
    BY_REFERENCE, build_docs, check_invariants, config, signature,
)

tag_names = st.sampled_from(
    ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"]
)

documents = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=500.0, allow_nan=False),
        st.sets(tag_names, min_size=0, max_size=5),
    ),
    min_size=1,
    max_size=40,
)


@settings(max_examples=150, deadline=None)
@given(
    docs=documents,
    num_shards=st.integers(min_value=1, max_value=6),
)
def test_every_observed_pair_has_exactly_one_owner(docs, num_shards):
    partitioner = PairPartitioner(num_shards)
    decomposer = DocumentDecomposer()
    for _, tags in docs:
        _, pairs = decomposer.decompose(frozenset(tags))
        for pair in pairs:
            owners = [
                shard for shard in range(num_shards)
                if partitioner.shard_of(pair) == shard
            ]
            assert len(owners) == 1
        # route() sends each pair to precisely its owner, dropping none.
        routed = [pair for shard_pairs in partitioner.route(pairs)
                  for pair in shard_pairs]
        assert sorted(routed) == sorted(pairs)


@settings(max_examples=100, deadline=None)
@given(
    docs=documents,
    seeds=st.sets(tag_names, max_size=4),
    num_shards=st.integers(min_value=1, max_value=5),
    min_support=st.integers(min_value=1, max_value=3),
    horizon=st.floats(min_value=10.0, max_value=400.0, allow_nan=False),
)
def test_union_of_shard_candidates_equals_single_tracker(
    docs, seeds, num_shards, min_support, horizon
):
    ordered_docs = sorted(docs, key=lambda d: d[0])
    config = EnBlogueConfig(
        window_horizon=horizon, evaluation_interval=horizon,
        min_pair_support=min_support,
    )

    single = CorrelationTracker(window_horizon=horizon,
                                min_pair_support=min_support)
    for timestamp, tags in ordered_docs:
        single.observe(timestamp, frozenset(tags))

    partitioner = PairPartitioner(num_shards)
    decomposer = DocumentDecomposer()
    shards = [make_tracker(config, track_usage=False)
              for _ in range(num_shards)]
    for timestamp, tags in ordered_docs:
        _, pairs = decomposer.decompose(frozenset(tags))
        for shard_id, event in partitioner.split_event(timestamp, pairs):
            shards[shard_id].observe_pair_events([event])
        # Empty documents still advance every shard's window, mirroring the
        # coordinator's eviction-by-broadcast at evaluation time.
        for shard in shards:
            shard.advance_to(timestamp)

    single_candidates = single.candidate_pairs(seeds)
    single.check_invariants()
    union = []
    for shard in shards:
        shard.check_invariants()
        union.extend(shard.candidate_pairs(seeds))
    assert sorted(union, key=lambda item: item[0]) == single_candidates

    # The shard-local live-pair sets partition the single tracker's.
    single_pairs = dict(single.candidate_index.items())
    shard_pairs = {}
    for shard in shards:
        for pair, count in shard.candidate_index.items():
            assert pair not in shard_pairs, "pair owned by two shards"
            shard_pairs[pair] = count
    assert shard_pairs == single_pairs


# -- the coordinator's ingest: one document at a time == any batching --------

INTERVAL = 20.0

# Mostly small gaps, so boundary-free runs grow past chunk_size 7 and are
# cut by it; the odd large one crosses several boundaries at once.  Tag
# sets of size 0 and 1 are documents with no pairs: they fill a chunk
# without adding an event to it.
stream_steps = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.0, 0.5, 1.0, 1.0, 3.0, 8.0, 45.0]),
        st.sets(tag_names, min_size=0, max_size=4),
    ),
    min_size=1,
    max_size=80,
)


def ingest_config():
    return config(
        window_horizon=3 * INTERVAL, evaluation_interval=INTERVAL,
        num_seeds=6, history_length=5,
    )


def drive(docs, calls, pauses, config, chunk_size, backend, directory):
    """Feed ``docs`` as the given calls; returns everything observable.

    ``calls`` are ``(start, stop)`` slices: a slice of one goes through
    ``process``, anything longer through ``process_batch``.  ``pauses``
    maps a document count to what happens once that many are in — both
    drivers are cut there, so both flush their buffers at the same point.
    """
    dispatched = []
    with ShardedEnBlogue(config, num_shards=2, backend=backend,
                         chunk_size=chunk_size) as engine:
        ingest = engine.backend.ingest

        def spy(chunks):
            dispatched.append([list(chunk) for chunk in chunks])
            ingest(chunks)

        engine.backend.ingest = spy
        for start, stop in calls:
            if stop - start == 1:
                engine.process(docs[start])
            elif stop > start:
                engine.process_batch(docs[start:stop])
            pause = pauses.get(stop)
            if pause == "snapshot":
                engine.snapshot()
            elif pause == "stats":
                engine.shard_stats()
            elif pause == "arm":
                engine.save_checkpoint(directory, track_deltas=True)
        delta = engine.delta_since(1) if "arm" in pauses.values() else None
        snapshot = engine.snapshot()
        check_invariants(snapshot)
        return signature(engine), snapshot, delta, dispatched


@settings(max_examples=60, deadline=None)
@given(
    steps=stream_steps,
    chunk_size=st.sampled_from([1, 7, 256]),
    backend=st.sampled_from(BY_REFERENCE),
    data=st.data(),
)
def test_batching_never_changes_what_the_shards_are_sent(
    steps, chunk_size, backend, data
):
    docs = build_docs(steps)
    config = ingest_config()
    positions = st.integers(min_value=0, max_value=len(docs))
    pauses = data.draw(
        st.dictionaries(
            positions, st.sampled_from(["snapshot", "stats", "arm"]),
            max_size=3,
        ),
        label="pauses",
    )
    cuts = data.draw(st.sets(positions, max_size=6), label="cuts")
    # The first call may be empty, so a pause at 0 happens on both sides.
    singles = [(0, 0)] + [(index, index + 1) for index in range(len(docs))]
    edges = sorted({0, len(docs)} | cuts | set(pauses))
    batches = [(0, 0)] + list(zip(edges, edges[1:]))
    with tempfile.TemporaryDirectory() as left, \
            tempfile.TemporaryDirectory() as right:
        expected = drive(docs, singles, pauses, config, chunk_size, backend,
                         left)
        batched = drive(docs, batches, pauses, config, chunk_size, backend,
                        right)
    for one, other in zip(expected, batched):
        assert one == other
