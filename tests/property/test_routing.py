"""The coordinator routes a tag set once: a differential against routing
every document on its own.

``ShardedEnBlogue`` keeps a tag set's per-shard split in the decomposition
memo and commits a boundary-free run to the shard buffers column-wise.
The oracle here does neither: it decomposes each document afresh (its tags
handed over as a ``list``, which bypasses the memo), calls
``split_event`` on its pairs and keeps its own count of buffered documents and evaluation boundaries.  A
recording backend then has to have been sent exactly the oracle's chunks —
per dispatch, per shard, element for element — with the coordinator's
``check_invariants()`` green after every call.

The second half pins the memo's two bounds (entries and tag-set width),
which the routed tuples make worth having: rankings stay bit-identical to
the single engine's while the memo evicts or declines.
"""

from functools import partial
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

import repro.core.tracker as tracker_module
from repro.core.config import EnBlogueConfig
from repro.core.engine import EnBlogue
from repro.core.tracker import DocumentDecomposer
from repro.sharding import ShardedEnBlogue
from repro.sharding.backends import SerialBackend
from repro.sharding.partitioner import PairPartitioner

from differential import IN_PROCESS, ROWS, signature


INTERVAL = 20.0

#: Spellings that normalise onto each other, and tags outside ASCII: the
#: shard of a pair is a CRC-32 of its UTF-8 bytes.
tag_names = st.sampled_from([
    "alpha", "Alpha ", "beta", "gamma", "delta", "epsilon",
    "café", "日本", "ñandú", "ÜBER", "über",
])

#: Every gap is a multiple of a quarter of the interval, so timestamps
#: land exactly on evaluation boundaries; a gap of one interval repeated
#: makes boundary-free runs that are one document long.
gaps = st.sampled_from([0.0, 0.0, 0.0, 5.0, 5.0, INTERVAL, 45.0])

#: How a document hands over its tags.  Frozensets are what the memo keys
#: on; a list (here with a duplicate) is decomposed afresh every time.
shapes = st.sampled_from(["frozenset", "frozenset", "list", "entities"])

stream_steps = st.lists(
    st.tuples(gaps, st.lists(tag_names, max_size=5), shapes),
    min_size=1, max_size=60,
)

WIDE = [f"w{index:03d}" for index in range(300)]


class RecordingBackend(SerialBackend):
    """The serial backend, keeping a copy of every dispatch it is sent."""

    def __init__(self):
        self.dispatched = []

    def ingest(self, chunks):
        self.dispatched.append([list(chunk) for chunk in chunks])
        super().ingest(chunks)


def build_stream(steps, wide_at):
    documents, now = [], 0.0
    for index, (gap, tags, shape) in enumerate(steps):
        now += gap
        if index == wide_at:
            documents.append(SimpleNamespace(
                timestamp=now, tags=frozenset(WIDE), entities=frozenset()))
        elif shape == "list":
            documents.append(SimpleNamespace(
                timestamp=now, tags=tags + tags[:1], entities=()))
        elif shape == "entities":
            documents.append(SimpleNamespace(
                timestamp=now, tags=frozenset(tags[:2]),
                entities=frozenset(tags[2:])))
        else:
            documents.append(SimpleNamespace(
                timestamp=now, tags=frozenset(tags), entities=frozenset()))
    return documents


def routing_config():
    return EnBlogueConfig(
        window_horizon=3 * INTERVAL,
        evaluation_interval=INTERVAL,
        num_seeds=6,
        min_seed_count=1,
        min_pair_support=1,
        min_history=2,
        predictor="moving_average",
        predictor_window=3,
        history_length=5,
    )


class DispatchOracle:
    """What one ``split_event`` per document sends, and when."""

    def __init__(self, config, num_shards, chunk_size):
        self.partitioner = PairPartitioner(num_shards)
        self.decomposer = DocumentDecomposer(use_entities=config.use_entities)
        self.interval = config.evaluation_interval
        self.chunk_size = chunk_size
        self.buffers = [[] for _ in range(num_shards)]
        self.buffered = 0
        self.next_evaluation = None
        self.dispatched = []

    def flush(self):
        if any(self.buffers):
            self.dispatched.append(self.buffers)
            self.buffers = [[] for _ in self.buffers]
        self.buffered = 0

    def feed(self, document):
        timestamp = document.timestamp
        if self.next_evaluation is None:
            self.next_evaluation = timestamp + self.interval
        while timestamp >= self.next_evaluation:
            self.flush()  # every evaluation starts with one
            self.next_evaluation += self.interval
        _, pairs = self.decomposer.decompose(
            list(document.tags), list(document.entities))
        for shard_id, event in self.partitioner.split_event(timestamp, pairs):
            self.buffers[shard_id].append(event)
        self.buffered += 1
        if self.buffered >= self.chunk_size:
            self.flush()


def coordinator_state(engine):
    """Everything a rejected run must leave alone (the memo is a cache)."""
    return (
        engine._tag_window.state_dict(),
        [list(buffer) for buffer in engine._buffers],
        engine._buffered_documents,
        engine._latest,
        engine.documents_processed,
    )


@settings(max_examples=60, deadline=None)
@given(
    steps=stream_steps,
    wide_at=st.one_of(st.none(), st.none(), st.none(), st.integers(0, 20)),
    chunk_size=st.sampled_from([1, 3, 256]),
    num_shards=st.sampled_from([1, 2, 4]),
    cuts=st.sets(st.integers(0, 60), max_size=6),
)
# A 300-tag document (44,850 pairs, wider than the memo admits) between
# recurring narrow ones, handed over as frozensets and as lists.
@example(
    steps=[(0.0, ["alpha", "beta"], "frozenset")] * 3
    + [(5.0, ["alpha", "beta", "café"], "frozenset")] * 3,
    wide_at=2, chunk_size=3, num_shards=4, cuts={1, 4},
)
@example(
    steps=[(0.0, ["alpha", "beta"], "frozenset")] * 3
    + [(INTERVAL, ["alpha", "beta", "日本"], "list")] * 3,
    wide_at=1, chunk_size=256, num_shards=2, cuts=set(),
)
def test_dispatched_chunks_equal_split_event_per_document(
    steps, wide_at, chunk_size, num_shards, cuts
):
    documents = build_stream(steps, wide_at)
    config = routing_config()
    oracle = DispatchOracle(config, num_shards, chunk_size)
    for document in documents:
        oracle.feed(document)
    oracle.flush()

    backend = RecordingBackend()
    edges = sorted({0, len(documents)} | {c for c in cuts if c < len(documents)})
    with ShardedEnBlogue(config, num_shards=num_shards, backend=backend,
                         chunk_size=chunk_size) as engine:
        for start, stop in zip(edges, edges[1:]):
            if stop - start == 1:
                engine.process(documents[start])
            else:
                engine.process_batch(documents[start:stop])
            engine.check_invariants()

        # A run that goes back in time is rejected whole, by the
        # coordinator's own check, before anything is touched.
        before = coordinator_state(engine)
        latest = documents[-1].timestamp
        with pytest.raises(ValueError, match="out-of-order document"):
            engine._ingest_observations([
                (latest + 1.0, frozenset({"alpha", "beta"}), ()),
                (latest + 0.5, frozenset({"beta", "gamma"}), ()),
            ])
        assert coordinator_state(engine) == before
        engine.check_invariants()

        engine.shard_stats()  # the closing flush
        engine.check_invariants()

    assert len(backend.dispatched) == len(oracle.dispatched)
    for sent, expected in zip(backend.dispatched, oracle.dispatched):
        assert sent == expected


@settings(max_examples=100, deadline=None)
@given(
    tags=st.lists(tag_names, max_size=8),
    num_shards=st.integers(1, 6),
)
def test_route_and_split_event_agree_with_shard_of(tags, num_shards):
    partitioner = PairPartitioner(num_shards)
    _, pairs = DocumentDecomposer().decompose(tags)
    routed = partitioner.route(pairs)
    assert len(routed) == num_shards
    for shard_id, shard_pairs in enumerate(routed):
        assert type(shard_pairs) is tuple
        assert list(shard_pairs) == [
            pair for pair in pairs if partitioner.shard_of(pair) == shard_id
        ]
    assert partitioner.split_event(7.0, pairs) == [
        (shard_id, (7.0, shard_pairs))
        for shard_id, shard_pairs in enumerate(routed) if shard_pairs
    ]


# -- the memo's bounds ---------------------------------------------------------


def memo_config():
    return EnBlogueConfig(
        window_horizon=60.0, evaluation_interval=10.0, num_seeds=8,
        min_seed_count=1, min_pair_support=2, min_history=2,
        predictor="moving_average", predictor_window=3, history_length=6,
    )


ENGINES = [
    pytest.param(partial(row.build, chunk_size=256), id=row.name)
    for row in [ROWS["single-fused"]] + [
        row for row in IN_PROCESS if row.shards == 2]
]


def decomposer_of(engine):
    tracker = getattr(engine, "tracker", None)
    return engine._decomposer if tracker is None else tracker._decomposer


def close(engine):
    if hasattr(engine, "close"):
        engine.close()


def run_one_at_a_time(make_engine, documents, after_each=lambda engine: None):
    engine = make_engine(memo_config())
    try:
        for document in documents:
            engine.process(document)
            after_each(engine)
        if hasattr(engine, "check_invariants"):
            engine.check_invariants()
        return signature(engine), len(decomposer_of(engine)._cache)
    finally:
        close(engine)


def unmemoised(documents):
    return [SimpleNamespace(timestamp=d.timestamp, tags=sorted(d.tags))
            for d in documents]


@pytest.mark.parametrize("make_engine", ENGINES)
def test_memo_stays_within_its_entry_limit(make_engine, monkeypatch):
    limit = 8
    monkeypatch.setattr(tracker_module, "_DECOMPOSE_CACHE_LIMIT", limit)
    monkeypatch.setattr(tracker_module, "_DECOMPOSE_EVICT_BATCH", 3)
    # 40 distinct tag sets, each recurring at once and again much later:
    # the second visit finds its entry evicted and decomposes afresh.
    tag_sets = [frozenset({f"t{index % 7}", f"u{index % 5}", f"v{index}"})
                for index in range(40)]
    documents = [
        SimpleNamespace(timestamp=float(index), tags=tag_sets[position])
        for index, position in enumerate(
            [p for p in range(40) for _ in range(2)] + list(range(40)))
    ]

    def within_limit(engine):
        assert len(decomposer_of(engine)._cache) <= limit

    rankings, entries = run_one_at_a_time(make_engine, documents, within_limit)
    assert 0 < entries <= limit
    reference, _ = run_one_at_a_time(
        lambda config: EnBlogue(config), unmemoised(documents))
    assert rankings == reference
    assert any(topics for _, _, topics in rankings)


@pytest.mark.parametrize("make_engine", ENGINES)
def test_wide_tag_sets_are_not_memoised(make_engine):
    # 200 distinct 40-tag documents (780 pairs each): every one is wider
    # than the memo admits, so it must stay empty.
    documents = [
        SimpleNamespace(
            timestamp=float(index),
            tags=frozenset(f"t{(index * 3 + offset) % 700:03d}"
                           for offset in range(40)),
        )
        for index in range(200)
    ]
    assert len({document.tags for document in documents}) == 200
    rankings, entries = run_one_at_a_time(make_engine, documents)
    assert entries == 0
    reference, _ = run_one_at_a_time(
        lambda config: EnBlogue(config), unmemoised(documents))
    assert rankings == reference
    assert any(topics for _, _, topics in rankings)
