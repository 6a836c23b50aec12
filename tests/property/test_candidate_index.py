"""Property test: indexed candidate generation equals the brute-force scan.

The seed revision computed candidates by scanning every windowed pair at
evaluation time; the postings index maintains them incrementally across
arrivals and evictions.  On randomized streams the two must agree exactly —
same ``(pair, seed_tag)`` list, same order.
"""

from collections import Counter
from itertools import combinations

from hypothesis import example, given, settings, strategies as st

from repro.core.candidates import CandidateIndex
from repro.core.tracker import CorrelationTracker
from repro.core.types import TagPair

tag_names = st.sampled_from(
    ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"]
)

documents = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=500.0, allow_nan=False),
        st.sets(tag_names, min_size=0, max_size=4),
    ),
    min_size=1,
    max_size=40,
)


def brute_force_candidates(tracker, seeds):
    """The seed revision's scan, reimplemented from the tracker's live pairs."""
    seed_set = set(seeds)
    if not seed_set:
        return []
    candidates = []
    for pair, count in tracker.candidate_index.items():
        if count < tracker.min_pair_support:
            continue
        if pair.first in seed_set:
            candidates.append((pair, pair.first))
        elif pair.second in seed_set:
            candidates.append((pair, pair.second))
    candidates.sort(key=lambda item: item[0])
    return candidates


@settings(max_examples=150, deadline=None)
@given(
    docs=documents,
    seeds=st.sets(tag_names, max_size=4),
    min_support=st.integers(min_value=1, max_value=3),
    horizon=st.floats(min_value=10.0, max_value=400.0, allow_nan=False),
)
def test_indexed_candidates_match_brute_force_scan(docs, seeds, min_support, horizon):
    tracker = CorrelationTracker(window_horizon=horizon,
                                 min_pair_support=min_support)
    for timestamp, tags in sorted(docs, key=lambda d: d[0]):
        tracker.observe(timestamp, tags)
    assert tracker.candidate_pairs(seeds) == brute_force_candidates(tracker, seeds)


@settings(max_examples=100, deadline=None)
@given(
    docs=documents,
    seeds=st.sets(tag_names, max_size=4),
    chunk=st.integers(min_value=1, max_value=7),
)
def test_batched_ingestion_matches_sequential_then_brute_force(docs, seeds, chunk):
    ordered = sorted(docs, key=lambda d: d[0])
    sequential = CorrelationTracker(window_horizon=120.0, min_pair_support=2)
    for timestamp, tags in ordered:
        sequential.observe(timestamp, tags)
    batched = CorrelationTracker(window_horizon=120.0, min_pair_support=2)
    for start in range(0, len(ordered), chunk):
        batched.observe_many(
            (timestamp, tags, ()) for timestamp, tags in ordered[start:start + chunk]
        )
    assert dict(sequential.candidate_index.items()) \
        == dict(batched.candidate_index.items())
    assert sequential.candidate_pairs(seeds) == batched.candidate_pairs(seeds)
    assert batched.candidate_pairs(seeds) == brute_force_candidates(batched, seeds)


@settings(max_examples=100, deadline=None)
@given(docs=documents, min_support=st.integers(min_value=1, max_value=3))
def test_postings_and_counts_stay_consistent(docs, min_support):
    """The postings are exactly the supported pairs, under both their tags."""
    tracker = CorrelationTracker(window_horizon=80.0,
                                 min_pair_support=min_support)
    for timestamp, tags in sorted(docs, key=lambda d: d[0]):
        tracker.observe(timestamp, tags)
        tracker.check_invariants()
    index = tracker.candidate_index
    live = dict(index.items())
    assert len(live) == len(index)
    assert all(count > 0 for count in live.values())
    expected = {}
    for pair, count in live.items():
        if count >= min_support:
            for tag in pair:
                expected.setdefault(tag, set()).add(pair)
    assert {tag: set(bucket)
            for tag, bucket in index._postings.items()} == expected


# -- the index alone, against a plain multiset ---------------------------------

ORACLE_TAGS = ["a", "b", "c", "d", "e"]
ORACLE_PAIRS = [TagPair(x, y) for x, y in combinations(ORACLE_TAGS, 2)]
AB, AC, BC = TagPair("a", "b"), TagPair("a", "c"), TagPair("b", "c")

pair_batches = st.lists(st.sampled_from(ORACLE_PAIRS), max_size=8)
index_steps = st.lists(
    st.one_of(
        st.tuples(st.just("add_many"), pair_batches),
        st.tuples(st.just("add_mapping"), st.dictionaries(
            st.sampled_from(ORACLE_PAIRS), st.integers(1, 4), max_size=3)),
        st.tuples(st.just("remove_many"), pair_batches),
        st.tuples(st.just("add"), st.sampled_from(ORACLE_PAIRS)),
        st.tuples(st.just("discard"), st.sampled_from(ORACLE_PAIRS)),
        st.tuples(st.just("min_support"), st.integers(1, 4)),
        st.tuples(st.just("snapshot_restore"), st.none()),
    ),
    max_size=30,
)


def check_against_oracle(index, oracle, min_support, seeds):
    """Every observable of ``index`` equals the multiset ``oracle``'s."""
    assert len(index) == len(oracle)
    assert dict(index.items()) == oracle
    for pair in ORACLE_PAIRS:
        assert index.count(pair) == oracle.get(pair, 0)
        assert (pair in index) == (pair in oracle)
    supported = {pair: count for pair, count in oracle.items()
                 if count >= min_support}
    expected = sorted(
        (pair, pair.first if pair.first in seeds else pair.second, count)
        for pair, count in supported.items()
        if pair.first in seeds or pair.second in seeds
    )
    # The postings walk against the full scan over the same counts.
    assert sorted(index.iter_candidates(seeds)) == expected
    assert index.candidates(seeds) == index.scan_candidates(seeds) \
        == [(pair, trigger) for pair, trigger, _ in expected]
    assert index.snapshot() == {
        "kind": "candidate-index",
        "version": 1,
        "min_support": min_support,
        "pairs": [[pair.first, pair.second, count]
                  for pair, count in sorted(oracle.items())],
    }
    # The structure the design rests on: one positive count per live pair,
    # the *supported* pairs — and only they — members of exactly their two
    # tags' buckets, no bucket left behind empty.
    index.check_invariants()
    memberships = sorted(
        (pair, tag) for tag, bucket in index._postings.items()
        for pair in bucket
    )
    assert memberships == sorted(
        (pair, tag) for pair in supported for tag in pair
    )


@settings(max_examples=200, deadline=None)
@given(steps=index_steps, seeds=st.sets(st.sampled_from(ORACLE_TAGS)))
# A pair dies in one batch and is reborn in a later one, beside a survivor.
@example(
    steps=[("add_many", [AB, AB, AC]), ("remove_many", [AB, AB, AB]),
           ("snapshot_restore", None), ("add_many", [AC, AB]),
           ("discard", AC), ("discard", AC), ("add", AC)],
    seeds={"a"},
)
# Crossing up inside one call: by multiplicity, and by the mapping form.
@example(
    steps=[("min_support", 3), ("add_many", [AB, AC, AB, AB]),
           ("add_mapping", {AC: 2, BC: 4})],
    seeds={"a"},
)
# Crossing up by the last of several calls; down again by a partial expiry.
@example(
    steps=[("min_support", 3), ("add", AB), ("add_many", [AB, AC]),
           ("add", AB), ("add", AB), ("remove_many", [AB, AB])],
    seeds={"b"},
)
# Supported straight to dead in one remove_many, beside a survivor in the
# same bucket; then reborn below support.
@example(
    steps=[("min_support", 2), ("add_many", [AB, AB, AC, AC, AC]),
           ("remove_many", [AB, AB, AC]), ("add", AB)],
    seeds={"a", "c"},
)
# The threshold raised, then lowered mid-stream: the rebuild drops the
# pairs it no longer admits and brings the retained ones back.
@example(
    steps=[("add_many", [AB, AB, AC, BC, BC, BC]), ("min_support", 3),
           ("add", AB), ("discard", BC), ("min_support", 2),
           ("snapshot_restore", None), ("min_support", 1)],
    seeds={"a", "b"},
)
# min_support = 1 (every live pair supported) and both tags seeds: the pair
# is reported once, under its smaller tag.
@example(
    steps=[("add_many", [AB, BC]), ("discard", AB), ("add", AB)],
    seeds={"a", "b", "c"},
)
def test_interleaved_maintenance_matches_a_plain_multiset(steps, seeds):
    index = CandidateIndex()
    oracle = {}
    min_support = 1
    check_against_oracle(index, oracle, min_support, seeds)
    for operation, argument in steps:
        if operation in ("add_many", "add", "add_mapping"):
            added = (argument if operation == "add_many"
                     else [argument] if operation == "add"
                     else Counter(argument).elements())
            getattr(index, "add" if operation == "add" else "add_many")(
                argument)
            for pair in added:
                oracle[pair] = oracle.get(pair, 0) + 1
        elif operation in ("remove_many", "discard"):
            removed = argument if operation == "remove_many" else [argument]
            getattr(index, operation)(argument)
            for pair in removed:
                # Removing a pair that is not live is ignored.
                if pair in oracle:
                    oracle[pair] -= 1
                    if not oracle[pair]:
                        del oracle[pair]
        elif operation == "min_support":
            index.min_support = min_support = argument
        else:
            restored = CandidateIndex()
            restored.restore(index.snapshot())
            index = restored
        check_against_oracle(index, oracle, min_support, seeds)
