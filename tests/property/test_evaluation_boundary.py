"""Differential tests for the evaluation boundary's per-tag bookkeeping.

Seed selection is a bounded top-k and the count-history row is folded in
by C-level iteration; both must stay indistinguishable from the
implementations they replaced.  Those — the full sort over every live tag
and the two-loop row rule — live on here, and only here, as the oracles.

Also pinned: an evaluation reads the tracker's live count history (no
per-evaluation copy), a selector never modifies what it is handed, and a
popularity engine drops a history an older checkpoint hands it.  (That
every variant keeps exactly the scalar single engine's history — none
under ``popularity`` — is asserted on every differential-matrix cell.)

Last, where ``process_batch`` cuts a chunk: it finds each boundary-free
run by bisection, and every engine variant must evaluate exactly where the
document-at-a-time loop does (documents on a boundary, equal timestamps
around one, several boundaries crossed at once, empty chunks).

The variant tests run on the no-numpy CI leg too, where they pin the
scalar store; their fused-evaluator cases skip themselves there.
"""

import json
import math
import random
from collections import deque

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.engine import EnBlogue
from repro.core.seeds import make_seed_selector
from repro.core.tracker import CorrelationTracker
from repro.datasets.documents import Document
from repro.windows.aggregates import TagFrequencyWindow, record_count_history

from differential import (
    HOSTILE, close, config, count_history_of, in_process_variants, signature,
)

CRITERIA = ("popularity", "volatility", "hybrid")

#: A small alphabet so counts and scores tie often.
tag_names = st.sampled_from([f"t{index}" for index in range(12)])


# -- oracles: the implementations this PR replaced -----------------------------


def oracle_volatility(history_length, tag, count, history):
    past = []
    if history and tag in history:
        past = [float(v) for v in history[tag]]
        if len(past) > history_length:
            past = past[-history_length:]
    series = past + [float(count)]
    if len(series) < 2:
        return float(count) * 1e-3
    mean = sum(series) / len(series)
    if mean == 0:
        return 0.0
    variance = sum((v - mean) ** 2 for v in series) / (len(series) - 1)
    return math.sqrt(variance) / mean


def oracle_score(criterion, history_length, tag, count, history):
    if criterion == "popularity":
        return float(count)
    volatility = oracle_volatility(history_length, tag, count, history)
    if criterion == "volatility":
        return volatility
    return math.sqrt(max(float(count), 0.0) * max(volatility, 0.0))


def oracle_select(criterion, num_seeds, min_count, history_length,
                  window, history):
    """Score every live tag, sort them all, keep the first ``num_seeds``."""
    scored = []
    for tag in window.tags():
        count = window.count(tag)
        if count < min_count:
            continue
        score = oracle_score(criterion, history_length, tag, count, history)
        if score > 0:
            scored.append((tag, score))
    scored.sort(key=lambda item: (-item[1], item[0]))
    return [tag for tag, _ in scored[:num_seeds]]


def oracle_record_count_history(history, snapshot, history_length):
    """One Python loop over the row, a second over every tag ever seen."""
    for tag, count in snapshot.items():
        series = history.get(tag)
        if series is None:
            series = history[tag] = deque(maxlen=history_length)
        series.append(count)
    for tag, series in history.items():
        if tag not in snapshot:
            series.append(0)


# -- seed selection ------------------------------------------------------------


def build_window(counts):
    window = TagFrequencyWindow(1000.0)
    timestamp = 0.0
    for tag, count in counts.items():
        for _ in range(count):
            window.add_document(timestamp, [tag])
            timestamp += 0.001
    return window


def build_history(series_by_tag, container):
    if container == "deque":
        return {tag: deque(values, maxlen=16)
                for tag, values in series_by_tag.items()}
    wrap = tuple if container == "tuple" else list
    return {tag: wrap(values) for tag, values in series_by_tag.items()}


def history_contents(history):
    return {tag: list(series) for tag, series in history.items()}


@settings(max_examples=200, deadline=None)
@given(
    counts=st.dictionaries(tag_names, st.integers(1, 5), max_size=12),
    series_by_tag=st.dictionaries(
        tag_names, st.lists(st.integers(0, 5), max_size=10), max_size=12
    ),
    container=st.sampled_from(["list", "tuple", "deque", "none"]),
    num_seeds=st.integers(1, 14),
    min_count=st.integers(1, 4),
    history_length=st.integers(2, 6),
)
# Constant series score zero volatility and must be dropped, not ranked last.
@example(counts={"t0": 3, "t1": 3}, series_by_tag={"t0": [3, 3], "t1": [1, 5]},
         container="deque", num_seeds=5, min_count=1,
         history_length=4)
# Fewer live tags than seeds, all tied on count.
@example(counts={"t2": 2, "t1": 2, "t0": 2}, series_by_tag={},
         container="list", num_seeds=14, min_count=2,
         history_length=2)
def test_selectors_match_the_sort_based_oracle(
    counts, series_by_tag, container, num_seeds, min_count, history_length,
):
    window = build_window(counts)
    history = (None if container == "none"
               else build_history(series_by_tag, container))
    before = None if history is None else history_contents(history)
    series = [] if history is None else list(history.values())
    for criterion in CRITERIA:
        selector = make_seed_selector(
            criterion, num_seeds=num_seeds, min_count=min_count,
            history_length=history_length,
        )
        assert selector.select(window, history) == oracle_select(
            criterion, num_seeds, min_count, history_length, window, history,
        )
        # The selector is handed live state: it must leave it untouched.
        if history is not None:
            assert history_contents(history) == before
        if series:
            assert all(a is b for a, b in zip(history.values(), series))


@settings(max_examples=100, deadline=None)
@given(
    counts=st.dictionaries(tag_names, st.integers(1, 5), max_size=12),
    k=st.integers(-1, 14),
    min_count=st.integers(1, 4),
)
def test_top_tags_matches_a_full_sort(counts, k, min_count):
    window = build_window(counts)
    ranked = sorted(
        ((tag, count) for tag, count in counts.items() if count >= min_count),
        key=lambda item: (-item[1], item[0]),
    )
    assert window.top_tags(k, min_count) == ranked[:max(k, 0)]


# -- the count-history row rule ------------------------------------------------

#: Rows over a small alphabet: tags appear, vanish and reappear.
count_rows = st.lists(
    st.dictionaries(tag_names, st.integers(1, 9), max_size=8), max_size=12
)


@settings(max_examples=200, deadline=None)
@given(rows=count_rows, history_length=st.integers(1, 4))
def test_row_rule_matches_the_two_loop_oracle(rows, history_length):
    expected = {}
    plain = {}
    for row in rows:
        oracle_record_count_history(expected, row, history_length)
        record_count_history(plain, row, history_length)
        # Equal series and equal (first-appearance) key order, row by row.
        assert list(plain.items()) == list(expected.items())
        assert all(series.maxlen == history_length
                   for series in plain.values())


@settings(max_examples=100, deadline=None)
@given(before=count_rows, after=count_rows)
def test_base_plus_replayed_input_reproduces_the_count_history(before, after):
    # A journal replays the input after the base: a tracker restored from
    # the base and fed the same rows must hold the live count history.
    live = CorrelationTracker(window_horizon=1.5, history_length=3)

    def play(tracker, rows, timestamp):
        for row in rows:
            timestamp += 1.0
            for tag, count in row.items():
                for _ in range(count):
                    tracker.observe(timestamp, [tag])
            tracker.advance_to(timestamp)
            tracker.record_count_history_row()
        return timestamp

    timestamp = play(live, before, 0.0)
    replica = CorrelationTracker(window_horizon=1.5, history_length=3)
    replica.restore(live.snapshot())
    play(live, after, timestamp)
    play(replica, after, timestamp)
    replayed = replica.snapshot()["count_history"]
    expected = live.snapshot()["count_history"]
    assert list(replayed.items()) == list(expected.items())
    assert expected == live.count_history()


# -- the engine reads the live history, it does not copy it --------------------


def boundary_config(criterion):
    return config(**dict(HOSTILE, num_seeds=4), predictor_window=6,
                  seed_criterion=criterion)


def boundary_documents():
    tags = ["alpha", "beta", "gamma", "delta", "epsilon"]
    return [
        Document(
            timestamp=float(index), doc_id=f"doc-{index}",
            tags=frozenset({tags[index % 5], tags[(index * 3 + 1) % 5]}),
        )
        for index in range(200)
    ]


def test_process_batch_never_copies_the_count_history(monkeypatch):
    calls = []
    original = CorrelationTracker.count_history

    def spy(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(CorrelationTracker, "count_history", spy)
    for criterion in CRITERIA:
        engine = EnBlogue(boundary_config(criterion))
        documents = boundary_documents()
        rankings = []
        for start in range(0, len(documents), 16):
            rankings.extend(engine.process_batch(documents[start:start + 16]))
        assert len(rankings) == 7
        # Only a criterion that reads the history has one to copy.
        assert bool(engine.tracker.count_history_map) == (
            criterion != "popularity"
        )
    assert calls == []


def test_selector_is_handed_the_live_history_itself(monkeypatch):
    for criterion in CRITERIA:
        engine = EnBlogue(boundary_config(criterion))
        handed = []
        select = engine.seed_selector.select

        def spy(window, history=None):
            handed.append(history)
            return select(window, history)

        monkeypatch.setattr(engine.seed_selector, "select", spy)
        engine.process_batch(boundary_documents())
        assert len(handed) == 7
        assert all(history is engine.tracker.count_history_map
                   for history in handed)


# -- the history exists only for a criterion that reads it ---------------------
#
# That a popularity engine keeps, snapshots and journals no history, and a
# volatility or hybrid engine exactly the scalar single engine's (key order
# included, replayed from its journal at every tick), is asserted on every
# cell of ``tests/property/test_differential.py``.

VARIANTS = in_process_variants()


def feed(engine, documents):
    for start in range(0, len(documents), 16):
        engine.process_batch(documents[start:start + 16])


def churning_documents():
    """Tags that appear, fade out of the window and come back."""
    rng = random.Random(5)
    tags = [f"tag{index}" for index in range(9)]
    documents = []
    for index in range(3 * 84 + 30):
        era = tags[(index // 40) % 3 * 3:][:5]
        documents.append(Document(
            timestamp=float(index), doc_id=f"doc-{index}",
            tags=frozenset(rng.sample(era, rng.randint(1, 3))),
        ))
    return documents


@pytest.mark.parametrize("row, evaluation", VARIANTS)
def test_restoring_a_history_into_a_popularity_engine_drops_it(
    row, evaluation
):
    """A checkpoint from before the history became conditional carries one
    under every criterion: it restores, and the next snapshot is canonical.
    """
    documents = churning_documents()
    half = len(documents) // 2
    uninterrupted = row.build(boundary_config("popularity"), evaluation)
    resumed = row.build(boundary_config("popularity"), evaluation)
    # What the older code kept: the volatility engine's history at the
    # same stream position (the row rule never depended on the criterion).
    recorder = EnBlogue(boundary_config("volatility"), vectorize=False)
    try:
        feed(uninterrupted, documents[:half])
        feed(recorder, documents[:half])
        history = recorder.snapshot()["tracker"]["count_history"]
        assert history
        old_format = json.loads(json.dumps(uninterrupted.snapshot()))
        if not row.shards:
            old_format["tracker"]["count_history"] = history
        else:
            old_format["count_history"] = history
        resumed.restore(old_format)
        assert resumed.snapshot() == uninterrupted.snapshot()
        feed(uninterrupted, documents[half:])
        feed(resumed, documents[half:])
        assert signature(resumed) == signature(uninterrupted)
        assert resumed.snapshot() == uninterrupted.snapshot()
        assert count_history_of(resumed.snapshot()) == {}
    finally:
        close(uninterrupted)
        close(resumed)


# -- where process_batch cuts a chunk ------------------------------------------

#: Chunks of timestamps around the evaluation boundaries (every 25 after
#: the first document at 0), each a case the bisection must cut exactly
#: where the document-at-a-time loop evaluates.
CUT_CASES = {
    "first-document-of-a-chunk-on-a-boundary":
        [[0.0, 10.0, 24.0], [25.0, 26.0, 49.0], [50.0]],
    "every-document-on-a-boundary":
        [[0.0, 25.0, 50.0, 75.0], [100.0, 125.0]],
    "one-document-crossing-several-boundaries":
        [[0.0, 1.0, 130.0, 131.0], [290.0]],
    "equal-timestamps-straddling-a-cut":
        [[0.0, 24.0, 24.0, 25.0, 25.0], [25.0, 25.0, 26.0, 50.0, 50.0]],
    "empty-chunks":
        [[], [0.0, 12.0], [], [30.0, 80.0], []],
    "no-boundary-at-all":
        [[0.0, 1.0, 2.0], [3.0, 24.0]],
}


def cut_documents(chunks):
    tags = ["alpha", "beta", "gamma", "delta"]
    result, index = [], 0
    for chunk in chunks:
        documents = []
        for timestamp in chunk:
            documents.append(Document(
                timestamp=timestamp, doc_id=f"doc-{index}",
                tags=frozenset({tags[index % 4], tags[(index + 1) % 4],
                                tags[(index * 3 + 2) % 4]}),
            ))
            index += 1
        result.append(documents)
    return result


def listen(engine):
    """Record ``documents_processed`` as every published ranking sees it."""
    seen = []
    engine.add_ranking_listener(
        lambda ranking: seen.append(
            (ranking.timestamp, engine.documents_processed))
    )
    return seen


@pytest.mark.parametrize("case", CUT_CASES)
@pytest.mark.parametrize("row, evaluation", VARIANTS)
def test_process_batch_cuts_where_process_evaluates(row, evaluation, case):
    chunks = cut_documents(CUT_CASES[case])
    engine = row.build(boundary_config("popularity"), evaluation)
    reference = EnBlogue(boundary_config("popularity"), vectorize=False)
    try:
        seen, expected_seen = listen(engine), listen(reference)
        for chunk in chunks:
            published = len(expected_seen)
            produced = engine.process_batch(chunk)
            for document in chunk:
                reference.process(document)
            # One ranking per crossed boundary, in order (process itself
            # returns only the last one a document triggered).
            assert [ranking.timestamp for ranking in produced] == [
                timestamp for timestamp, _ in expected_seen[published:]
            ]
            assert engine.documents_processed \
                == reference.documents_processed
        assert seen == expected_seen
        assert signature(engine) == signature(reference)
        final = max(sum(CUT_CASES[case], [])) + 25.0
        assert engine.evaluate_now(final).topics \
            == reference.evaluate_now(final).topics
        if not row.shards:
            assert engine.snapshot() == reference.snapshot()
    finally:
        close(engine)

