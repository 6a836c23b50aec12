"""Differential tests for the evaluation boundary's per-tag bookkeeping.

Seed selection is a bounded top-k and the count-history row is folded in
by C-level iteration; both must stay indistinguishable from the
implementations they replaced.  Those — the full sort over every live tag
and the two-loop row rule — live on here, and only here, as the oracles.

Also pinned: an evaluation reads the tracker's live count history (no
per-evaluation copy) and a selector never modifies what it is handed.
"""

import math
from collections import deque

from hypothesis import example, given, settings, strategies as st

from repro.core.config import EnBlogueConfig
from repro.core.engine import EnBlogue
from repro.core.seeds import make_seed_selector
from repro.core.tracker import CorrelationTracker
from repro.datasets.documents import Document
from repro.persistence.delta import _replay_count_rows
from repro.windows.aggregates import TagFrequencyWindow
from repro.windows.striped import StripedCountHistory, record_count_history

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


def build_window(counts, stripes):
    window = TagFrequencyWindow(1000.0, stripes=stripes)
    timestamp = 0.0
    for tag, count in counts.items():
        for _ in range(count):
            window.add_document(timestamp, [tag])
            timestamp += 0.001
    return window


def build_history(series_by_tag, container):
    if container == "striped":
        history = StripedCountHistory(history_length=16, stripes=3)
        history.seed(series_by_tag)
        return history
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
    container=st.sampled_from(["list", "tuple", "deque", "striped", "none"]),
    stripes=st.sampled_from([1, 2]),
    num_seeds=st.integers(1, 14),
    min_count=st.integers(1, 4),
    history_length=st.integers(2, 6),
)
# Constant series score zero volatility and must be dropped, not ranked last.
@example(counts={"t0": 3, "t1": 3}, series_by_tag={"t0": [3, 3], "t1": [1, 5]},
         container="deque", stripes=1, num_seeds=5, min_count=1,
         history_length=4)
# Fewer live tags than seeds, all tied on count.
@example(counts={"t2": 2, "t1": 2, "t0": 2}, series_by_tag={},
         container="list", stripes=1, num_seeds=14, min_count=2,
         history_length=2)
def test_selectors_match_the_sort_based_oracle(
    counts, series_by_tag, container, stripes, num_seeds, min_count,
    history_length,
):
    window = build_window(counts, stripes)
    history = (None if container == "none"
               else build_history(series_by_tag, container))
    before = None if history is None else history_contents(history)
    # Striped reads hand out tuples; only a plain dict exposes the series.
    series = list(history.values()) if isinstance(history, dict) else []
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
    stripes=st.sampled_from([1, 2]),
)
def test_top_tags_matches_a_full_sort(counts, k, min_count, stripes):
    window = build_window(counts, stripes)
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
@given(rows=count_rows, history_length=st.integers(1, 4),
       stripes=st.integers(1, 4))
def test_row_rule_matches_the_two_loop_oracle(rows, history_length, stripes):
    expected = {}
    plain = {}
    striped = StripedCountHistory(history_length, stripes=stripes)
    for row in rows:
        oracle_record_count_history(expected, row, history_length)
        record_count_history(plain, row, history_length)
        striped.record_row(row)
        # Equal series and equal (first-appearance) key order, row by row.
        assert list(plain.items()) == list(expected.items())
        assert all(series.maxlen == history_length
                   for series in plain.values())
        assert striped.merged() == {
            tag: tuple(series) for tag, series in expected.items()
        }


@settings(max_examples=100, deadline=None)
@given(before=count_rows, after=count_rows)
def test_base_plus_journal_replay_reproduces_the_count_history(before, after):
    tracker = CorrelationTracker(window_horizon=1.5, history_length=3)
    timestamp = 0.0

    def play(rows):
        nonlocal timestamp
        for row in rows:
            timestamp += 1.0
            for tag, count in row.items():
                for _ in range(count):
                    tracker.observe(timestamp, [tag])
            tracker.advance_to(timestamp)
            tracker.record_count_history_row()

    play(before)
    base = tracker.snapshot()
    tracker.begin_delta_tracking()
    play(after)
    delta = tracker.delta_since(0)
    assert len(delta["count_rows"]) == len(after)
    replayed = _replay_count_rows(
        base["count_history"], delta["count_rows"], tracker.history_length
    )
    live = tracker.snapshot()["count_history"]
    assert list(replayed.items()) == list(live.items())
    assert live == tracker.count_history()


# -- the engine reads the live history, it does not copy it --------------------


def boundary_config(criterion):
    return EnBlogueConfig(
        window_horizon=100.0, evaluation_interval=25.0, num_seeds=4,
        min_seed_count=1, min_pair_support=1, min_history=2,
        history_length=6, seed_criterion=criterion,
    )


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
        assert engine.tracker.count_history_map
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
