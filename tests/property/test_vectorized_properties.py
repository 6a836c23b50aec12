"""Property tests: the vectorized evaluation hot path is bit-identical.

The numpy-batched kernels in :mod:`repro.core.vectorized` are a pure
performance rewrite of the scalar evaluation loop — not an approximation.
On randomized streams the two paths must agree *exactly*:

- the measure kernels return the scalar measure's value, float for
  float, on the counts a tracker's (scalar) sampling loop hands out, for
  all four vectorizable measures;
- whole-engine rankings (sampling + shift scoring + top-k) are equal
  across every vectorizable measure × predictor combination (every
  sharded variant is a row of ``tests/differential.py``'s matrix);
- ``predict_batch`` returns the scalar predictor's forecast for every row
  of a right-aligned history matrix, wherever each row starts.

Equality is dataclass equality on floats — no tolerances anywhere.
"""

import pytest

from hypothesis import given, settings, strategies as st

from repro.core.config import EnBlogueConfig
from repro.core.correlation import (
    CosineCorrelation,
    JaccardCorrelation,
    OverlapCorrelation,
    PmiCorrelation,
)
from repro.core.engine import EnBlogue
from repro.core.tracker import CorrelationTracker
from repro.core.vectorized import (
    NUMPY_AVAILABLE,
    measure_candidates,
    np,
    predict_batch,
)
from repro.datasets.documents import Document
from repro.timeseries.predictors import EwmaPredictor, make_predictor
from repro.windows.aggregates import TagFrequencyWindow

from differential import HOUR


pytestmark = pytest.mark.skipif(
    not NUMPY_AVAILABLE, reason="vectorized path requires numpy"
)

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

measures = st.sampled_from([
    JaccardCorrelation(),
    OverlapCorrelation(),
    CosineCorrelation(),
    PmiCorrelation(),
])


@settings(max_examples=100, deadline=None)
@given(
    docs=documents,
    seeds=st.sets(tag_names, max_size=4),
    measure=measures,
    min_support=st.integers(min_value=1, max_value=3),
    horizon=st.floats(min_value=10.0, max_value=400.0, allow_nan=False),
)
def test_measure_kernels_equal_the_scalar_measure(
    docs, seeds, measure, min_support, horizon
):
    ordered = sorted(docs, key=lambda d: d[0])
    tracker = CorrelationTracker(window_horizon=horizon, measure=measure,
                                 min_pair_support=min_support)

    # Coordinator-style global statistics, independent of the tracker.
    window = TagFrequencyWindow(horizon)
    chunk = max(1, len(ordered) // 3)
    latest = 0.0
    for start in range(0, len(ordered), chunk):
        for timestamp, tags in ordered[start:start + chunk]:
            tracker.observe(timestamp, frozenset(tags))
            window.add_document(timestamp, tags)
            latest = timestamp
        window.advance_to(latest)
        # The scalar loop is the oracle: the counts it hands the measure,
        # through the kernel, must give its values back float for float.
        observations = tracker.sample_candidates(
            latest, seeds, window.counts, window.document_count
        )
        if not observations:
            continue
        counts = [observation.counts for observation in observations]
        kernel_values = measure_candidates(
            measure,
            np.array([c.count_a for c in counts], dtype=np.int64),
            np.array([c.count_b for c in counts], dtype=np.int64),
            np.array([c.count_both for c in counts], dtype=np.int64),
            window.document_count,
        ).tolist()
        assert kernel_values == [
            observation.correlation for observation in observations
        ]
        assert kernel_values == [
            max(0.0, measure.value(c)) for c in counts
        ]


engine_documents = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=200),
        st.sets(tag_names, min_size=1, max_size=4),
    ),
    min_size=5,
    max_size=50,
)


def engine_config(measure_name, predictor_name):
    return EnBlogueConfig(
        name="prop",
        window_horizon=6 * HOUR,
        evaluation_interval=HOUR,
        num_seeds=10,
        min_seed_count=1,
        min_pair_support=1,
        min_history=2,
        correlation_measure=measure_name,
        predictor=predictor_name,
        predictor_window=3,
    )


def as_docs(raw):
    ordered = sorted(raw, key=lambda d: d[0])
    return [
        Document(timestamp=minute * 60.0, doc_id=f"doc-{index}",
                 tags=frozenset(tags))
        for index, (minute, tags) in enumerate(ordered)
    ]


def run(engine, docs):
    rankings = engine.process_many(docs)
    final = engine.evaluate_now()
    return rankings + [final]


@settings(max_examples=40, deadline=None)
@given(
    raw=engine_documents,
    measure_name=st.sampled_from(["jaccard", "overlap", "cosine", "pmi"]),
    predictor_name=st.sampled_from(
        ["last", "moving_average", "ewma", "linear", "holt"]
    ),
)
def test_vectorized_engine_rankings_equal_scalar(
    raw, measure_name, predictor_name
):
    docs = as_docs(raw)
    cfg = engine_config(measure_name, predictor_name)
    scalar_engine = EnBlogue(cfg, vectorize=False)
    batched_engine = EnBlogue(cfg, vectorize=True)
    assert scalar_engine.evaluation_path == "scalar"
    assert batched_engine.evaluation_path == "vectorized"
    assert run(scalar_engine, docs) == run(batched_engine, docs)


# -- predictor kernels: one pass, whatever the history lengths -------------------

PREDICTORS = {
    "last": lambda: make_predictor("last"),
    "moving_average": lambda: make_predictor("moving_average", window=3),
    "ewma": lambda: make_predictor("ewma"),
    "ewma_alpha_1": lambda: EwmaPredictor(alpha=1.0),
    "linear": lambda: make_predictor("linear"),
    "holt": lambda: make_predictor("holt"),
}

history_values = st.floats(
    min_value=0.0, max_value=1.0, allow_nan=False, allow_infinity=False
)


@st.composite
def history_matrices(draw):
    """``(columns, rows)``: each row its own history, 1..columns values."""
    columns = draw(st.integers(min_value=1, max_value=9))
    shape = draw(st.sampled_from(
        ["every_start", "all_equal", "single_row", "mixed"]
    ))
    if shape == "every_start":
        # One row starting at every column, shuffled.
        lengths = draw(st.permutations(range(1, columns + 1)))
    elif shape == "all_equal":
        lengths = [draw(st.integers(1, columns))] * draw(st.integers(1, 6))
    elif shape == "single_row":
        lengths = [draw(st.integers(1, columns))]
    else:
        lengths = draw(st.lists(st.integers(1, columns), min_size=1,
                                max_size=8))
    rows = [
        draw(st.lists(history_values, min_size=length, max_size=length))
        for length in lengths
    ]
    return columns, rows


def right_aligned(columns, rows, padding):
    matrix = np.full((len(rows), columns), padding, dtype=np.float64)
    for index, row in enumerate(rows):
        matrix[index, columns - len(row):] = row
    return matrix


@settings(max_examples=300, deadline=None)
@given(
    name=st.sampled_from(sorted(PREDICTORS)),
    matrix=history_matrices(),
    padding=st.sampled_from([0.0, 0.75, -3.5]),
)
def test_predict_batch_equals_the_scalar_predictor(name, matrix, padding):
    predictor = PREDICTORS[name]()
    columns, rows = matrix
    # Gating is the caller's job: keep the rows the predictor can take —
    # which leaves lengths exactly at min_history in play.
    rows = [row for row in rows if len(row) >= predictor.min_history]
    if not rows:
        return
    usable = np.array([len(row) for row in rows], dtype=np.int64)
    # Whatever sits left of a row's own values must not leak into it.
    previous = right_aligned(columns, rows, padding)
    forecasts = predict_batch(predictor, previous, usable)
    assert forecasts.tolist() == [predictor.predict(row) for row in rows]


@pytest.mark.parametrize("name", sorted(PREDICTORS))
def test_predict_batch_at_min_history_and_full_length(name):
    predictor = PREDICTORS[name]()
    columns = 7
    rows = [
        [0.25 + 0.125 * step for step in range(length)]
        for length in (predictor.min_history, columns, predictor.min_history,
                       predictor.min_history + 1)
    ]
    usable = np.array([len(row) for row in rows], dtype=np.int64)
    forecasts = predict_batch(
        predictor, right_aligned(columns, rows, 0.0), usable
    )
    assert forecasts.tolist() == [predictor.predict(row) for row in rows]
