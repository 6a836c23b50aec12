"""Property-based tests (hypothesis) on core data structures and invariants."""

import math

from hypothesis import given, settings, strategies as st

from repro.core.correlation import (
    CosineCorrelation,
    JaccardCorrelation,
    OverlapCorrelation,
    PairCounts,
    PmiCorrelation,
)
from repro.core.types import TagPair
from repro.timeseries.predictors import (
    EwmaPredictor,
    LinearTrendPredictor,
    MovingAveragePredictor,
)
from repro.windows.aggregates import TagFrequencyWindow
from repro.windows.decay import DecayedMaximum, ExponentialDecay

# -- strategies ---------------------------------------------------------------

tag_names = st.text(alphabet="abcdefgh", min_size=1, max_size=4)

pair_counts = st.builds(
    lambda total, a, b, both: PairCounts(
        count_a=a, count_b=b,
        count_both=min(both, a, b),
        total_documents=max(total, a, b),
    ),
    total=st.integers(min_value=0, max_value=500),
    a=st.integers(min_value=0, max_value=200),
    b=st.integers(min_value=0, max_value=200),
    both=st.integers(min_value=0, max_value=200),
)

correlation_histories = st.lists(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=2, max_size=30
)


# -- correlation measures ------------------------------------------------------------


class TestCorrelationMeasureProperties:
    @given(counts=pair_counts)
    def test_set_measures_are_bounded(self, counts):
        for measure in (JaccardCorrelation(), OverlapCorrelation(),
                        CosineCorrelation(), PmiCorrelation()):
            value = measure.value(counts)
            assert 0.0 <= value <= 1.0 + 1e-9

    @given(counts=pair_counts)
    def test_jaccard_never_exceeds_overlap_coefficient(self, counts):
        jaccard = JaccardCorrelation().value(counts)
        overlap = OverlapCorrelation().value(counts)
        assert jaccard <= overlap + 1e-9

    @given(counts=pair_counts)
    def test_zero_intersection_means_zero_correlation(self, counts):
        if counts.count_both == 0:
            assert JaccardCorrelation().value(counts) == 0.0
            assert CosineCorrelation().value(counts) == 0.0

    @given(
        a=st.integers(min_value=1, max_value=100),
        total=st.integers(min_value=1, max_value=400),
    )
    def test_identical_document_sets_have_maximal_correlation(self, a, total):
        counts = PairCounts(count_a=a, count_b=a, count_both=a,
                            total_documents=max(total, a))
        assert JaccardCorrelation().value(counts) == 1.0
        assert OverlapCorrelation().value(counts) == 1.0
        assert CosineCorrelation().value(counts) == 1.0


# -- tag pairs ---------------------------------------------------------------------


class TestTagPairProperties:
    @given(a=tag_names, b=tag_names)
    def test_construction_is_order_independent(self, a, b):
        if a == b:
            return
        assert TagPair(a, b) == TagPair(b, a)
        assert hash(TagPair(a, b)) == hash(TagPair(b, a))

    @given(a=tag_names, b=tag_names)
    def test_canonical_order_is_sorted(self, a, b):
        if a == b:
            return
        pair = TagPair(a, b)
        assert pair.first <= pair.second
        assert set(pair.as_tuple()) == {a, b}


# -- sliding windows ------------------------------------------------------------------


class TestWindowProperties:
    @given(
        documents=st.lists(
            st.tuples(st.floats(min_value=0.0, max_value=1000.0, allow_nan=False),
                      st.lists(tag_names, min_size=1, max_size=3)),
            min_size=1, max_size=60,
        ),
        horizon=st.floats(min_value=1.0, max_value=200.0, allow_nan=False),
    )
    def test_window_only_ever_holds_live_entries(self, documents, horizon):
        # The retention rule is "timestamp > latest - horizon"; recount in
        # exactly that form, since `latest - t < horizon` is not float-safe
        # when the two subtractions round differently.
        window = TagFrequencyWindow(horizon)
        added = []
        for timestamp, tags in sorted(documents, key=lambda d: d[0]):
            window.add_document(timestamp, tags)
            added.append((timestamp, set(tags)))
            cutoff = timestamp - horizon
            live = [tags for t, tags in added if t > cutoff]
            assert window.document_count == len(live)
            for tag in set().union(*(tags for _, tags in added)):
                assert window.count(tag) == sum(tag in tags for tags in live)

    @given(
        documents=st.lists(
            st.tuples(st.floats(min_value=0.0, max_value=500.0, allow_nan=False),
                      st.lists(tag_names, min_size=1, max_size=4)),
            min_size=1, max_size=40,
        ),
        horizon=st.floats(min_value=1.0, max_value=100.0, allow_nan=False),
    )
    def test_tag_counts_never_exceed_document_count(self, documents, horizon):
        window = TagFrequencyWindow(horizon)
        for timestamp, tags in sorted(documents, key=lambda d: d[0]):
            window.add_document(timestamp, tags)
            for tag in window.tags():
                assert 0 < window.count(tag) <= window.document_count


# -- decay ---------------------------------------------------------------------------


class TestDecayProperties:
    @given(
        half_life=st.floats(min_value=0.1, max_value=1e6, allow_nan=False),
        elapsed=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
        value=st.floats(min_value=0.0, max_value=1e3, allow_nan=False),
    )
    def test_decay_never_amplifies(self, half_life, elapsed, value):
        decay = ExponentialDecay(half_life)
        decayed = decay.decay(value, elapsed)
        assert 0.0 <= decayed <= value + 1e-9

    @given(
        observations=st.lists(
            st.tuples(st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
                      st.floats(min_value=0.0, max_value=10.0, allow_nan=False)),
            min_size=1, max_size=30,
        )
    )
    def test_decayed_maximum_dominates_every_decayed_observation(self, observations):
        decay = ExponentialDecay(half_life=10.0)
        tracker = DecayedMaximum(decay)
        ordered = sorted(observations, key=lambda item: item[0])
        for timestamp, value in ordered:
            tracker.update(timestamp, value)
        final_time = ordered[-1][0]
        final = tracker.value_at(final_time)
        for timestamp, value in ordered:
            assert final >= decay.decay(value, final_time - timestamp) - 1e-9


# -- predictors ------------------------------------------------------------------------


class TestPredictorProperties:
    @given(history=correlation_histories)
    def test_average_style_predictions_stay_within_range(self, history):
        low, high = min(history), max(history)
        for predictor in (MovingAveragePredictor(window=5), EwmaPredictor(alpha=0.4)):
            prediction = predictor.predict(history)
            assert low - 1e-9 <= prediction <= high + 1e-9

    @given(
        start=st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
        slope=st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
        length=st.integers(min_value=3, max_value=20),
    )
    def test_linear_predictor_is_exact_on_linear_series(self, start, slope, length):
        history = [start + slope * i for i in range(length)]
        prediction = LinearTrendPredictor(window=length).predict(history)
        expected = start + slope * length
        assert math.isclose(prediction, expected, rel_tol=1e-6, abs_tol=1e-6)

    @given(
        history=correlation_histories,
        value=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    )
    def test_constant_history_means_zero_shift_error(self, history, value):
        from repro.core.shift import ShiftDetector
        detector = ShiftDetector(predictor=MovingAveragePredictor(window=5), min_history=2)
        constant = [value] * len(history)
        assert detector.prediction_error(constant, value) <= 1e-9
