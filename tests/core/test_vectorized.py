"""Unit tests for the vectorized evaluation hot path's switches and errors.

The bit-identity of the kernels themselves is property-tested in
``tests/property/test_vectorized_properties.py``; here we pin the
dispatch contract — vectorized by default, ``vectorize=False`` forcing
the scalar path, kernel-less measures falling back to scalar — and
the error paths (batched validation raising the scalar pair-named
message, stale timestamps rejected) — plus the structure that keeps an
evaluation's cost fixed: no ``np.unique`` in the recurrence kernels or
the decay pass, and one decay pass per evaluation.
"""

import math

import pytest

np = pytest.importorskip("numpy")

from repro.core import vectorized

from repro.core.config import EnBlogueConfig
from repro.core.correlation import (
    JaccardCorrelation,
    KlDivergenceCorrelation,
    PmiCorrelation,
)
from repro.core.engine import EnBlogue
from repro.core.ranking import RankingBuilder
from repro.core.shift import ShiftDetector
from repro.core.tracker import CorrelationTracker
from repro.core.types import TagPair
from repro.core.vectorized import (
    NUMPY_AVAILABLE,
    VECTORIZED_PREDICTOR_NAMES,
    config_vectorizes,
    decay_factors,
    make_fused_evaluator,
    measure_candidates,
    measure_supported,
    predict_batch,
    validate_pair_counts,
)

from repro.timeseries.predictors import EwmaPredictor, HoltPredictor

pytestmark = pytest.mark.skipif(
    not NUMPY_AVAILABLE, reason="vectorized path requires numpy"
)

HOUR = 3600.0


def config(**overrides):
    defaults = dict(
        window_horizon=6 * HOUR,
        evaluation_interval=HOUR,
        num_seeds=10,
        min_seed_count=1,
        min_pair_support=1,
        min_history=2,
        predictor="moving_average",
        predictor_window=3,
    )
    defaults.update(overrides)
    return EnBlogueConfig(**defaults)


def parts(tracker=None):
    tracker = tracker or CorrelationTracker(window_horizon=HOUR)
    return tracker, ShiftDetector(), RankingBuilder()


class TestDispatchSwitches:
    def test_auto_detection_builds_the_evaluator(self):
        assert make_fused_evaluator(*parts()) is not None
        assert make_fused_evaluator(*parts(), enabled=True) is not None

    def test_enabled_false_forces_scalar(self):
        assert make_fused_evaluator(*parts(), enabled=False) is None

    def test_kernel_less_measure_falls_back_to_scalar(self):
        assert not measure_supported(KlDivergenceCorrelation())
        tracker = CorrelationTracker(
            window_horizon=HOUR, measure=KlDivergenceCorrelation(),
            track_usage=True,
        )
        assert make_fused_evaluator(*parts(tracker)) is None

    def test_subclassed_measure_falls_back_to_scalar(self):
        # A subclass may override value(); the exact-type kernel registry
        # must not silently apply the parent's kernel.
        class Tweaked(JaccardCorrelation):
            def value(self, counts, usage_a=None, usage_b=None):
                return 0.5

        assert not measure_supported(Tweaked())
        assert make_fused_evaluator(
            *parts(CorrelationTracker(window_horizon=HOUR, measure=Tweaked()))
        ) is None

    def test_config_vectorizes_checks_measure_and_predictor(self):
        assert config_vectorizes(config())
        assert not config_vectorizes(config(correlation_measure="kl"))
        assert "moving_average" in VECTORIZED_PREDICTOR_NAMES

    def test_engine_reports_its_evaluation_path(self):
        assert EnBlogue(config()).evaluation_path == "vectorized"
        assert EnBlogue(config(), vectorize=False).evaluation_path == "scalar"

    def test_engine_runtime_info(self):
        info = EnBlogue(config()).runtime_info()
        assert info["engine"] == "single"
        assert info["backend"] == "inline"
        assert info["shards"] == 1
        assert info["evaluation_path"] in ("vectorized", "scalar")


class TestBatchedValidation:
    def test_bad_counts_raise_the_scalar_pair_named_message(self):
        candidates = [
            (TagPair("a", "b"), "a", 3),
            (TagPair("a", "c"), "a", 2),
        ]
        with pytest.raises(ValueError,
                           match=r"either tag count for pair \(a, c\)"):
            validate_pair_counts(
                candidates,
                np.array([3, 1], dtype=np.int64),
                np.array([4, 1], dtype=np.int64),
                np.array([2, 2], dtype=np.int64),  # second exceeds both
                10,
            )

    def test_negative_total_raises(self):
        candidates = [(TagPair("a", "b"), "a", 1)]
        with pytest.raises(ValueError, match=r"for pair \(a, b\)"):
            validate_pair_counts(
                candidates,
                np.array([0], dtype=np.int64),
                np.array([0], dtype=np.int64),
                np.array([0], dtype=np.int64),
                -1,
            )

    def test_valid_counts_pass(self):
        candidates = [(TagPair("a", "b"), "a", 2)]
        validate_pair_counts(
            candidates,
            np.array([3], dtype=np.int64),
            np.array([4], dtype=np.int64),
            np.array([2], dtype=np.int64),
            10,
        )

    def test_kernel_less_measure_rejected_by_measure_candidates(self):
        with pytest.raises(ValueError, match="no vectorized kernel"):
            measure_candidates(
                KlDivergenceCorrelation(),
                np.array([1], dtype=np.int64),
                np.array([1], dtype=np.int64),
                np.array([1], dtype=np.int64),
                10,
            )

    def test_batched_values_match_scalar_measure(self):
        measure = PmiCorrelation()
        count_a = np.array([5, 3, 7], dtype=np.int64)
        count_b = np.array([4, 3, 2], dtype=np.int64)
        count_both = np.array([2, 0, 2], dtype=np.int64)
        values = measure_candidates(measure, count_a, count_b, count_both, 20)
        from repro.core.correlation import PairCounts
        for index in range(3):
            scalar = measure.value(PairCounts(
                count_a=int(count_a[index]),
                count_b=int(count_b[index]),
                count_both=int(count_both[index]),
                total_documents=20,
            ))
            assert float(values[index]) == scalar


class TestStaleEvaluationRejected:
    def test_evaluating_before_the_stream_head_raises(self):
        # Same guard (and wording) as the scalar path: stream time is
        # monotone, so a backwards evaluation fails at the tracker.
        engine = EnBlogue(config(), vectorize=True)
        assert engine.evaluation_path == "vectorized"
        from repro.datasets.documents import Document
        for t in range(8):
            engine.process(Document(
                timestamp=t * HOUR, doc_id=f"d{t}",
                tags=frozenset({"a", "b"}),
            ))
        with pytest.raises(ValueError, match="cannot advance backwards"):
            engine.evaluate_now(0.0)

    def test_scores_from_the_future_raise_in_the_batch(self):
        # A decayed maximum stamped *after* the evaluation timestamp (a
        # corrupted restore) must fail loudly, exactly like the scalar
        # DecayedMaximum would, instead of decaying by exp(+x).
        engine = EnBlogue(config(), vectorize=True)
        from repro.datasets.documents import Document
        for t in range(8):
            engine.process(Document(
                timestamp=t * HOUR, doc_id=f"d{t}",
                tags=frozenset({"a", "b", "c"}),
            ))
        state = engine.detector.snapshot()
        assert state["scores"], "the replay scored nothing to corrupt"
        state["scores"][0][3] = 100 * HOUR
        engine.detector.restore(state)
        before = engine.snapshot()
        with pytest.raises(ValueError, match="cannot evaluate in the past"):
            engine.evaluate_now(9 * HOUR)
        # Checked before any column is written: apart from the clock and
        # the count row the engine advanced first, nothing moved.
        after = engine.snapshot()
        assert after["tracker"]["histories"] == before["tracker"]["histories"]
        assert after["detector"] == before["detector"]


class TestFixedCostPerEvaluation:
    """The evaluation's cost is a fixed handful of array passes: the
    recurrence kernels and the decay pass group nothing by value."""

    @staticmethod
    def forbid_unique(monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("np.unique called")

        monkeypatch.setattr(vectorized.np, "unique", forbidden)

    @pytest.mark.parametrize("predictor", [EwmaPredictor(), HoltPredictor()])
    def test_recurrence_kernels_do_not_group_by_length(
        self, monkeypatch, predictor
    ):
        rows = [[0.5, 0.25], [0.1, 0.2, 0.4, 0.8], [0.3, 0.3, 0.9]]
        previous = np.zeros((3, 5))
        for index, row in enumerate(rows):
            previous[index, 5 - len(row):] = row
        usable = np.array([len(row) for row in rows], dtype=np.int64)
        self.forbid_unique(monkeypatch)
        forecasts = predict_batch(predictor, previous, usable)
        assert forecasts.tolist() == [predictor.predict(row) for row in rows]

    def test_decay_factors_equal_math_exp_elementwise(self, monkeypatch):
        rate = math.log(2) / (24 * HOUR)
        elapsed = [0.0, HOUR, HOUR, 0.0, 7 * HOUR, 1e12, 1e300, HOUR, 0.5]
        self.forbid_unique(monkeypatch)
        factors = decay_factors(rate, np.array(elapsed))
        assert factors.dtype == np.float64
        assert factors.tolist() == [math.exp(-rate * e) for e in elapsed]
        assert factors[0] == 1.0 and factors[6] == 0.0
        assert decay_factors(rate, np.array([])).tolist() == []

    def test_one_decay_pass_per_evaluation(self, monkeypatch):
        from repro.datasets.documents import Document

        calls = []
        original = vectorized.decay_factors

        def spy(decay_rate, elapsed):
            calls.append(len(elapsed))
            return original(decay_rate, elapsed)

        monkeypatch.setattr(vectorized, "decay_factors", spy)
        engine = EnBlogue(config(predictor="ewma"), vectorize=True)
        rankings = 0
        for t in range(12):
            # The pair changes half-way: the later evaluations score fresh
            # candidates *and* decay dormant ones.
            tags = {"a", "b", "c"} if t < 6 else {"c", "d"}
            produced = engine.process(Document(
                timestamp=t * HOUR, doc_id=f"d{t}", tags=frozenset(tags),
            ))
            rankings += produced is not None
        assert rankings == 11
        assert len(calls) == rankings
        # An evaluation with nothing known yet still makes its one call.
        assert calls[0] == 0 and max(calls) > 0
