"""Vectorized evaluation hot path: batched, bit-identical scoring.

The cadence loop's cost is dominated by per-pair scalar work: every
evaluation walks the candidate set computing correlation + shift score one
pair at a time, and then re-reads the decayed score of *every* pair the
detector has ever scored to admit dormant topics into the ranking.  This
module rebuilds that pipeline as array math over a columnar pair-state view
— parallel numpy arrays for history tails, history lengths and decayed
scores, keyed by a stable pair→row interning table — while keeping every
published number **bit-identical** to the scalar path:

* integer count arithmetic (unions, minima, products) is exact in int64 and
  conversions to float64 are exact below 2**53, so the measure divisions
  round identically to their scalar counterparts;
* ``np.log``/``np.exp`` are *not* used — on this platform they differ from
  ``math.log``/``math.exp`` in the last ulp for a fraction of inputs.  The
  PMI kernel takes ``math.log`` per masked candidate, and decay factors are
  computed with ``math.exp`` once per *distinct* elapsed time (evaluation
  boundaries are shared by construction, so the distinct set is tiny),
  gathered back through a dict, once per evaluation for every known row;
* predictor kernels replay the scalar recurrences column by column in the
  exact same operation order (sums accumulate oldest→newest, EWMA/Holt
  recurrences step per column).  The windowed kernels group rows by
  window length; the EWMA/Holt recurrences advance every row together in
  one pass over the columns, a row joining at its own first column by a
  masked restart, so every row sees precisely the slice the scalar
  predictor saw whatever mix of history lengths the candidates have;
* the top-k cut thresholds on ``min_score`` (strict, as the scalar
  builder), takes a tie-inclusive superset via ``np.partition``, and then
  applies the canonical ``topic_sort_key`` total order in Python — the same
  comparisons, just over k-ish topics instead of every scored pair.

While a :class:`FusedEvaluator` is attached, its columns are where the
histories and scores live: an evaluation writes them and nothing else.
The scalar dictionaries (the tracker's per-pair :class:`TimeSeries`
histories, the detector's :class:`DecayedMaximum` table) are materialised
from the rows evaluated since the last read, only when something reads
them — a query, a snapshot, a scalar evaluation — and the delta journal
records one ``(timestamp, pairs, values)`` entry per evaluation instead
of bookkeeping per pair.  Mutations that happen *outside* the
fused path (a scalar evaluation, a checkpoint restore, a score reset)
invalidate the columns through the owning component; the next evaluation
reloads them from the dictionaries first, so mixing paths is always
correct, merely slower for one evaluation.  Without an evaluator (no
numpy, a kernel-less measure or predictor, ``vectorize=False``) the
dictionaries are written directly and are the only store.

Numpy is optional: every consumer gates on :data:`NUMPY_AVAILABLE` and the
scalar path stays first-class.  ``vectorize=False`` on an engine forces it.
"""

from __future__ import annotations

import math
from itertools import repeat
from operator import itemgetter
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.core.correlation import (
    CorrelationMeasure,
    CosineCorrelation,
    JaccardCorrelation,
    OverlapCorrelation,
    PairCounts,
    PmiCorrelation,
    vectorizable_measures,
)
from repro.core.types import EmergentTopic, TagPair
from repro.timeseries.predictors import (
    EwmaPredictor,
    HoltPredictor,
    LastValuePredictor,
    LinearTrendPredictor,
    MovingAveragePredictor,
    Predictor,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.core.ranking import RankingBuilder
    from repro.core.shift import ShiftDetector
    from repro.core.tracker import CorrelationTracker

try:  # pragma: no cover - exercised by the no-numpy CI job
    import numpy as np

    NUMPY_AVAILABLE = True
except ImportError:  # pragma: no cover - exercised by the no-numpy CI job
    np = None  # type: ignore[assignment]
    NUMPY_AVAILABLE = False

#: One candidate triple as produced by ``CandidateIndex.iter_candidates``.
Candidate = Tuple[TagPair, str, int]

_FIRST, _SECOND, _THIRD = itemgetter(0), itemgetter(1), itemgetter(2)


# ---------------------------------------------------------------------------
# Measure kernels
# ---------------------------------------------------------------------------
#
# Each kernel mirrors one CorrelationMeasure.value expression by expression
# over int64 count arrays.  Inputs are pre-validated (validate_pair_counts),
# so guards only handle the zero-denominator cases the scalar code handles.


def _kernel_jaccard(measure, count_a, count_b, count_both, total_documents):
    union = count_a + count_b - count_both
    out = np.zeros(len(count_a), dtype=np.float64)
    nonzero = union != 0
    np.divide(count_both, union, out=out, where=nonzero)
    return out


def _kernel_overlap(measure, count_a, count_b, count_both, total_documents):
    smaller = np.minimum(count_a, count_b)
    out = np.zeros(len(count_a), dtype=np.float64)
    nonzero = smaller != 0
    np.divide(count_both, smaller, out=out, where=nonzero)
    return out


def _kernel_cosine(measure, count_a, count_b, count_both, total_documents):
    # int64 product is exact (window counts are far below 2**31), the cast
    # to float64 is exact below 2**53, and sqrt is correctly rounded in
    # both math.sqrt and np.sqrt — verified identical on this platform.
    denominator = np.sqrt((count_a * count_b).astype(np.float64))
    out = np.zeros(len(count_a), dtype=np.float64)
    nonzero = denominator != 0
    np.divide(count_both, denominator, out=out, where=nonzero)
    return out


def _kernel_pmi(measure, count_a, count_b, count_both, total_documents):
    out = np.zeros(len(count_a), dtype=np.float64)
    if total_documents == 0:
        return out
    # count_both > 0 implies count_a > 0 and count_b > 0 (the intersection
    # bound), so the scalar p_a == 0 / p_b == 0 guards are subsumed.
    mask = count_both > 0
    if not mask.any():
        return out
    total = float(total_documents)
    p_a = count_a[mask] / total
    p_b = count_b[mask] / total
    p_ab = count_both[mask] / total
    ratio = p_ab / (p_a * p_b)
    # math.log, not np.log: they disagree in the last ulp on this platform.
    # The masked candidate set is small (hundreds), so the Python loop is
    # noise next to the savings of the batched arithmetic above.
    results: List[float] = []
    for r, joint in zip(ratio.tolist(), p_ab.tolist()):
        pmi = math.log(r)
        normaliser = -math.log(joint)
        if normaliser == 0:
            results.append(1.0)
        else:
            results.append(max(0.0, pmi / normaliser))
    out[mask] = results
    return out


_MEASURE_KERNELS: Dict[type, object] = {
    JaccardCorrelation: _kernel_jaccard,
    OverlapCorrelation: _kernel_overlap,
    CosineCorrelation: _kernel_cosine,
    PmiCorrelation: _kernel_pmi,
}


def measure_supported(measure: CorrelationMeasure) -> bool:
    """Whether ``measure`` has a bit-identical batched kernel.

    Keyed by exact type: a subclass overriding :meth:`value` would silently
    diverge from the registered kernel, so it falls back to scalar.
    """
    return type(measure) in _MEASURE_KERNELS


def validate_pair_counts(
    candidates: Sequence[Candidate],
    count_a,
    count_b,
    count_both,
    total_documents: int,
) -> None:
    """Batched :class:`PairCounts` validation naming the offending pair.

    Mirrors ``PairCounts.__post_init__`` over the whole candidate set; on a
    violation the scalar dataclass is constructed for the first offending
    candidate so the raised message (including the canonical pair context)
    is exactly the scalar path's.
    """
    bad = (
        (count_a < 0)
        | (count_b < 0)
        | (count_both < 0)
        | (count_both > np.minimum(count_a, count_b))
        | (np.maximum(count_a, count_b) > total_documents)
    )
    if total_documents < 0:
        bad = bad | True
    if bad.any():
        index = int(np.nonzero(bad)[0][0])
        PairCounts(
            count_a=int(count_a[index]),
            count_b=int(count_b[index]),
            count_both=int(count_both[index]),
            total_documents=int(total_documents),
            pair=candidates[index][0],
        )
        raise AssertionError(
            "vectorized validation flagged counts the scalar validation "
            "accepts"
        )


def measure_candidates(
    measure: CorrelationMeasure,
    count_a,
    count_b,
    count_both,
    total_documents: int,
):
    """Batched ``max(0.0, measure.value(...))`` over pre-validated counts."""
    kernel = _MEASURE_KERNELS.get(type(measure))
    if kernel is None:
        raise ValueError(
            f"measure {measure.name!r} has no vectorized kernel; "
            f"vectorizable measures: {vectorizable_measures()}"
        )
    return np.maximum(0.0, kernel(
        measure, count_a, count_b, count_both, total_documents
    ))


# ---------------------------------------------------------------------------
# Predictor kernels
# ---------------------------------------------------------------------------
#
# Each kernel receives a right-aligned matrix ``previous`` of the values
# preceding the current observation (row i's usable[i] values occupy the
# *last* usable[i] columns) and replays the scalar predictor's recurrence
# column by column.  Every row sees exactly the slice the scalar predictor
# saw — the windowed kernels group rows by window length, the recurrences
# restart each row at its own first column — and the per-column array
# operations perform the same IEEE operations in the same order as the
# scalar loop, which is what keeps the forecasts bit-identical.


def _time_major(previous, usable):
    """What a one-pass recurrence kernel steps over.

    Returns the history block transposed to one contiguous row per column,
    each row's first column, and the set of columns some row starts at.
    A row's state before its own first column is whatever the recurrence
    made of the padding; the masked restart at that column overwrites it.
    """
    start = previous.shape[1] - usable
    return np.ascontiguousarray(previous.T), start, set(start.tolist())


def _predict_last(predictor, previous, usable):
    return previous[:, -1].copy()


def _predict_moving_average(predictor, previous, usable):
    columns = previous.shape[1]
    counts = np.minimum(predictor.window, usable)
    out = np.empty(len(usable), dtype=np.float64)
    for count in np.unique(counts).tolist():
        rows = counts == count
        block = previous[rows, columns - count:]
        total = np.zeros(block.shape[0], dtype=np.float64)
        for column in range(count):  # oldest→newest, as sum() iterates
            total = total + block[:, column]
        out[rows] = total / count
    return out


def _predict_ewma(predictor, previous, usable):
    alpha = predictor.alpha
    complement = 1 - alpha
    block, start, starts = _time_major(previous, usable)
    weighted = alpha * block
    first = min(starts)
    estimate = block[first].copy()
    for column in range(first + 1, len(block)):
        # estimate = alpha * value + complement * estimate, in place.
        np.multiply(estimate, complement, out=estimate)
        np.add(weighted[column], estimate, out=estimate)
        if column in starts:
            np.copyto(estimate, block[column], where=start == column)
    return estimate


def _predict_linear(predictor, previous, usable):
    columns = previous.shape[1]
    counts = np.minimum(predictor.window, usable)
    out = np.empty(len(usable), dtype=np.float64)
    for count in np.unique(counts).tolist():
        rows = counts == count
        block = previous[rows, columns - count:]
        xs = list(range(count))
        mean_x = sum(xs) / count
        mean_y = np.zeros(block.shape[0], dtype=np.float64)
        for column in range(count):
            mean_y = mean_y + block[:, column]
        mean_y = mean_y / count
        denominator = sum((x - mean_x) ** 2 for x in xs)
        if denominator == 0:
            out[rows] = mean_y
            continue
        numerator = np.zeros(block.shape[0], dtype=np.float64)
        for column in range(count):
            numerator = numerator + (xs[column] - mean_x) * (
                block[:, column] - mean_y
            )
        slope = numerator / denominator
        intercept = mean_y - slope * mean_x
        out[rows] = intercept + slope * count
    return out


def _predict_holt(predictor, previous, usable):
    alpha = predictor.alpha
    beta = predictor.beta
    alpha_complement = 1 - alpha
    beta_complement = 1 - beta
    block, start, starts = _time_major(previous, usable)
    weighted = alpha * block
    # A row starts with trend = second value - first value; every row has
    # at least two (min_history), so none starts at the last column.
    initial_trend = block[1:] - block[:-1]
    first = min(starts)
    level = block[first].copy()
    trend = initial_trend[first].copy()
    step = np.empty_like(level)
    for column in range(first + 1, len(block)):
        # level' = alpha * value + alpha_complement * (level + trend)
        np.add(level, trend, out=step)
        np.multiply(alpha_complement, step, out=step)
        np.add(weighted[column], step, out=step)
        # trend' = beta * (level' - level) + beta_complement * trend
        np.subtract(step, level, out=level)
        np.multiply(beta, level, out=level)
        np.multiply(beta_complement, trend, out=trend)
        np.add(level, trend, out=trend)
        level, step = step, level
        if column in starts:
            joining = start == column
            np.copyto(level, block[column], where=joining)
            np.copyto(trend, initial_trend[column], where=joining)
    return level + trend


_PREDICTOR_KERNELS: Dict[type, object] = {
    LastValuePredictor: _predict_last,
    MovingAveragePredictor: _predict_moving_average,
    EwmaPredictor: _predict_ewma,
    LinearTrendPredictor: _predict_linear,
    HoltPredictor: _predict_holt,
}

#: Registry names of the predictors with a bit-identical batched kernel.
VECTORIZED_PREDICTOR_NAMES = frozenset(
    {"last", "moving_average", "ewma", "linear", "holt"}
)


def predictor_supported(predictor: Predictor) -> bool:
    """Whether ``predictor`` has a bit-identical batched kernel.

    Keyed by exact type, as :func:`measure_supported`.
    """
    return type(predictor) in _PREDICTOR_KERNELS


def predict_batch(predictor: Predictor, previous, usable):
    """Batched one-step forecasts over a right-aligned history matrix.

    ``previous`` holds, right-aligned, the values preceding the current
    observation; ``usable[i]`` is row i's history length.  Every row must
    already satisfy the predictor's ``min_history`` — gating is the
    caller's job (the detector's gate also involves its own minimum).
    """
    kernel = _PREDICTOR_KERNELS.get(type(predictor))
    if kernel is None:
        raise ValueError(
            f"predictor {type(predictor).__name__} has no vectorized kernel"
        )
    return kernel(predictor, previous, usable)


# ---------------------------------------------------------------------------
# Decay factors
# ---------------------------------------------------------------------------


def decay_factors(decay_rate: float, elapsed):
    """``exp(-decay_rate * elapsed)`` per element, bit-identical to math.exp.

    ``np.exp`` disagrees with ``math.exp`` in the last ulp for ~5% of
    inputs on this platform, so the factor is computed with ``math.exp``
    once per *distinct* elapsed value and gathered back through a dict.
    Elapsed times are differences of evaluation-boundary timestamps, which
    pairs share by construction, so the distinct set stays tiny (typically
    a few dozen) regardless of how many pairs are scored.
    """
    values = elapsed.tolist()
    factor = {value: math.exp(-decay_rate * value) for value in set(values)}
    return np.fromiter(
        map(factor.__getitem__, values), dtype=np.float64, count=len(values)
    )


# ---------------------------------------------------------------------------
# The fused evaluator
# ---------------------------------------------------------------------------


class FusedEvaluator:
    """Columnar store of correlation histories and decayed scores,
    evaluated in one batched pass per cadence boundary.

    One evaluation performs, over the whole candidate set at once: gather
    counts → validate → measure kernel → history append → predictor kernel
    → prediction errors → decayed-maximum update → global top-k over every
    known score.  The returned topic list is bit-identical to the scalar
    ``detector.update`` / ``RankingBuilder.top_topics`` pipeline.

    The columns are the only place an evaluation writes.  The tracker's
    per-pair :class:`TimeSeries` dict and the detector's
    :class:`DecayedMaximum` dict are *views*: each row written here is
    flagged pending, and the owning component folds the pending rows into
    its dict when something reads it (:meth:`drain_histories`,
    :meth:`drain_scores`) — a history query, a snapshot, a scalar
    evaluation.  A restore drops the pending rows instead
    (:meth:`discard_histories`, :meth:`discard_scores`).  In the other
    direction, whatever changes a dict behind the evaluator's back (scalar
    sampling, restore, score reset) calls :meth:`invalidate`, and the next
    :meth:`evaluate` reloads every column from the dicts first, so mixing
    paths is always correct, merely slower for one evaluation.
    """

    #: Initial row capacity of the columnar arrays.
    _INITIAL_CAPACITY = 1024

    #: Every per-row array, grown together.
    _COLUMNS = (
        "_hist", "_hist_ts", "_hist_len", "_hist_pending",
        "_score_value", "_score_last", "_score_known", "_score_pending",
    )

    def __init__(
        self,
        tracker: "CorrelationTracker",
        detector: "ShiftDetector",
        builder: "RankingBuilder",
    ):
        if not NUMPY_AVAILABLE:
            raise RuntimeError("FusedEvaluator requires numpy")
        if not measure_supported(tracker.measure):
            raise ValueError(
                f"measure {tracker.measure.name!r} has no vectorized kernel"
            )
        if not predictor_supported(detector.predictor):
            raise ValueError(
                f"predictor {type(detector.predictor).__name__} has no "
                "vectorized kernel"
            )
        self._tracker = tracker
        self._detector = detector
        self._builder = builder
        self._history_columns = int(tracker.history_length)
        self._pair_rows: Dict[TagPair, int] = {}
        self._pairs: List[TagPair] = []
        self._allocate(self._INITIAL_CAPACITY)
        # The columns must be reloaded from the dicts before the next
        # evaluation: true until the first one, and after invalidate().
        self._stale = True
        tracker.attach_evaluator(self)
        detector.attach_evaluator(self)

    # -- columnar storage -----------------------------------------------------

    def _allocate(self, capacity: int) -> None:
        columns = self._history_columns
        # Histories: values and their timestamps, right-aligned (row i's
        # _hist_len[i] points occupy the last columns, oldest first).
        self._hist = np.zeros((capacity, columns), dtype=np.float64)
        self._hist_ts = np.zeros((capacity, columns), dtype=np.float64)
        self._hist_len = np.zeros(capacity, dtype=np.int64)
        self._score_value = np.zeros(capacity, dtype=np.float64)
        self._score_last = np.zeros(capacity, dtype=np.float64)
        self._score_known = np.zeros(capacity, dtype=bool)
        # Rows written since the owning component last folded them into
        # its dict.
        self._hist_pending = np.zeros(capacity, dtype=bool)
        self._score_pending = np.zeros(capacity, dtype=bool)

    def _grow(self, needed: int) -> None:
        capacity = len(self._hist_len)
        if needed <= capacity:
            return
        new_capacity = max(needed, capacity * 2)
        for name in self._COLUMNS:
            old = getattr(self, name)
            grown = np.zeros(
                (new_capacity,) + old.shape[1:], dtype=old.dtype
            )
            grown[:capacity] = old
            setattr(self, name, grown)

    def _row_for(self, pair: TagPair) -> int:
        row = self._pair_rows.get(pair)
        if row is None:
            row = len(self._pairs)
            self._grow(row + 1)
            self._pair_rows[pair] = row
            self._pairs.append(pair)
        return row

    @property
    def row_count(self) -> int:
        """Interned pairs (rows currently in use)."""
        return len(self._pairs)

    def _rebuild(self) -> None:
        """Reload every column from the tracker's and detector's dicts.

        Reading the two maps first folds any pending rows into them, so
        nothing evaluated so far is lost when the rows are renumbered.
        """
        histories = self._tracker.history_map
        scores = self._detector.score_map
        self._pair_rows = {}
        self._pairs = []
        self._allocate(max(
            self._INITIAL_CAPACITY, len(histories.keys() | scores.keys())
        ))
        columns = self._history_columns
        for pair, series in histories.items():
            row = self._row_for(pair)
            timestamps, values = series.tail_points(columns)
            if values:
                self._hist[row, columns - len(values):] = values
                self._hist_ts[row, columns - len(values):] = timestamps
            self._hist_len[row] = len(values)
        for pair, maximum in scores.items():
            row = self._row_for(pair)
            value, last_update = maximum.state()
            if last_update is None:
                # Never updated: scalar value_at() reads it as 0.0.
                continue
            self._score_value[row] = value
            self._score_last[row] = last_update
            self._score_known[row] = True
        self._stale = False

    # -- the dict views -------------------------------------------------------

    def invalidate(self) -> None:
        """A dict changed outside this evaluator: reload before evaluating."""
        self._stale = True

    def drain_histories(self):
        """The history rows evaluated since the last drain, as an
        iterator of ``(pair, timestamps, values)`` with fresh lists.

        The rows stop being pending at once; the caller must consume the
        iterator (lazy, so a large drain leaves no per-row temporaries
        for the cyclic collector to walk).
        """
        rows = np.nonzero(self._hist_pending[:len(self._pairs)])[0]
        if rows.size == 0:
            return ()
        self._hist_pending[rows] = False
        columns = self._history_columns
        pairs = self._pairs
        return (
            (pairs[row], timestamps[columns - length:],
             values[columns - length:])
            for row, length, timestamps, values in zip(
                rows.tolist(), self._hist_len[rows].tolist(),
                self._hist_ts[rows].tolist(), self._hist[rows].tolist(),
            )
        )

    def discard_histories(self) -> None:
        """Forget the pending history rows (their dict is being replaced)."""
        self._hist_pending[:] = False
        self._stale = True

    def drain_scores(self):
        """The score rows updated since the last drain, as an iterator of
        ``(pair, value, last_update)``; consumed as :meth:`drain_histories`."""
        rows = np.nonzero(self._score_pending[:len(self._pairs)])[0]
        if rows.size == 0:
            return ()
        self._score_pending[rows] = False
        return zip(
            map(self._pairs.__getitem__, rows.tolist()),
            self._score_value[rows].tolist(),
            self._score_last[rows].tolist(),
        )

    def discard_scores(self) -> None:
        """Forget the pending score rows (their dict is being replaced)."""
        self._score_pending[:] = False
        self._stale = True

    # -- evaluation -----------------------------------------------------------

    def evaluate(
        self,
        timestamp: float,
        seeds,
        tag_counts,
        total_documents: int,
    ) -> List[EmergentTopic]:
        """One cadence boundary, batched; returns the sorted top-k topics.

        The caller must already have advanced the tracker's window to
        ``timestamp`` (both engines do, mirroring the scalar entry points).
        Every check runs before any column is written, so an evaluation
        that raises leaves histories, scores and the journal buffer exactly
        as they were — where the scalar loop keeps what it appended for the
        candidates preceding the offending one.  The raised message is the
        scalar path's (with several offenders it may name a different one),
        and a tracker holding invalid windowed counts is unreachable
        through ingestion.
        """
        from repro.core.ranking import topic_sort_key

        tracker = self._tracker
        detector = self._detector
        builder = self._builder
        if self._stale:
            self._rebuild()
        timestamp = float(timestamp)
        candidates = tracker.candidate_index.iter_candidates(seeds)
        sampled = None
        if candidates:
            sampled = self._sample_candidates(
                timestamp, candidates, tag_counts, total_documents
            )
        # After the history guard in _sample_candidates: the order in
        # which the scalar loop would trip over them.
        self._reject_future_scores(timestamp)
        # The one decay pass: every known score's factor at ``timestamp``,
        # held per row for the candidate fold and the top-k scan alike.
        used = len(self._pairs)
        known = np.nonzero(self._score_known[:used])[0]
        factors = np.zeros(used, dtype=np.float64)
        factors[known] = decay_factors(
            detector.decay.decay_rate, timestamp - self._score_last[known]
        )
        fresh_rows: Dict[int, int] = {}
        values_list: List[float] = []
        predicted_list: List[float] = []
        errors_list: List[float] = []
        if sampled is not None:
            pairs, values, scored, lengths = sampled
            values_list = values.tolist()
            predicted_list, errors_list = self._score_candidates(
                timestamp, values, scored, lengths, factors
            )
            tracker.journal_samples(timestamp, pairs, values_list)
            fresh_rows = {
                row: index for index, row in enumerate(scored.tolist())
            }
            # Scored just now: last_update == timestamp, factor exactly 1.
            factors[scored] = 1.0
            known = np.nonzero(self._score_known[:used])[0]
        # Global top-k over every known score.
        if known.size == 0:
            return []
        current = self._score_value[known] * factors[known]
        admitted = current > builder.min_score
        rows = known[admitted]
        scores = current[admitted]
        top_k = builder.top_k
        if scores.size > top_k:
            # Tie-inclusive superset: keep everything >= the k-th largest
            # score, then let the canonical sort cut exactly k below.
            kth = np.partition(scores, scores.size - top_k)[
                scores.size - top_k
            ]
            keep = scores >= kth
            rows = rows[keep]
            scores = scores[keep]
        pairs = self._pairs
        topics: List[EmergentTopic] = []
        for row, score in zip(rows.tolist(), scores.tolist()):
            index = fresh_rows.get(row)
            if index is None:
                topics.append(EmergentTopic(
                    pair=pairs[row], score=score, timestamp=timestamp,
                ))
            else:
                topics.append(EmergentTopic(
                    pair=pairs[row],
                    score=score,
                    correlation=values_list[index],
                    predicted_correlation=predicted_list[index],
                    prediction_error=errors_list[index],
                    seed_tag=candidates[index][1],
                    timestamp=timestamp,
                ))
        topics.sort(key=topic_sort_key)
        return topics[:top_k]

    def _reject_future_scores(self, timestamp: float) -> None:
        """DecayedMaximum's guard, over every known score at once: the
        candidates about to be updated and the dormant pairs the top-k
        decays to ``timestamp``."""
        used = len(self._pairs)
        future = self._score_known[:used] & (self._score_last[:used] > timestamp)
        if future.any():
            offending = float(self._score_last[np.nonzero(future)[0][0]])
            raise ValueError(
                f"cannot evaluate in the past: {timestamp} < {offending}"
            )

    def _sample_candidates(
        self,
        timestamp: float,
        candidates: List[Candidate],
        tag_counts,
        total_documents: int,
    ):
        """Measure the candidate set in batch and intern its rows.

        Returns ``(pairs, values, rows, lengths)``; writes no column
        (interning a new pair only reserves its row).
        """
        count = len(candidates)
        # The triples' columns, split by C-level maps.  (Not zip(*...):
        # that allocates one collector-tracked iterator per candidate,
        # enough to pull a collection into most evaluations.)
        pairs = list(map(_FIRST, candidates))
        count_a = np.fromiter(
            map(tag_counts.get, map(_FIRST, pairs), repeat(0)),
            dtype=np.int64, count=count,
        )
        count_b = np.fromiter(
            map(tag_counts.get, map(_SECOND, pairs), repeat(0)),
            dtype=np.int64, count=count,
        )
        count_both = np.fromiter(
            map(_THIRD, candidates), dtype=np.int64, count=count
        )
        # Same clamp as the tracker's scalar sampling loop: a sketch tier's
        # back-filled promotion can push a windowed pair count past a tag
        # count; exact tracking never does, so this is a no-op there.
        count_both = np.minimum(count_both, np.minimum(count_a, count_b))
        validate_pair_counts(
            candidates, count_a, count_b, count_both, total_documents
        )
        values = measure_candidates(
            self._tracker.measure, count_a, count_b, count_both,
            total_documents,
        )
        row_list = list(map(self._pair_rows.get, pairs))
        if None in row_list:  # a pair scored for the first time
            row_list = [self._row_for(pair) for pair in pairs]
        rows = np.array(row_list, dtype=np.int64)
        lengths = self._hist_len[rows]
        # TimeSeries.append's guard, over the candidate rows at once.
        newest = self._hist_ts[rows, -1]
        late = (lengths > 0) & (newest > timestamp)
        if late.any():
            offending = float(newest[np.nonzero(late)[0][0]])
            raise ValueError(
                f"out-of-order append: {timestamp} < {offending}"
            )
        return pairs, values, rows, lengths

    def _score_candidates(
        self, timestamp: float, values, rows, lengths, factors
    ) -> Tuple[List[float], List[float]]:
        """Predict and score the sampled candidates, then write their new
        history points and scores into the columns.

        Every guard has passed by now and nothing here raises.  Returns
        the predictions and the prediction errors as lists.
        """
        detector = self._detector
        count = len(rows)
        columns = self._history_columns
        # History: the predictor sees the values *preceding* the current
        # observation.  Rows are right-aligned, so dropping the first
        # column yields exactly previous_values() after the append — the
        # whole old row while it is short, the last H-1 values once full.
        usable = np.minimum(lengths, columns - 1)
        previous = self._hist[rows, 1:]
        # Predict + error, gated exactly as ShiftDetector._usable_history:
        # too-short histories forecast 0.0 with error 0.0.
        gate_limit = max(detector.min_history, detector.predictor.min_history)
        gate = usable >= gate_limit
        predicted = np.zeros(count, dtype=np.float64)
        if gate.any():
            predicted[gate] = predict_batch(
                detector.predictor, previous[gate], usable[gate]
            )
        raw = values - predicted
        if detector.penalize_drops:
            errors = np.abs(raw)
        else:
            errors = np.maximum(0.0, raw)
        errors = np.where(gate, errors, 0.0)
        # Decayed-maximum fold: a never-scored row holds value 0.0 and
        # factor 0.0, so its decayed score is the scalar path's 0.0.
        new_scores = np.maximum(
            self._score_value[rows] * factors[rows], errors
        )
        # Append: shift each row left one, place the fresh point in the
        # last column.
        self._hist[rows, :-1] = previous
        self._hist[rows, -1] = values
        self._hist_ts[rows, :-1] = self._hist_ts[rows, 1:]
        self._hist_ts[rows, -1] = timestamp
        self._hist_len[rows] = np.minimum(lengths + 1, columns)
        self._hist_pending[rows] = True
        self._score_value[rows] = new_scores
        self._score_last[rows] = timestamp
        self._score_known[rows] = True
        self._score_pending[rows] = True
        return predicted.tolist(), errors.tolist()


# ---------------------------------------------------------------------------
# Construction helpers
# ---------------------------------------------------------------------------


def make_fused_evaluator(
    tracker: "CorrelationTracker",
    detector: "ShiftDetector",
    builder: "RankingBuilder",
    enabled: bool = True,
) -> Optional[FusedEvaluator]:
    """A :class:`FusedEvaluator` when ``enabled`` and the configuration
    supports one: numpy importable, the measure and predictor carry kernels.

    ``enabled=False`` forces the scalar path; otherwise a missing numpy or
    kernel returns ``None`` too (the scalar fallback stays first-class
    rather than raising).
    """
    if not enabled or not NUMPY_AVAILABLE:
        return None
    if not measure_supported(tracker.measure):
        return None
    if not predictor_supported(detector.predictor):
        return None
    return FusedEvaluator(tracker, detector, builder)


def config_vectorizes(config) -> bool:
    """Whether a configuration's engines will evaluate vectorized.

    Pure function of the configuration and the interpreter — accurate for
    remote shard workers too, since process workers inherit the
    interpreter (numpy availability).
    """
    if not NUMPY_AVAILABLE:
        return False
    return (
        config.correlation_measure in vectorizable_measures()
        and config.predictor in VECTORIZED_PREDICTOR_NAMES
    )
