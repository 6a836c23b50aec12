"""Vectorized evaluation hot path: batched, bit-identical scoring.

The cadence loop's cost is dominated by per-pair scalar work: every
evaluation walks the candidate set computing correlation + shift score one
pair at a time, and then re-reads the decayed score of *every* pair the
detector has ever scored to admit dormant topics into the ranking.  This
module rebuilds that pipeline as array math over a columnar pair-state view
— parallel numpy arrays for history tails, history lengths, decayed
scores and each row's two tag ids, keyed by a stable pair→row interning
table; the supported pairs map to rows, a seed mask over the tag ids
picks the candidates, and only the published topics leave numpy.  Every
published number stays **bit-identical** to the scalar path:

* integer count arithmetic (unions, minima, products) is exact in int64 and
  conversions to float64 are exact below 2**53, so the measure divisions
  round identically to their scalar counterparts;
* ``np.log``/``np.exp`` are *not* used — on this platform they differ from
  ``math.log``/``math.exp`` in the last ulp for a fraction of inputs.  The
  PMI kernel takes ``math.log`` per masked candidate, and decay factors are
  computed with ``math.exp`` once per *distinct* last update (the rows
  one evaluation scores share its epoch id, so the set is tiny) and
  gathered by id, once per evaluation for every known row;
* predictor kernels replay the scalar recurrences column by column in the
  exact same operation order (sums accumulate oldest→newest, EWMA/Holt
  recurrences step per column), every row together in one pass over the
  columns: a windowed kernel's row adds an exact 0.0 before its own
  window, as ``sum()`` starts from 0, and a recurrence row joins at its
  own first column by a masked restart, so every row sees precisely the
  slice the scalar predictor saw whatever mix of history lengths the
  candidates have;
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
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.core.correlation import (
    CorrelationMeasure,
    CosineCorrelation,
    JaccardCorrelation,
    OverlapCorrelation,
    PairCounts,
    PmiCorrelation,
    vectorizable_measures,
)
from repro.core.types import EmergentTopic, Pair
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
    pair_at: Callable[[int], Pair],
    count_a,
    count_b,
    count_both,
    total_documents: int,
) -> None:
    """Batched :class:`PairCounts` validation naming the offending pair.

    Mirrors ``PairCounts.__post_init__`` over the whole candidate set; on a
    violation the scalar dataclass is constructed for the first offending
    candidate, whose pair ``pair_at(position)`` names, so the raised
    message (including the canonical pair context) is exactly the scalar
    path's.
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
            pair=pair_at(index),
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
# saw — the windowed kernels mask the columns before a row's window to an
# exact 0.0, the recurrences restart each row at its own first column —
# and the per-column array operations perform the same IEEE operations in
# the same order as the scalar loop, which keeps the forecasts
# bit-identical.


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


def _window(previous, counts):
    """The last ``max(counts)`` columns, each row's columns before its own
    window an exact ``0.0`` (what its ``sum()`` starts from), and each
    row's first column in that block."""
    width = int(counts.max())
    start = width - counts
    inside = np.arange(width) >= start[:, None]
    return np.where(inside, previous[:, previous.shape[1] - width:], 0.0), start


def _predict_moving_average(predictor, previous, usable):
    counts = np.minimum(predictor.window, usable)
    block, _ = _window(previous, counts)
    total = np.zeros(len(usable), dtype=np.float64)
    for column in block.T:  # oldest→newest, as sum() iterates
        total = total + column
    return total / counts


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
    counts = np.minimum(predictor.window, usable)
    block, start = _window(previous, counts)
    # The scalar predictor's constants per window length n, computed as it
    # computes them: xs = range(n), their mean and the denominator.
    lengths = range(1, predictor.window + 1)
    means = [sum(range(n)) / n for n in lengths]
    squares = [sum((x - mean) ** 2 for x in range(n))
               for n, mean in zip(lengths, means)]
    mean_x = np.array(means)[counts - 1]
    denominator = np.array(squares)[counts - 1]
    mean_y = np.zeros(len(usable), dtype=np.float64)
    for column in block.T:
        mean_y = mean_y + column
    mean_y = mean_y / counts
    numerator = np.zeros(len(usable), dtype=np.float64)
    for column, values in enumerate(block.T):
        term = (column - start - mean_x) * (values - mean_y)
        numerator = numerator + np.where(column >= start, term, 0.0)
    # min_history is 2, so no row's window is one point long and every
    # denominator is positive (the scalar zero-denominator branch is moot).
    slope = numerator / denominator
    intercept = mean_y - slope * mean_x
    return intercept + slope * counts


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

    One evaluation performs, over the whole candidate set at once: map the
    index's supported pairs to rows → select the rows with a seed among
    their tag ids → gather counts → validate → measure kernel → history
    append → predictor kernel → prediction errors → decayed-maximum update
    → global top-k over every known score.  Only the published topics
    leave numpy.  The returned topic list is bit-identical to the scalar
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
        "_score_value", "_score_epoch", "_score_known", "_score_pending",
        "_tag_a", "_tag_b",
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
        self._clear(self._INITIAL_CAPACITY)
        # The columns must be reloaded from the dicts before the next
        # evaluation: true until the first one, and after invalidate().
        self._stale = True
        tracker.attach_evaluator(self)
        detector.attach_evaluator(self)

    # -- columnar storage -----------------------------------------------------

    def _clear(self, capacity: int) -> None:
        """No rows: empty interning tables, zeroed columns of ``capacity``."""
        self._pair_rows: Dict[Pair, int] = {}
        self._pairs: List[Pair] = []
        self._tag_ids: Dict[str, int] = {}  # tag → id; _tag_a/_tag_b hold ids
        self._tags: List[str] = []
        columns = self._history_columns
        # Histories: values and their timestamps, right-aligned (row i's
        # _hist_len[i] points occupy the last columns, oldest first).
        self._hist = np.zeros((capacity, columns), dtype=np.float64)
        self._hist_ts = np.zeros((capacity, columns), dtype=np.float64)
        self._hist_len = np.zeros(capacity, dtype=np.int64)
        self._score_value = np.zeros(capacity, dtype=np.float64)
        # A score's last update, as an id into _epoch_times.
        self._score_epoch = np.zeros(capacity, dtype=np.int64)
        self._epoch_times = np.zeros(0, dtype=np.float64)
        self._score_known = np.zeros(capacity, dtype=bool)
        # Rows written since the owning component last folded them into
        # its dict.
        self._hist_pending = np.zeros(capacity, dtype=bool)
        self._score_pending = np.zeros(capacity, dtype=bool)
        self._tag_a = np.zeros(capacity, dtype=np.int64)
        self._tag_b = np.zeros(capacity, dtype=np.int64)

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

    def _row_for(self, pair: Pair) -> int:
        row = self._pair_rows.get(pair)
        if row is None:
            row = len(self._pairs)
            self._grow(row + 1)
            self._pair_rows[pair] = row
            self._pairs.append(pair)
            tag_ids, tags = self._tag_ids, self._tags
            for column, tag in zip((self._tag_a, self._tag_b), pair):
                tag_id = tag_ids.setdefault(tag, len(tags))
                if tag_id == len(tags):
                    tags.append(tag)
                column[row] = tag_id
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
        self._clear(max(
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
        epochs: Dict[float, int] = {}
        for pair, maximum in scores.items():
            row = self._row_for(pair)
            value, last_update = maximum.state()
            if last_update is None:
                # Never updated: scalar value_at() reads it as 0.0.
                continue
            self._score_value[row] = value
            self._score_epoch[row] = epochs.setdefault(last_update, len(epochs))
            self._score_known[row] = True
        self._epoch_times = np.array(list(epochs), dtype=np.float64)
        # The rows are renumbered: so are the supported pairs' slots.
        supported = self._tracker.candidate_index.supported
        for pair in supported:
            supported[pair] = self._pair_rows.get(pair, -1)
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
            self._epoch_times[self._score_epoch[rows]].tolist(),
        )

    def discard_scores(self) -> None:
        """Forget the pending score rows (their dict is being replaced)."""
        self._score_pending[:] = False
        self._stale = True

    def check_invariants(self, latest: Optional[float] = None) -> None:
        """Raise ``AssertionError`` unless a live evaluator could hold this.

        ``_pair_rows`` and ``_pairs`` are inverse maps; a row's tag ids
        name its pair through ``_tags`` and ``_tag_ids``; every column has
        one capacity, at least the row count; no row holds more history
        points than the ring's length; unless the columns are stale (a
        restore leaves them so, to be reloaded), a supported pair's slot in
        the candidate index is -1 or its row, a row that is not pending
        equals its pair's series in the tracker's dict and its decayed
        maximum in the detector's (read as they stand, nothing drained),
        and no known score was last updated after ``latest``.  For tests,
        never on the stream.
        """
        used = len(self._pairs)
        if len(self._pair_rows) != used or any(
            self._pairs[row] != pair for pair, row in self._pair_rows.items()
        ):
            raise AssertionError("_pair_rows and _pairs are not inverse maps")
        tags, ids = self._tags, self._tag_ids
        if any(ids[tags[a]] != a or ids[tags[b]] != b or (tags[a], tags[b])
               != pair for pair, a, b in zip(self._pairs, self._tag_a.tolist(),
                                             self._tag_b.tolist())):
            raise AssertionError("a row's tag ids do not name its pair")
        capacities = {getattr(self, name).shape[0] for name in self._COLUMNS}
        if len(capacities) != 1 or min(capacities) < used:
            raise AssertionError(
                f"column capacities {sorted(capacities)} for {used} rows"
            )
        lengths = self._hist_len[:used]
        if used and (lengths.min() < 0
                     or lengths.max() > self._history_columns):
            raise AssertionError(
                f"a row holds {int(lengths.max())} history points, the ring "
                f"holds {self._history_columns}"
            )
        if self._stale:  # the next evaluation reloads every column
            return
        if any(row not in (-1, self._pair_rows.get(pair)) for pair, row
               in self._tracker.candidate_index.supported.items()):
            raise AssertionError("a supported pair's slot is not its row")
        last = self._epoch_times[self._score_epoch[:used][
            self._score_known[:used]]]
        if latest is not None and (last > latest).any():
            raise AssertionError(
                f"a score column was updated after the latest evaluation at "
                f"{latest}"
            )
        columns = self._history_columns
        histories = self._tracker._histories
        scores = self._detector._scores
        for row, pair in enumerate(self._pairs):
            if not self._hist_pending[row]:
                length = int(self._hist_len[row])
                series = histories.get(pair)
                timestamps, values = (
                    ([], []) if series is None else series.tail_points(columns)
                )
                start = columns - length
                if (len(values) != length
                        or self._hist[row, start:].tolist() != values
                        or self._hist_ts[row, start:].tolist() != timestamps):
                    raise AssertionError(
                        f"{pair!r}'s history row is not the tracker's series"
                    )
            if not self._score_pending[row]:
                maximum = scores.get(pair)
                state = (None, None) if maximum is None else maximum.state()
                row_state = (
                    (float(self._score_value[row]),
                     float(self._epoch_times[self._score_epoch[row]]))
                    if self._score_known[row] else (None, None)
                )
                if state[1] is None:
                    state = (None, None)
                if row_state != state:
                    raise AssertionError(
                        f"{pair!r}'s score row {row_state} is not the "
                        f"detector's {state}"
                    )

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
        builder = self._builder
        if self._stale:
            self._rebuild()
        timestamp = float(timestamp)
        sampled = self._sample_candidates(
            timestamp, seeds, tag_counts, total_documents
        )
        # The one decay pass, after the history guard (the order in which
        # the scalar loop would trip over them), for the fold and the top-k.
        used = len(self._pairs)
        known = np.nonzero(self._score_known[:used])[0]
        factors = np.zeros(used, dtype=np.float64)
        factors[known] = self._decay_factors(timestamp, known)
        # Row → position among the scored candidates; -1 for the others.
        position = None
        if sampled is not None:
            values, scored, lengths, is_seed = sampled
            predicted, errors = self._score_candidates(
                timestamp, values, scored, lengths, factors
            )
            if tracker.journaling:
                pairs = list(map(self._pairs.__getitem__, scored.tolist()))
                tracker.journal_samples(timestamp, pairs, values.tolist())
            position = np.full(used, -1, dtype=np.int64)
            position[scored] = np.arange(len(scored))
            # Scored just now: last_update == timestamp, factor exactly 1.
            factors[scored] = 1.0
        # Global top-k over every known score (an unknown row's is 0.0).
        current = self._score_value[:used] * factors
        rows = np.flatnonzero(
            self._score_known[:used] & (current > builder.min_score)
        )
        scores = current[rows]
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
            pair = pairs[row]
            index = -1 if position is None else int(position[row])
            if index < 0:
                topics.append(EmergentTopic(
                    pair=pair, score=score, timestamp=timestamp,
                ))
            else:
                topics.append(EmergentTopic(
                    pair=pair,
                    score=score,
                    correlation=float(values[index]),
                    predicted_correlation=float(predicted[index]),
                    prediction_error=float(errors[index]),
                    # The trigger: the first tag if it is a seed.
                    seed_tag=pair[0] if is_seed[self._tag_a[row]]
                    else pair[1],
                    timestamp=timestamp,
                ))
        topics.sort(key=topic_sort_key)
        return topics[:top_k]

    def _decay_factors(self, timestamp: float, known):
        """Each known row's decay factor at ``timestamp``, one ``math.exp``
        per live epoch (dead ones are dropped); raises DecayedMaximum's
        error first if a known score was last updated after it."""
        epochs = self._score_epoch[known]
        elapsed = timestamp - self._epoch_times
        # A dead epoch is never later than a live one: its rows moved on.
        if (elapsed < 0).any():
            last = self._epoch_times[epochs]
            raise ValueError(f"cannot evaluate in the past: {timestamp} < "
                             f"{float(last[last > timestamp][0])}")
        live = np.zeros(len(elapsed), dtype=bool)
        live[epochs] = True
        if not live.all():
            epochs = self._score_epoch[known] = (np.cumsum(live) - 1)[epochs]
            self._epoch_times, elapsed = self._epoch_times[live], elapsed[live]
        return decay_factors(self._detector.decay.decay_rate, elapsed)[epochs]

    def _sample_candidates(
        self,
        timestamp: float,
        seeds,
        tag_counts,
        total_documents: int,
    ):
        """Select the candidate rows — supported pairs with a seed among
        their tags — and measure them in batch; ``None`` without any.

        Returns ``(values, rows, lengths, is_seed)``, ``is_seed`` by tag
        id; writes no column (interning a new pair only reserves its row).
        """
        index = self._tracker.candidate_index
        supported = index.supported
        rows = np.fromiter(supported.values(), dtype=np.int64,
                           count=len(supported))
        new = np.flatnonzero(rows < 0)
        if new.size:  # pairs that (re-)entered support: note their rows
            pairs = list(supported)
            for position in new.tolist():
                pair = pairs[position]
                row = self._pair_rows.get(pair)
                rows[position] = supported[pair] = (
                    self._row_for(pair) if row is None else row)
        # The seed mask over the tag-id columns; a seed no row has lands
        # in the spare last slot, which no tag id reaches.
        is_seed = np.zeros(len(self._tags) + 1, dtype=bool)
        is_seed[np.fromiter(map(self._tag_ids.get, seeds, repeat(-1)),
                            dtype=np.int64)] = True
        tag_a, tag_b = self._tag_a[rows], self._tag_b[rows]
        selected = np.flatnonzero(is_seed[tag_a] | is_seed[tag_b])
        if selected.size == 0:
            return None
        rows = rows[selected]
        # Tag counts by id, in one pass over the interned tags; pair counts
        # in one over the supported pairs.
        by_id = np.fromiter(map(tag_counts.get, self._tags, repeat(0)),
                            dtype=np.int64, count=len(self._tags))
        count_a, count_b = by_id[tag_a[selected]], by_id[tag_b[selected]]
        count_both = np.fromiter(map(index.counts.__getitem__, supported),
                                 dtype=np.int64,
                                 count=len(supported))[selected]
        validate_pair_counts(
            lambda position: self._pairs[rows[position]],
            count_a, count_b, count_both, total_documents,
        )
        values = measure_candidates(
            self._tracker.measure, count_a, count_b, count_both,
            total_documents,
        )
        lengths = self._hist_len[rows]
        # TimeSeries.append's guard, over the candidate rows at once.
        newest = self._hist_ts[rows, -1]
        late = (lengths > 0) & (newest > timestamp)
        if late.any():
            offending = float(newest[np.nonzero(late)[0][0]])
            raise ValueError(
                f"out-of-order append: {timestamp} < {offending}"
            )
        return values, rows, lengths, is_seed

    def _score_candidates(
        self, timestamp: float, values, rows, lengths, factors
    ):
        """Predict and score the sampled candidates, then write their new
        history points and scores into the columns.

        Every guard has passed by now and nothing here raises.  Returns
        the predictions and the prediction errors as arrays.
        """
        detector = self._detector
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
        predicted = np.zeros(len(rows), dtype=np.float64)
        if gate.any():
            # Every row through the kernel (its cost is per column), a
            # short one as if gated in; the gate drops its forecast.
            predicted = np.where(gate, predict_batch(
                detector.predictor, previous, np.maximum(usable, gate_limit)
            ), 0.0)
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
        self._score_epoch[rows] = len(self._epoch_times)
        self._epoch_times = np.append(self._epoch_times, timestamp)
        self._score_known[rows] = True
        self._score_pending[rows] = True
        return predicted, errors


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
