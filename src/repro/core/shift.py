"""Stage (iii): shift detection and topic scoring.

"We consider sudden (but significant) increases in the correlation of tag
pairs as an indicator for an emergent topic. ...  at any point in time we
use the previous correlation values and try to predict the current ones.
If a predicted value is far away from the real one then the topic is
considered to be emergent and the prediction error is used as a ranking
criterion.  At any point in time the score of a topic is the maximum of the
current prediction error and the prediction errors from the past, dampened
appropriately using an exponential decline factor with a half life of
approximately 2 days."
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from typing import (
    TYPE_CHECKING, Dict, Iterable, List, Mapping, Optional, Sequence,
    Tuple,
)

from repro.core.tracker import PairObservation
from repro.core.types import Pair, canonical_pair
from repro.persistence.codec import index_table
from repro.persistence.snapshot import (
    SnapshotCorruptionError, require_compatible, require_state,
)
from repro.timeseries.predictors import MovingAveragePredictor, Predictor
from repro.windows.decay import DecayedMaximum, ExponentialDecay

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.vectorized import FusedEvaluator


@dataclass(frozen=True)
class ShiftScore:
    """The scored shift of one pair (a plain canonical pair) at one
    evaluation time."""

    pair: Pair
    timestamp: float
    correlation: float
    predicted: float
    error: float
    score: float
    seed_tag: str

    def __post_init__(self) -> None:
        if self.error < 0 or self.score < 0:
            raise ValueError("errors and scores are non-negative")


def scores_state(
    rows: Iterable[Tuple[str, str, float, Optional[float]]],
) -> dict:
    """``tags``, ``times`` and ``scores`` of ``(first, second, value,
    last_update)`` decayed-maximum rows, in their order.

    A row becomes ``[first, second, value, time_position]``: the tags are
    positions into ``tags`` and the last update into ``times`` (null when
    there is none), each table in first-seen order.  The one encoder of
    the scores: the detector, the upgrade of an older state and the
    re-sharding write through it, so equal scores encode to equal bytes.
    """
    rows = list(rows)
    tag_at, tags = index_table(
        chain.from_iterable(map(itemgetter(0, 1), rows))
    )
    time_at, times = index_table(
        filter(_is_not_none, map(itemgetter(3), rows))
    )
    return {
        "tags": tags,
        "times": times,
        "scores": [
            [tag_at[first], tag_at[second], value,
             None if last_update is None else time_at[last_update]]
            for first, second, value, last_update in rows
        ],
    }


def _is_not_none(value: object) -> bool:
    return value is not None


def scores_from_state(
    state: Mapping,
) -> List[Tuple[str, str, float, Optional[float]]]:
    """The ``(first, second, value, last_update)`` rows of a
    :func:`scores_state` dict (a detector state holds its keys)."""
    try:
        tags = [str(tag) for tag in state["tags"]]
        times = [float(time) for time in state["times"]]
        return [
            (tags[first], tags[second], float(value),
             None if position is None else times[position])
            for first, second, value, position in state["scores"]
        ]
    except (IndexError, TypeError, ValueError) as exc:
        raise SnapshotCorruptionError(
            f"malformed shift score state: {exc}"
        ) from exc


class ShiftDetector:
    """Per-pair prediction errors folded into decayed-maximum scores."""

    def __init__(
        self,
        predictor: Optional[Predictor] = None,
        decay: Optional[ExponentialDecay] = None,
        min_history: int = 3,
        penalize_drops: bool = False,
    ):
        if min_history < 1:
            raise ValueError("min_history must be at least 1")
        self.predictor = predictor or MovingAveragePredictor()
        self.decay = decay or ExponentialDecay()
        self.min_history = int(min_history)
        #: When True, drops in correlation also count as shifts; the paper
        #: targets *increases*, so the default only scores positive errors.
        self.penalize_drops = bool(penalize_drops)
        # With a fused evaluator attached its score columns are where
        # evaluations write; this dict then lags behind until
        # _synced_scores() folds the scored rows in, so read it through
        # that method only.
        self._scores: Dict[Pair, DecayedMaximum] = {}
        self._evaluator: Optional["FusedEvaluator"] = None

    def attach_evaluator(self, evaluator: "FusedEvaluator") -> None:
        """Make ``evaluator``'s score columns the place evaluations write.

        Called by :class:`~repro.core.vectorized.FusedEvaluator` on
        construction; a detector feeds at most one evaluator.
        """
        self._evaluator = evaluator

    def _synced_scores(
        self, mutating: bool = False
    ) -> Dict[Pair, DecayedMaximum]:
        """The per-pair decayed maxima with every scored row folded in.

        Rows the attached evaluator scored since the last call are
        materialised here, on read.  ``mutating`` tells
        the evaluator that the caller is about to change the dict behind
        its back, so it reloads its columns before its next evaluation.
        """
        evaluator = self._evaluator
        if evaluator is not None:
            scores = self._scores
            for pair, value, last_update in evaluator.drain_scores():
                maximum = scores.get(pair)
                if maximum is None:
                    maximum = scores[pair] = DecayedMaximum(self.decay)
                maximum.restore_state(value, last_update)
            if mutating:
                evaluator.invalidate()
        return self._scores

    # -- scoring ------------------------------------------------------------

    def _usable_history(self, history: Sequence[float]) -> Optional[List[float]]:
        """The history as floats, or None when it is too short to forecast.

        Histories shorter than ``min_history`` (or than the predictor's own
        minimum) are "unknown, not unpredictable": a pair that has just
        appeared yields no forecast and no error.  Lists from the engine
        already hold floats — skip the defensive copy.
        """
        usable = history if type(history) is list \
            else [float(v) for v in history]
        if len(usable) < max(self.min_history, self.predictor.min_history):
            return None
        return usable

    def _error(self, observed: float, predicted: float) -> float:
        raw_error = observed - predicted
        if self.penalize_drops:
            return abs(raw_error)
        return max(0.0, raw_error)

    def prediction_error(self, history: Sequence[float], observed: float) -> float:
        """Error between the predictor's forecast and the observation."""
        usable = self._usable_history(history)
        if usable is None:
            return 0.0
        return self._error(observed, self.predictor.predict(usable))

    def predict(self, history: Sequence[float]) -> float:
        """The raw forecast for the next correlation value (0.0 if unknown)."""
        usable = self._usable_history(history)
        if usable is None:
            return 0.0
        return self.predictor.predict(usable)

    def update(
        self,
        observation: PairObservation,
        history: Sequence[float],
    ) -> ShiftScore:
        """Score one observation.

        ``history`` must contain the *previous* correlation values of the
        pair, i.e. it must not include ``observation.correlation`` itself.
        """
        # Shares the gate and error formula with predict/prediction_error
        # but runs the predictor once per observation instead of twice.
        usable = self._usable_history(history)
        if usable is None:
            predicted = 0.0
            error = 0.0
        else:
            predicted = self.predictor.predict(usable)
            error = self._error(observation.correlation, predicted)
        tracker = self._synced_scores(mutating=True).setdefault(
            observation.pair, DecayedMaximum(self.decay)
        )
        score = tracker.update(observation.timestamp, error)
        return ShiftScore(
            pair=observation.pair,
            timestamp=observation.timestamp,
            correlation=observation.correlation,
            predicted=predicted,
            error=error,
            score=score,
            seed_tag=observation.seed_tag,
        )

    def score_at(self, pair: Pair, timestamp: float) -> float:
        """Current decayed score of ``pair`` (0.0 when never scored)."""
        tracker = self._synced_scores().get(pair)
        if tracker is None:
            return 0.0
        return tracker.value_at(timestamp)

    def scored_pairs(self) -> List[Pair]:
        return sorted(self._synced_scores())

    @property
    def score_map(self) -> Dict[Pair, DecayedMaximum]:
        """The live per-pair decayed maxima, keyed by plain canonical pairs
        (read-only; do not mutate)."""
        return self._synced_scores()

    def reset(self, pair: Optional[Pair] = None) -> None:
        """Forget the score of one pair, or of every pair."""
        scores = self._synced_scores(mutating=True)
        if pair is None:
            scores.clear()
        else:
            scores.pop(pair, None)

    def check_invariants(self, latest: Optional[float] = None) -> None:
        """Raise ``AssertionError`` unless a live detector could hold this.

        No score (in the dict, or in the attached evaluator's columns) was
        last updated after ``latest``, the latest evaluated timestamp;
        then the attached evaluator's own invariants.  Reads the dict as
        it stands — nothing pending is folded in.  For tests, never on
        the stream.
        """
        if latest is not None:
            for pair, maximum in self._scores.items():
                _, last_update = maximum.state()
                if last_update is not None and last_update > latest:
                    raise AssertionError(
                        f"{pair!r} was scored at {last_update}, after the "
                        f"latest evaluation at {latest}"
                    )
        if self._evaluator is not None:
            self._evaluator.check_invariants(latest)

    # -- persistence --------------------------------------------------------

    def snapshot(self) -> dict:
        """Every pair's decayed maximum as a versioned, JSON-safe dict.

        The predictor itself is stateless between evaluations (it reads the
        tracker-owned histories), so the per-pair ``(value, last_update)``
        pairs are the detector's whole state, written through
        :func:`scores_state`.
        """
        return {
            "kind": "shift-detector",
            "version": 2,
            "min_history": self.min_history,
            "penalize_drops": self.penalize_drops,
            "decay_half_life": self.decay.half_life,
            **scores_state(
                (first, second, *maximum.state())
                for (first, second), maximum
                in sorted(self._synced_scores().items())
            ),
        }

    def restore(self, state: Mapping) -> None:
        """Replace the per-pair scores with a :meth:`snapshot`'s state."""
        require_state(state, "shift-detector", 2)
        require_compatible(
            "shift-detector",
            {
                "min_history": self.min_history,
                "penalize_drops": self.penalize_drops,
                "decay_half_life": self.decay.half_life,
            },
            state,
        )
        scores: Dict[Pair, DecayedMaximum] = {}
        for first, second, value, last_update in scores_from_state(state):
            maximum = DecayedMaximum(self.decay)
            maximum.restore_state(value, last_update)
            scores[canonical_pair(first, second)] = maximum
        if self._evaluator is not None:
            # Rows not yet folded into the dict describe the pre-restore
            # state: dropped, not flushed.
            self._evaluator.discard_scores()
        self._scores = scores
