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
from typing import TYPE_CHECKING, Dict, List, Mapping, Optional, Sequence, Set

from repro.core.tracker import PairObservation
from repro.core.types import TagPair
from repro.persistence.codec import intern_rows
from repro.persistence.snapshot import require_compatible, require_state
from repro.timeseries.predictors import MovingAveragePredictor, Predictor
from repro.windows.decay import DecayedMaximum, ExponentialDecay

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.vectorized import FusedEvaluator


@dataclass(frozen=True)
class ShiftScore:
    """The scored shift of one pair at one evaluation time."""

    pair: TagPair
    timestamp: float
    correlation: float
    predicted: float
    error: float
    score: float
    seed_tag: str

    def __post_init__(self) -> None:
        if self.error < 0 or self.score < 0:
            raise ValueError("errors and scores are non-negative")


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
        self._scores: Dict[TagPair, DecayedMaximum] = {}
        self._evaluator: Optional["FusedEvaluator"] = None
        # Pairs whose decayed maximum changed since the last delta drain;
        # None when delta recording is inactive.
        self._dirty: Optional[Set[TagPair]] = None

    def attach_evaluator(self, evaluator: "FusedEvaluator") -> None:
        """Make ``evaluator``'s score columns the place evaluations write.

        Called by :class:`~repro.core.vectorized.FusedEvaluator` on
        construction; a detector feeds at most one evaluator.
        """
        self._evaluator = evaluator

    def _synced_scores(
        self, mutating: bool = False
    ) -> Dict[TagPair, DecayedMaximum]:
        """The per-pair decayed maxima with every scored row folded in.

        Rows the attached evaluator scored since the last call are
        materialised here, on read, and — while a journal is armed —
        marked dirty for the next :meth:`delta_since`.  ``mutating`` tells
        the evaluator that the caller is about to change the dict behind
        its back, so it reloads its columns before its next evaluation.
        """
        evaluator = self._evaluator
        if evaluator is not None:
            scores = self._scores
            dirty = self._dirty
            for pair, value, last_update in evaluator.drain_scores():
                maximum = scores.get(pair)
                if maximum is None:
                    maximum = scores[pair] = DecayedMaximum(self.decay)
                maximum.restore_state(value, last_update)
                if dirty is not None:
                    dirty.add(pair)
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
        if self._dirty is not None:
            self._dirty.add(observation.pair)
        return ShiftScore(
            pair=observation.pair,
            timestamp=observation.timestamp,
            correlation=observation.correlation,
            predicted=predicted,
            error=error,
            score=score,
            seed_tag=observation.seed_tag,
        )

    def score_at(self, pair: TagPair, timestamp: float) -> float:
        """Current decayed score of ``pair`` (0.0 when never scored)."""
        tracker = self._synced_scores().get(pair)
        if tracker is None:
            return 0.0
        return tracker.value_at(timestamp)

    def scored_pairs(self) -> List[TagPair]:
        return sorted(self._synced_scores())

    @property
    def score_map(self) -> Dict[TagPair, DecayedMaximum]:
        """The live per-pair decayed maxima (read-only; do not mutate)."""
        return self._synced_scores()

    def reset(self, pair: Optional[TagPair] = None) -> None:
        """Forget the score of one pair, or of every pair.

        Not representable in a journal delta (which carries updates, not
        deletions), so resetting while delta recording is active fails
        loudly instead of silently corrupting a checkpoint chain.
        """
        if self._dirty is not None:
            raise RuntimeError(
                "cannot reset scores while delta recording is active: a "
                "journal delta cannot express deletions; write a full "
                "checkpoint (re-base) first"
            )
        scores = self._synced_scores(mutating=True)
        if pair is None:
            scores.clear()
        else:
            scores.pop(pair, None)

    # -- persistence --------------------------------------------------------

    def snapshot(self) -> dict:
        """Every pair's decayed maximum as a versioned, JSON-safe dict.

        The predictor itself is stateless between evaluations (it reads the
        tracker-owned histories), so the per-pair ``(value, last_update)``
        pairs are the detector's whole state.
        """
        return {
            "kind": "shift-detector",
            "version": 1,
            "min_history": self.min_history,
            "penalize_drops": self.penalize_drops,
            "decay_half_life": self.decay.half_life,
            "scores": [
                [pair.first, pair.second, *maximum.state()]
                for pair, maximum in sorted(self._synced_scores().items())
            ],
        }

    def restore(self, state: Mapping) -> None:
        """Replace the per-pair scores with a :meth:`snapshot`'s state."""
        require_state(state, "shift-detector", 1)
        require_compatible(
            "shift-detector",
            {
                "min_history": self.min_history,
                "penalize_drops": self.penalize_drops,
                "decay_half_life": self.decay.half_life,
            },
            state,
        )
        scores: Dict[TagPair, DecayedMaximum] = {}
        for first, second, value, last_update in state["scores"]:
            maximum = DecayedMaximum(self.decay)
            maximum.restore_state(value, last_update)
            scores[TagPair(str(first), str(second))] = maximum
        if self._evaluator is not None:
            # Rows not yet folded into the dict describe the pre-restore
            # state: dropped, not flushed.
            self._evaluator.discard_scores()
        self._scores = scores
        # Any buffered delta described the pre-restore state; drop it.
        self._dirty = None

    # -- incremental persistence --------------------------------------------

    def begin_delta_tracking(self) -> None:
        """Start (or re-arm, emptying the buffer) delta recording."""
        # Rows scored before this point belong to the base snapshot.
        self._synced_scores()
        self._dirty = set()

    def end_delta_tracking(self) -> None:
        """Stop recording and discard any buffered delta."""
        self._dirty = None

    def delta_since(self, generation: int) -> dict:
        """The decayed maxima updated since the last base/drain.

        Replace semantics: the dirty pairs (``pairs``, each exactly once,
        in canonical order, as positions into the ``tags`` string table)
        with their *absolute* state in two parallel columns (``values``,
        ``last_updates``), so
        :func:`repro.persistence.delta.apply_detector_delta` merges them
        into the base table without replaying updates.  Requires
        :meth:`begin_delta_tracking`; recording stays armed afterwards.
        """
        if self._dirty is None:
            raise RuntimeError(
                "delta tracking is not active: take a base snapshot and "
                "call begin_delta_tracking() first"
            )
        scores = self._synced_scores()
        dirty = sorted(self._dirty)
        states = [scores[pair].state() for pair in dirty]
        tags, pairs = intern_rows(dirty)
        delta = {
            "kind": "shift-detector-delta",
            "version": 2,
            "since": int(generation),
            "tags": tags,
            "pairs": pairs,
            "values": [value for value, _ in states],
            "last_updates": [last_update for _, last_update in states],
        }
        self._dirty = set()
        return delta
