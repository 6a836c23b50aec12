"""Top-k emergent-topic rankings.

"These values are used to rank tag pairs and to report the top-k most
interesting ones, thus presenting the user with emergent topics."  The
builder also folds in pairs that were scored at earlier evaluations but are
not among the current observations: their decayed score can still beat a
fresh but weak shift, which is exactly the role of the two-day half-life.
"""

from __future__ import annotations

import heapq
from itertools import islice
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.core.shift import ShiftDetector, ShiftScore
from repro.core.types import EmergentTopic, Pair, Ranking, TagPair
from repro.persistence.snapshot import require_state


def topic_sort_key(topic: EmergentTopic) -> Tuple[float, TagPair]:
    """The total order of every ranking: score descending, pair ascending.

    Scores alone leave ties — two pairs shifting identically (common on
    synthetic streams and in the first evaluations of a live one) — so the
    canonical pair breaks them lexicographically.  The order is *total*:
    pairs are unique within a ranking, hence no two topics compare equal.
    Every consumer that orders topics (the builder, the sharded engine's
    cross-shard merge, ``Ranking`` itself) must use this one key, which is
    what makes a k-way merge of per-shard rankings bit-identical to ranking
    the union in one process.
    """
    return (-topic.score, topic.pair)


class RankingBuilder:
    """Assemble top-k rankings from shift scores and the detector state."""

    def __init__(self, top_k: int = 10, min_score: float = 0.0):
        if top_k <= 0:
            raise ValueError("top_k must be positive")
        if min_score < 0:
            raise ValueError("min_score must be non-negative")
        self.top_k = int(top_k)
        self.min_score = float(min_score)

    # -- persistence --------------------------------------------------------

    def snapshot(self) -> dict:
        """The builder's parameters as a versioned, JSON-safe dict.

        The builder keeps no per-evaluation state (published rankings live
        on the engine), so its snapshot is the ranking policy itself —
        restoring it guarantees the resumed run cuts its top-k with exactly
        the thresholds the checkpointed run used.
        """
        return {
            "kind": "ranking-builder",
            "version": 1,
            "top_k": self.top_k,
            "min_score": self.min_score,
        }

    def restore(self, state: Mapping) -> None:
        """Adopt a :meth:`snapshot`'s ranking policy (validated as in init)."""
        require_state(state, "ranking-builder", 1)
        top_k = int(state["top_k"])
        min_score = float(state["min_score"])
        if top_k <= 0:
            raise ValueError("top_k must be positive")
        if min_score < 0:
            raise ValueError("min_score must be non-negative")
        self.top_k = top_k
        self.min_score = min_score

    def begin_delta_tracking(self) -> None:
        """No buffers to arm: the builder's whole state is its tiny policy."""

    def end_delta_tracking(self) -> None:
        """No buffers to discard (see :meth:`begin_delta_tracking`)."""

    def delta_since(self, generation: int) -> dict:
        """The current ranking policy, absolute (it may mutate mid-stream).

        Journal deltas ship the policy whole on every tick — it is two
        scalars, far below any framing overhead — so
        :func:`repro.persistence.delta.apply_builder_delta` simply adopts
        the latest values.
        """
        return {
            "kind": "ranking-builder-delta",
            "version": 1,
            "since": int(generation),
            "top_k": self.top_k,
            "min_score": self.min_score,
        }

    def collect_topics(
        self,
        timestamp: float,
        shift_scores: Iterable[ShiftScore],
        detector: Optional[ShiftDetector] = None,
    ) -> Dict[Pair, EmergentTopic]:
        """Every topic competing at ``timestamp``, keyed by pair (unordered).

        ``shift_scores`` are the freshly scored observations; when
        ``detector`` is given, pairs it has scored in the past but that are
        absent from the current observations compete with their decayed
        scores, so a strong recent topic does not vanish the moment its
        correlation stops growing.  Shared by :meth:`build` and the sharded
        engine's per-shard scoring, so both paths admit exactly the same
        topics.
        """
        topics: Dict[Pair, EmergentTopic] = {}
        for shift in shift_scores:
            if shift.score <= self.min_score:
                continue
            topics[shift.pair] = EmergentTopic(
                pair=shift.pair,
                score=shift.score,
                correlation=shift.correlation,
                predicted_correlation=shift.predicted,
                prediction_error=shift.error,
                seed_tag=shift.seed_tag,
                timestamp=timestamp,
            )
        if detector is not None:
            for pair in detector.scored_pairs():
                if pair in topics:
                    continue
                score = detector.score_at(pair, timestamp)
                if score <= self.min_score:
                    continue
                topics[pair] = EmergentTopic(
                    pair=pair, score=score, timestamp=timestamp,
                )
        return topics

    def top_topics(
        self,
        timestamp: float,
        shift_scores: Iterable[ShiftScore],
        detector: Optional[ShiftDetector] = None,
    ) -> List[EmergentTopic]:
        """The top-k competing topics in :func:`topic_sort_key` order."""
        topics = self.collect_topics(timestamp, shift_scores, detector)
        return sorted(topics.values(), key=topic_sort_key)[: self.top_k]

    def build(
        self,
        timestamp: float,
        shift_scores: Iterable[ShiftScore],
        detector: Optional[ShiftDetector] = None,
        label: str = "",
    ) -> Ranking:
        """Build the ranking for one evaluation."""
        ranked = self.top_topics(timestamp, shift_scores, detector)
        return Ranking(timestamp=timestamp, topics=ranked, label=label)

    def merge(
        self,
        timestamp: float,
        topic_lists: Sequence[Sequence[EmergentTopic]],
        label: str = "",
    ) -> Ranking:
        """K-way-merge per-shard top-k topic lists into one global ranking.

        Each input list must already be sorted by :func:`topic_sort_key` and
        the lists must cover disjoint pair sets (each pair lives in exactly
        one shard).  Because every shard contributes its local top-k, the
        global top-k is a prefix of the merged order — the standard
        scatter-gather argument — so the result is bit-identical to building
        one ranking from the union of all shards' topics.
        """
        merged = heapq.merge(*topic_lists, key=topic_sort_key)
        ranked = list(islice(merged, self.top_k))
        return Ranking(timestamp=timestamp, topics=ranked, label=label)
