"""Experiment runner: replay a corpus through a detector and score it."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import islice
from typing import Any, Callable, Dict, Iterable, List, Optional

from repro.core.engine import CORPUS_CHUNK
from repro.core.types import Ranking
from repro.datasets.documents import Corpus
from repro.datasets.events import EventSchedule
from repro.evaluation.ground_truth import DetectionOutcome, GroundTruthMatcher


@dataclass
class DetectorRun:
    """Raw output of replaying one corpus through one detector."""

    name: str
    rankings: List[Ranking] = field(default_factory=list)
    documents: int = 0
    wall_seconds: float = 0.0

    @property
    def throughput(self) -> float:
        """Documents processed per wall-clock second."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.documents / self.wall_seconds

    def final_ranking(self) -> Optional[Ranking]:
        return self.rankings[-1] if self.rankings else None


@dataclass
class ExperimentResult:
    """A detector run scored against the ground truth."""

    run: DetectorRun
    recall: float
    precision: float
    mean_latency: Optional[float]
    outcomes: List[DetectionOutcome] = field(default_factory=list)
    extras: Dict[str, Any] = field(default_factory=dict)

    def summary(self) -> Dict[str, Any]:
        return {
            "detector": self.run.name,
            "documents": self.run.documents,
            "rankings": len(self.run.rankings),
            "recall": round(self.recall, 3),
            "precision": round(self.precision, 3),
            "mean_latency": (
                round(self.mean_latency, 1) if self.mean_latency is not None else None
            ),
            "throughput_docs_per_s": round(self.run.throughput, 1),
            **self.extras,
        }


def run_detector(
    detector,
    corpus: Iterable,
    name: Optional[str] = None,
    finalize: bool = True,
    after_ranking: Optional[Callable[[Ranking], None]] = None,
) -> DetectorRun:
    """Replay ``corpus`` through ``detector`` and collect its rankings.

    The corpus goes in as ``detector.process_many(chunk)`` calls of
    :data:`~repro.core.engine.CORPUS_CHUNK` documents (EnBlogue, the
    sharded engine and both baselines expose it).  With ``finalize`` the
    detector's ``evaluate_now`` (when present) is called once after the
    replay so events near the end of the corpus still get a final ranking.

    ``after_ranking`` is called with each ranking the *stream itself*
    produced, in order, after the chunk that produced it has fully
    returned — at that point the detector is between documents and its
    state is checkpoint-consistent, which is what the CLI's
    ``--checkpoint-every`` relies on.  The forced ``finalize`` ranking is
    excluded: it is not a stream boundary, so a checkpoint taken there
    would not resume identically.
    """
    run_name = name or type(detector).__name__
    rankings: List[Ranking] = []
    documents = 0
    started = time.perf_counter()
    iterator = iter(corpus)
    while chunk := list(islice(iterator, CORPUS_CHUNK)):
        produced = detector.process_many(chunk)
        documents += len(chunk)
        rankings.extend(produced)
        if after_ranking is not None:
            for ranking in produced:
                after_ranking(ranking)
    if finalize and hasattr(detector, "evaluate_now") and documents > 0:
        rankings.append(detector.evaluate_now())
    elapsed = time.perf_counter() - started
    return DetectorRun(
        name=run_name, rankings=rankings, documents=documents, wall_seconds=elapsed
    )


def score_run(
    run: DetectorRun,
    schedule: EventSchedule,
    k: int = 10,
    detection_window: Optional[float] = None,
    extras: Optional[Dict[str, Any]] = None,
) -> ExperimentResult:
    """Score a detector run against the injected events."""
    matcher = GroundTruthMatcher(schedule, k=k, detection_window=detection_window)
    return ExperimentResult(
        run=run,
        recall=matcher.recall(run.rankings),
        precision=matcher.precision(run.rankings),
        mean_latency=matcher.mean_latency(run.rankings),
        outcomes=matcher.outcomes(run.rankings),
        extras=dict(extras or {}),
    )


def run_experiment(
    detector,
    corpus: Corpus,
    schedule: EventSchedule,
    name: Optional[str] = None,
    k: int = 10,
    detection_window: Optional[float] = None,
    extras: Optional[Dict[str, Any]] = None,
    after_ranking: Optional[Callable[[Ranking], None]] = None,
) -> ExperimentResult:
    """Replay and score in one call."""
    run = run_detector(detector, corpus, name=name, after_ranking=after_ranking)
    return score_run(
        run, schedule, k=k, detection_window=detection_window, extras=extras
    )
