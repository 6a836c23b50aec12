"""Correlation measures over windowed tag-pair statistics.

Stage (ii) of the framework: "For each such pair, we continuously monitor
the amount of documents that are annotated with both tags.  There are
multiple ways how to calculate a correlation measure that reflects some
notion of interestingness."  The inputs of every measure are the windowed
counts collected by the tracker — how many documents carry tag *a*, tag
*b*, both, and how many documents the window holds in total — plus, for the
information-theoretic measure, the two tags' co-tag usage distributions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Type

from repro.core.types import Pair


@dataclass(frozen=True)
class PairCounts:
    """Windowed counts for one tag pair.

    ``pair`` is optional context for error messages: when the tracker
    samples thousands of candidates, a validation failure must name the
    canonical pair it came from or it is undebuggable.  The field is
    excluded from equality/hashing — two count tuples compare equal
    regardless of which pair produced them.
    """

    count_a: int
    count_b: int
    count_both: int
    total_documents: int
    pair: Optional[Pair] = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if min(self.count_a, self.count_b, self.count_both, self.total_documents) < 0:
            raise ValueError(f"counts must be non-negative{self._pair_context()}")
        if self.count_both > min(self.count_a, self.count_b):
            raise ValueError(
                "the intersection cannot exceed either tag count"
                f"{self._pair_context()}"
            )
        if max(self.count_a, self.count_b) > self.total_documents:
            raise ValueError(
                "tag counts cannot exceed the document count"
                f"{self._pair_context()}"
            )

    def _pair_context(self) -> str:
        """`` for pair (a, b)`` when the canonical pair is known, else ``""``."""
        return "" if self.pair is None \
            else " for pair ({}, {})".format(*self.pair)

    @property
    def union(self) -> int:
        return self.count_a + self.count_b - self.count_both


class CorrelationMeasure:
    """Interface: map windowed pair counts to a correlation value."""

    #: Registry name, set by subclasses.
    name = "base"

    #: Whether :mod:`repro.core.vectorized` carries a batched kernel that is
    #: bit-identical to :meth:`value`.  Measures that need the per-tag usage
    #: distributions (``kl``) stay scalar.
    vectorizes = False

    def value(
        self,
        counts: PairCounts,
        usage_a: Optional[Mapping[str, int]] = None,
        usage_b: Optional[Mapping[str, int]] = None,
    ) -> float:
        """Correlation of the pair.  Higher means more correlated.

        ``usage_a``/``usage_b`` are optional co-tag usage distributions (tag
        -> count of co-occurrences) used by the information-theoretic
        measure; set-overlap measures ignore them.
        """
        raise NotImplementedError


class JaccardCorrelation(CorrelationMeasure):
    """Intersection over union of the two tags' document sets."""

    name = "jaccard"
    vectorizes = True

    def value(self, counts: PairCounts, usage_a=None, usage_b=None) -> float:
        union = counts.union
        if union == 0:
            return 0.0
        return counts.count_both / union


class OverlapCorrelation(CorrelationMeasure):
    """Overlap coefficient: intersection over the smaller document set.

    Suits the Figure 1 setting where one tag is much more popular than the
    other — the measure is driven by how much of the *rare* tag's documents
    also carry the popular tag.
    """

    name = "overlap"
    vectorizes = True

    def value(self, counts: PairCounts, usage_a=None, usage_b=None) -> float:
        smaller = min(counts.count_a, counts.count_b)
        if smaller == 0:
            return 0.0
        return counts.count_both / smaller


class CosineCorrelation(CorrelationMeasure):
    """Cosine similarity of the two binary document-incidence vectors."""

    name = "cosine"
    vectorizes = True

    def value(self, counts: PairCounts, usage_a=None, usage_b=None) -> float:
        denominator = math.sqrt(counts.count_a * counts.count_b)
        if denominator == 0:
            return 0.0
        return counts.count_both / denominator


class PmiCorrelation(CorrelationMeasure):
    """Normalised pointwise mutual information of the two tags.

    PMI is normalised by ``-log p(a, b)`` so the value lies in [-1, 1]; the
    tracker maps negative values to 0 since anti-correlation is never an
    emergent topic.
    """

    name = "pmi"
    vectorizes = True

    def value(self, counts: PairCounts, usage_a=None, usage_b=None) -> float:
        if counts.total_documents == 0 or counts.count_both == 0:
            return 0.0
        p_a = counts.count_a / counts.total_documents
        p_b = counts.count_b / counts.total_documents
        p_ab = counts.count_both / counts.total_documents
        if p_a == 0 or p_b == 0:
            return 0.0
        pmi = math.log(p_ab / (p_a * p_b))
        normaliser = -math.log(p_ab)
        if normaliser == 0:
            return 1.0
        return max(0.0, pmi / normaliser)


class KlDivergenceCorrelation(CorrelationMeasure):
    """Similarity of the two tags' co-tag usage distributions.

    "In the more complex case of documents being represented by their entire
    tag sets or term distributions, we can apply information-theory measures
    like relative entropy to assess the similarity of tag/term usage."  We
    compute the symmetrised, smoothed KL divergence between the co-tag
    distributions of the two tags and map it to a similarity in (0, 1] via
    ``1 / (1 + divergence)`` so that "more similar usage" means a larger
    correlation value, consistent with the other measures.
    """

    name = "kl"

    def __init__(self, smoothing: float = 0.5):
        if smoothing <= 0:
            raise ValueError("smoothing must be positive")
        self.smoothing = float(smoothing)

    def value(self, counts: PairCounts, usage_a=None, usage_b=None) -> float:
        if not usage_a or not usage_b:
            # Without usage distributions fall back to Jaccard so the measure
            # degrades gracefully rather than silently returning zeros.
            return JaccardCorrelation().value(counts)
        divergence = self._symmetric_kl(usage_a, usage_b)
        return 1.0 / (1.0 + divergence)

    def _symmetric_kl(
        self, usage_a: Mapping[str, int], usage_b: Mapping[str, int]
    ) -> float:
        vocabulary = set(usage_a) | set(usage_b)
        if not vocabulary:
            return 0.0
        p = self._smooth(usage_a, vocabulary)
        q = self._smooth(usage_b, vocabulary)
        kl_pq = sum(p[t] * math.log(p[t] / q[t]) for t in vocabulary)
        kl_qp = sum(q[t] * math.log(q[t] / p[t]) for t in vocabulary)
        return 0.5 * (kl_pq + kl_qp)

    def _smooth(self, usage: Mapping[str, int], vocabulary: set) -> Dict[str, float]:
        total = sum(usage.get(t, 0) for t in vocabulary) + self.smoothing * len(vocabulary)
        return {
            t: (usage.get(t, 0) + self.smoothing) / total for t in vocabulary
        }


_MEASURE_REGISTRY: Dict[str, Type[CorrelationMeasure]] = {
    JaccardCorrelation.name: JaccardCorrelation,
    OverlapCorrelation.name: OverlapCorrelation,
    CosineCorrelation.name: CosineCorrelation,
    PmiCorrelation.name: PmiCorrelation,
    KlDivergenceCorrelation.name: KlDivergenceCorrelation,
}


def available_measures() -> List[str]:
    """Names accepted by :func:`make_measure`."""
    return sorted(_MEASURE_REGISTRY)


def vectorizable_measures() -> List[str]:
    """Measure names with a bit-identical batched kernel in ``vectorized``."""
    return sorted(
        name for name, cls in _MEASURE_REGISTRY.items() if cls.vectorizes
    )


def make_measure(name: str, **kwargs) -> CorrelationMeasure:
    """Instantiate a correlation measure by its registry name."""
    try:
        measure_class = _MEASURE_REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown correlation measure {name!r}; available: {available_measures()}"
        ) from None
    return measure_class(**kwargs)
