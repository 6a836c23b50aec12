"""Stage (i): seed tag selection.

"Seed tags are used to trigger the computation in the following steps.
Seed tags can be determined based on different criteria, such as popularity
and volatility.  We choose seed tags to be popular tags. ...  We use seed
tags to generate candidate topics, i.e., pairs of tags that contain at
least one seed tag."

The selectors read the windowed tag statistics maintained by the tracker
(:class:`~repro.windows.aggregates.TagFrequencyWindow`) and, for the
volatility criterion, the recent history of each tag's windowed count.
"""

from __future__ import annotations

import math
from itertools import islice
from typing import List, Mapping, Optional, Sequence, Tuple

from repro.windows.aggregates import TagFrequencyWindow, top_scored


class SeedSelector:
    """Interface: pick the seed tags for the current evaluation."""

    name = "base"

    #: Whether :meth:`select` reads ``history``.  The engines record the
    #: per-tag count history only for a selector that does.
    reads_history = True

    def __init__(self, num_seeds: int = 25, min_count: int = 3):
        if num_seeds <= 0:
            raise ValueError("num_seeds must be positive")
        if min_count < 1:
            raise ValueError("min_count must be at least 1")
        self.num_seeds = int(num_seeds)
        self.min_count = int(min_count)

    def select(
        self,
        window: TagFrequencyWindow,
        history: Optional[Mapping[str, Sequence[int]]] = None,
    ) -> List[str]:
        """Return the seed tags, best first.

        ``window`` holds the current sliding-window tag counts; ``history``
        optionally maps each tag to its windowed counts at previous
        evaluations (needed by the volatility criterion).  Neither is
        modified: the engines hand in their live count history, not a copy.
        """
        min_count = self.min_count
        scored: List[Tuple[str, float]] = []
        for tag, count in window.counts.items():
            if count < min_count:
                continue
            score = self.score(tag, count, window, history)
            if score > 0:
                scored.append((tag, score))
        return [tag for tag, _ in top_scored(scored, self.num_seeds)]

    def score(
        self,
        tag: str,
        count: int,
        window: TagFrequencyWindow,
        history: Optional[Mapping[str, Sequence[int]]],
    ) -> float:
        raise NotImplementedError


class PopularitySeedSelector(SeedSelector):
    """Seed tags are the most popular tags of the window (the paper's choice)."""

    name = "popularity"
    reads_history = False

    def select(self, window, history=None) -> List[str]:
        # The k most frequent tags, ties by name: the window's own rule.
        top = window.top_tags(self.num_seeds, self.min_count)
        return [tag for tag, _ in top]

    def score(self, tag, count, window, history) -> float:
        return float(count)


class VolatilitySeedSelector(SeedSelector):
    """Seed tags are the tags whose windowed count fluctuates the most.

    Volatility is the standard deviation of the tag's recent windowed counts
    (including the current one) relative to their mean, so a tag with a
    steady high count scores lower than a tag that swings.
    """

    name = "volatility"

    def __init__(self, num_seeds: int = 25, min_count: int = 3, history_length: int = 12):
        super().__init__(num_seeds=num_seeds, min_count=min_count)
        if history_length < 2:
            raise ValueError("history_length must be at least 2")
        self.history_length = int(history_length)

    def score(self, tag, count, window, history) -> float:
        series: List[float] = []
        past = history.get(tag) if history else None
        if past:
            # The per-tag series may be a list, a tuple or a bounded deque
            # (the trackers keep deques, which do not support slicing):
            # skip to the last ``history_length`` points before converting.
            start = max(len(past) - self.history_length, 0)
            series = [float(v) for v in islice(past, start, None)]
        series.append(float(count))
        if len(series) < 2:
            # Without any history volatility is undefined; fall back to a
            # small popularity-based score so early evaluations still work.
            return float(count) * 1e-3
        mean = sum(series) / len(series)
        if mean == 0:
            return 0.0
        variance = sum((v - mean) ** 2 for v in series) / (len(series) - 1)
        return math.sqrt(variance) / mean


class HybridSeedSelector(SeedSelector):
    """Geometric mean of popularity and volatility scores."""

    name = "hybrid"

    def __init__(self, num_seeds: int = 25, min_count: int = 3, history_length: int = 12):
        super().__init__(num_seeds=num_seeds, min_count=min_count)
        self._popularity = PopularitySeedSelector(num_seeds, min_count)
        self._volatility = VolatilitySeedSelector(num_seeds, min_count, history_length)

    def score(self, tag, count, window, history) -> float:
        popularity = self._popularity.score(tag, count, window, history)
        volatility = self._volatility.score(tag, count, window, history)
        return math.sqrt(max(popularity, 0.0) * max(volatility, 0.0))


def make_seed_selector(
    criterion: str,
    num_seeds: int = 25,
    min_count: int = 3,
    history_length: int = 12,
) -> SeedSelector:
    """Instantiate a selector by criterion name."""
    if criterion == PopularitySeedSelector.name:
        return PopularitySeedSelector(num_seeds=num_seeds, min_count=min_count)
    if criterion == VolatilitySeedSelector.name:
        return VolatilitySeedSelector(
            num_seeds=num_seeds, min_count=min_count, history_length=history_length
        )
    if criterion == HybridSeedSelector.name:
        return HybridSeedSelector(
            num_seeds=num_seeds, min_count=min_count, history_length=history_length
        )
    raise ValueError(
        f"unknown seed criterion {criterion!r}; "
        "expected 'popularity', 'volatility' or 'hybrid'"
    )
