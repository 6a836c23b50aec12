"""Tag vocabularies and Zipf-distributed tag sampling.

Real Web 2.0 tag distributions are heavily skewed: a few tags (broad
categories) appear on a large fraction of documents while the long tail is
rare.  The generators therefore sample background tags from a Zipf
distribution over a domain vocabulary, which makes seed-tag selection and
the popular/rare contrast of Figure 1 behave as they do on real data.
"""

from __future__ import annotations

import bisect
import random
from typing import Dict, List, Optional, Sequence


class ZipfSampler:
    """Sample items with probability proportional to ``1 / rank**exponent``."""

    def __init__(
        self,
        items: Sequence[str],
        exponent: float = 1.1,
        rng: Optional[random.Random] = None,
    ):
        if not items:
            raise ValueError("cannot sample from an empty item list")
        if exponent <= 0:
            raise ValueError("exponent must be positive")
        self.items = list(items)
        self.exponent = float(exponent)
        self._rng = rng or random.Random(0)
        weights = [1.0 / (rank ** self.exponent) for rank in range(1, len(self.items) + 1)]
        total = sum(weights)
        self._cumulative: List[float] = []
        running = 0.0
        for weight in weights:
            running += weight / total
            self._cumulative.append(running)

    def sample(self) -> str:
        """Draw one item."""
        index = bisect.bisect_left(self._cumulative, self._rng.random())
        # Rounding can leave the last cumulative value just under 1.0.
        return self.items[index] if index < len(self.items) else self.items[-1]

    def sample_distinct(self, count: int) -> List[str]:
        """Draw ``count`` distinct items (fewer only if the vocabulary is smaller)."""
        if count <= 0:
            return []
        chosen: List[str] = []
        seen = set()
        attempts = 0
        limit = max(100, 50 * count)
        while len(chosen) < min(count, len(self.items)) and attempts < limit:
            item = self.sample()
            attempts += 1
            if item not in seen:
                seen.add(item)
                chosen.append(item)
        return chosen

    def probability(self, item: str) -> float:
        """Sampling probability of ``item`` (0.0 when not in the vocabulary)."""
        try:
            rank = self.items.index(item) + 1
        except ValueError:
            return 0.0
        weights = [1.0 / (r ** self.exponent) for r in range(1, len(self.items) + 1)]
        return (1.0 / (rank ** self.exponent)) / sum(weights)


class TagVocabulary:
    """A named collection of tags grouped into thematic categories."""

    def __init__(self, categories: Optional[Dict[str, Sequence[str]]] = None):
        self._categories: Dict[str, List[str]] = {}
        if categories:
            for name, tags in categories.items():
                self.add_category(name, tags)

    def add_category(self, name: str, tags: Sequence[str]) -> None:
        if not name:
            raise ValueError("category name must be non-empty")
        if not tags:
            raise ValueError(f"category {name!r} needs at least one tag")
        self._categories[name] = list(dict.fromkeys(tags))

    def categories(self) -> List[str]:
        return list(self._categories)

    def tags(self, category: Optional[str] = None) -> List[str]:
        """Tags of one category, or all tags (category order preserved)."""
        if category is not None:
            if category not in self._categories:
                raise KeyError(f"unknown category {category!r}")
            return list(self._categories[category])
        all_tags: List[str] = []
        for tags in self._categories.values():
            all_tags.extend(tags)
        return list(dict.fromkeys(all_tags))

    def category_of(self, tag: str) -> Optional[str]:
        """First category containing ``tag`` (None when unknown)."""
        for name, tags in self._categories.items():
            if tag in tags:
                return name
        return None

    def __len__(self) -> int:
        return len(self.tags())

    def __contains__(self, tag: str) -> bool:
        return any(tag in tags for tags in self._categories.values())


def news_vocabulary() -> TagVocabulary:
    """A compact news-style vocabulary used by the default generators."""
    return TagVocabulary({
        "politics": [
            "politics", "elections", "congress", "white house", "campaign",
            "voting", "senate", "policy", "debate", "primaries",
        ],
        "weather": [
            "weather", "hurricane", "storm", "flooding", "evacuation",
            "forecast", "disaster relief", "climate",
        ],
        "sports": [
            "sports", "baseball", "tennis", "olympics", "football",
            "championship", "world series", "super bowl",
        ],
        "business": [
            "business", "economy", "stocks", "banking", "markets",
            "recession", "federal reserve", "bailout",
        ],
        "technology": [
            "technology", "internet", "software", "startups", "research",
            "databases", "conference",
        ],
        "world": [
            "world", "europe", "asia", "travel", "air traffic",
            "volcano", "iceland", "greece",
        ],
    })
