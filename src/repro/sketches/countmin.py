"""Count-Min sketch for stream counting.

The Count-Min sketch overestimates counts but never underestimates them,
which is the right bias for seed-tag selection: a tag reported as popular by
the sketch may occasionally be a false positive, but no genuinely popular
tag is missed.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.sketches.hashing import HashFamily


class CountMinSketch:
    """Classic Count-Min sketch over string keys."""

    def __init__(
        self,
        width: Optional[int] = None,
        depth: Optional[int] = None,
        epsilon: Optional[float] = None,
        delta: Optional[float] = None,
        seed: int = 0,
    ):
        """Create a sketch either from explicit dimensions or error bounds.

        ``epsilon`` bounds the overestimate (relative to the total count) and
        ``delta`` the failure probability; they translate into ``width =
        ceil(e / epsilon)`` and ``depth = ceil(ln(1 / delta))``.
        """
        if width is None or depth is None:
            if epsilon is None or delta is None:
                raise ValueError(
                    "provide either (width, depth) or (epsilon, delta)"
                )
            if not 0 < epsilon < 1 or not 0 < delta < 1:
                raise ValueError("epsilon and delta must lie in (0, 1)")
            width = math.ceil(math.e / epsilon)
            depth = math.ceil(math.log(1.0 / delta))
        if width <= 0 or depth <= 0:
            raise ValueError("width and depth must be positive")
        self.width = int(width)
        self.depth = int(depth)
        self._hashes = HashFamily(self.depth, seed=seed)
        self._table = [[0] * self.width for _ in range(self.depth)]
        self._total = 0

    @property
    def total(self) -> int:
        """Total weight added to the sketch."""
        return self._total

    def add(self, key: str, count: int = 1) -> int:
        """Add ``count`` to ``key``; return the post-add estimate.

        The returned value equals ``estimate(key)`` immediately after the
        add, computed from the same row/column walk — callers on hot paths
        (the sketch tier's admission) avoid hashing the key twice.
        """
        if count < 0:
            raise ValueError("counts must be non-negative")
        minimum = None
        for row in range(self.depth):
            column = self._hashes.hash(key, row) % self.width
            cell = self._table[row][column] + count
            self._table[row][column] = cell
            if minimum is None or cell < minimum:
                minimum = cell
        self._total += count
        return minimum

    def estimate(self, key: str) -> int:
        """Estimated count for ``key`` (never an underestimate)."""
        return min(
            self._table[row][self._hashes.hash(key, row) % self.width]
            for row in range(self.depth)
        )

    def merge(self, other: "CountMinSketch") -> None:
        """Fold ``other`` into this sketch (dimensions and seed must match)."""
        if (self.width, self.depth) != (other.width, other.depth):
            raise ValueError("cannot merge sketches with different dimensions")
        if self._hashes.seed != other._hashes.seed:
            raise ValueError("cannot merge sketches with different hash seeds")
        for row in range(self.depth):
            for column in range(self.width):
                self._table[row][column] += other._table[row][column]
        self._total += other._total

    SNAPSHOT_KIND = "count-min"
    SNAPSHOT_VERSION = 1

    def snapshot(self) -> dict:
        """Exact-width serialization: the table is recorded cell for cell,
        so a restored sketch answers every estimate identically."""
        return {
            "kind": self.SNAPSHOT_KIND,
            "version": self.SNAPSHOT_VERSION,
            "width": self.width,
            "depth": self.depth,
            "seed": self._hashes.seed,
            "total": self._total,
            "table": [list(row) for row in self._table],
        }

    def restore(self, state: dict) -> None:
        if state.get("kind") != self.SNAPSHOT_KIND:
            raise ValueError(f"not a count-min snapshot: {state.get('kind')!r}")
        if state.get("version") != self.SNAPSHOT_VERSION:
            raise ValueError(
                f"unsupported count-min snapshot version {state.get('version')!r}"
            )
        if (state["width"], state["depth"]) != (self.width, self.depth):
            raise ValueError(
                "snapshot dimensions "
                f"{state['width']}x{state['depth']} do not match the sketch's "
                f"{self.width}x{self.depth}"
            )
        if state["seed"] != self._hashes.seed:
            raise ValueError("snapshot hash seed does not match the sketch's")
        table = state["table"]
        if len(table) != self.depth or any(len(row) != self.width for row in table):
            raise ValueError("snapshot table does not match the declared dimensions")
        self._table = [list(row) for row in table]
        self._total = int(state["total"])

    @classmethod
    def from_snapshot(cls, state: dict) -> "CountMinSketch":
        sketch = cls(
            width=state["width"], depth=state["depth"], seed=state["seed"]
        )
        sketch.restore(state)
        return sketch
