"""Bloom filter for approximate membership tests.

Used by the entity tagger as a cheap pre-filter in front of the knowledge
base ("is this 4-gram possibly a Wikipedia title?") and available as a
sketching plug-in for the stream engine.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional

from repro.sketches.hashing import HashFamily


class BloomFilter:
    """Standard Bloom filter over string keys (no deletions)."""

    def __init__(
        self,
        capacity: int,
        error_rate: float = 0.01,
        seed: int = 0,
    ):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if not 0 < error_rate < 1:
            raise ValueError("error rate must lie in (0, 1)")
        self.capacity = int(capacity)
        self.error_rate = float(error_rate)
        # Optimal parameters for the requested capacity / error rate.
        self.size = max(1, math.ceil(-capacity * math.log(error_rate) / (math.log(2) ** 2)))
        self.hash_count = max(1, round(self.size / capacity * math.log(2)))
        self._hashes = HashFamily(self.hash_count, seed=seed)
        self._bits = bytearray((self.size + 7) // 8)
        self._count = 0

    def __len__(self) -> int:
        """Number of keys added (including duplicates)."""
        return self._count

    def add(self, key: str) -> None:
        for value in self._hashes.hashes(key):
            self._set_bit(value % self.size)
        self._count += 1

    def update(self, keys: Iterable[str]) -> None:
        for key in keys:
            self.add(key)

    def __contains__(self, key: str) -> bool:
        # Hash lazily: a miss usually fails on the first probe.
        for index in range(self.hash_count):
            if not self._get_bit(self._hashes.hash(key, index) % self.size):
                return False
        return True

    def estimated_false_positive_rate(self) -> float:
        """False-positive probability given the current fill level."""
        if self._count == 0:
            return 0.0
        fill = 1.0 - math.exp(-self.hash_count * self._count / self.size)
        return fill ** self.hash_count

    def merge(self, other: "BloomFilter") -> None:
        """Fold ``other`` into this filter (parameters and seed must match).

        Membership afterwards is the union: any key in either input filter
        tests positive in the merged one (ORed bit arrays), and the add
        counter — the fill-level input — sums.
        """
        if (self.capacity, self.error_rate) != (other.capacity, other.error_rate):
            raise ValueError("cannot merge bloom filters with different parameters")
        if self._hashes.seed != other._hashes.seed:
            raise ValueError("cannot merge bloom filters with different hash seeds")
        for index, byte in enumerate(other._bits):
            self._bits[index] |= byte
        self._count += other._count

    SNAPSHOT_KIND = "bloom-filter"
    SNAPSHOT_VERSION = 1

    def snapshot(self) -> dict:
        """Exact-width serialization: the bit array is recorded verbatim."""
        return {
            "kind": self.SNAPSHOT_KIND,
            "version": self.SNAPSHOT_VERSION,
            "capacity": self.capacity,
            "error_rate": self.error_rate,
            "seed": self._hashes.seed,
            "count": self._count,
            "bits": self._bits.hex(),
        }

    def restore(self, state: dict) -> None:
        if state.get("kind") != self.SNAPSHOT_KIND:
            raise ValueError(f"not a bloom snapshot: {state.get('kind')!r}")
        if state.get("version") != self.SNAPSHOT_VERSION:
            raise ValueError(
                f"unsupported bloom snapshot version {state.get('version')!r}"
            )
        if (state["capacity"], state["error_rate"]) \
                != (self.capacity, self.error_rate):
            raise ValueError("snapshot parameters do not match the filter's")
        if state["seed"] != self._hashes.seed:
            raise ValueError("snapshot hash seed does not match the filter's")
        bits = bytearray.fromhex(state["bits"])
        if len(bits) != len(self._bits):
            raise ValueError("snapshot bit array does not match the filter size")
        self._bits = bits
        self._count = int(state["count"])

    @classmethod
    def from_snapshot(cls, state: dict) -> "BloomFilter":
        bloom = cls(
            capacity=state["capacity"],
            error_rate=state["error_rate"],
            seed=state["seed"],
        )
        bloom.restore(state)
        return bloom

    def _set_bit(self, index: int) -> None:
        self._bits[index // 8] |= 1 << (index % 8)

    def _get_bit(self, index: int) -> bool:
        return bool(self._bits[index // 8] & (1 << (index % 8)))
