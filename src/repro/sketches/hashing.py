"""Deterministic hash families for the Bloom filter.

The filter needs several independent hash functions over arbitrary string
keys.  We derive them from ``hashlib.blake2b`` with a per-function salt,
which is deterministic across processes (unlike Python's built-in ``hash``
with randomised seeds) so tests and benchmarks are reproducible.
"""

from __future__ import annotations

import hashlib
from typing import List


class HashFamily:
    """A family of ``count`` independent hash functions mapping keys to ints."""

    def __init__(self, count: int, seed: int = 0):
        if count <= 0:
            raise ValueError("a hash family needs at least one function")
        if seed < 0:
            raise ValueError("seed must be non-negative")
        self.count = int(count)
        self.seed = int(seed)
        # The per-function salts never change; building them once keeps the
        # hot sketch paths (one blake2b per row per update) allocation-free.
        self._salts = [
            f"{self.seed}:{index}".encode("utf-8")[:16]
            for index in range(self.count)
        ]

    def hash(self, key: str, index: int) -> int:
        """Value of the ``index``-th hash function on ``key``."""
        if not 0 <= index < self.count:
            raise IndexError(f"hash function index {index} out of range")
        digest = hashlib.blake2b(
            key.encode("utf-8"), salt=self._salts[index], digest_size=8
        ).digest()
        return int.from_bytes(digest, "big")

    def hashes(self, key: str) -> List[int]:
        """All hash values for ``key``, one per function in the family."""
        return [self.hash(key, index) for index in range(self.count)]
