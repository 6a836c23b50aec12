"""Stable partitioning of the tag-pair space across shards.

The whole sharded architecture rests on one invariant: a pair's shard is a
pure function of its canonical form.  Every statistic the detection
pipeline keeps *per pair* — windowed co-occurrence counts, correlation
histories, decayed shift scores — then lives wholly inside one shard, and
the union of the shards' states equals the single-engine state exactly.

Python's builtin ``hash`` is salted per process (``PYTHONHASHSEED``), so it
would break the invariant across worker processes and across runs; the
partitioner hashes the canonical pair with CRC-32 instead, which is stable
everywhere and cheap.

:meth:`PairPartitioner.route` is the one routing loop; ``split_event``
is a view of its result.  Because the result depends on
the pairs alone, the coordinator computes it once per distinct tag set
(inside its decomposition memo) rather than once per document.
"""

from __future__ import annotations

import zlib
from typing import Iterable, List, Tuple

from repro.core.types import TagPair


class PairPartitioner:
    """Map every canonical :class:`TagPair` to exactly one shard id."""

    def __init__(self, num_shards: int):
        if num_shards < 1:
            raise ValueError("num_shards must be at least 1")
        self.num_shards = int(num_shards)

    def shard_of(self, pair: TagPair) -> int:
        """The shard owning ``pair``, in ``range(num_shards)``.

        ``TagPair`` canonicalises its tags lexicographically, so the two
        spellings of a pair always land on the same shard.
        """
        if self.num_shards == 1:
            return 0
        key = f"{pair.first}\x1f{pair.second}".encode("utf-8")
        return zlib.crc32(key) % self.num_shards

    def route(
        self, pairs: Iterable[TagPair]
    ) -> Tuple[Tuple[TagPair, ...], ...]:
        """``pairs`` as one tuple per shard, each in input order.

        Dense: position ``shard_id`` holds that shard's pairs, the empty
        tuple where it owns none.  The one routing loop — a pure function
        of the pair tuple, which is why the coordinator keeps its result
        in the decomposition memo instead of re-deriving it per document.
        """
        routed: List[List[TagPair]] = [[] for _ in range(self.num_shards)]
        shard_of = self.shard_of
        for pair in pairs:
            routed[shard_of(pair)].append(pair)
        return tuple(map(tuple, routed))

    def split_event(
        self, timestamp: float, pairs: Iterable[TagPair]
    ) -> List[Tuple[int, Tuple[float, Tuple[TagPair, ...]]]]:
        """One document's pair set as per-shard ``(timestamp, pairs)`` events.

        Only shards that own at least one of the pairs get an event.
        """
        return [
            (shard_id, (timestamp, shard_pairs))
            for shard_id, shard_pairs in enumerate(self.route(pairs))
            if shard_pairs
        ]
