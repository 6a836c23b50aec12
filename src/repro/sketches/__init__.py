"""Compact synopses.

The entity tagger puts a :class:`BloomFilter` in front of its phrase
lookup; :class:`HashFamily` gives the filter its deterministic hashes.
"""

from repro.sketches.hashing import HashFamily
from repro.sketches.bloom import BloomFilter

__all__ = [
    "HashFamily",
    "BloomFilter",
]
