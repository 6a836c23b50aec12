"""Compact synopses for approximate pair tracking.

Section 4.1 of the paper describes "plug-in options for sketching operators
that map stream items into synopses".  In this reproduction that plug-in is
the sketch tier of the two-tier tracker (:class:`SketchTier`, behind
``--tracking tiered``): a Count-Min sketch counts pair occurrences and a
Bloom filter records which pairs were seen, so only pairs with enough
sketched support reach exact tracking.  The shared hashing utilities
complete the package.
"""

from repro.sketches.hashing import HashFamily
from repro.sketches.countmin import CountMinSketch
from repro.sketches.bloom import BloomFilter
from repro.sketches.tier import SketchTier

__all__ = [
    "HashFamily",
    "CountMinSketch",
    "BloomFilter",
    "SketchTier",
]
