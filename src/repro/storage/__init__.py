"""In-memory tag indexes behind the archive explorer.

The engine itself is purely streaming, but show case 1 answers follow-up
queries ("show me the documents behind this emergent topic", "re-rank this
past time range") which need recent documents retrievable by tag and by
time.  :class:`~repro.core.explorer.ArchiveExplorer` (``repro.cli
explore``) builds on the two indexes here: an inverted tag index and a
time-partitioned index for range queries.
"""

from repro.storage.inverted_index import InvertedTagIndex
from repro.storage.time_index import TimePartitionedIndex

__all__ = [
    "InvertedTagIndex",
    "TimePartitionedIndex",
]
