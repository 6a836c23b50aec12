"""Checkpoint/restore persistence for the detection engines.

A long-running emergent-topic service must survive restarts without
replaying the stream from cold.  A checkpoint is a *base* — the state
every layer maintains, less what restore derives from it — plus a
*journal* of the engine's input since the base:

* :class:`~repro.persistence.snapshot.Snapshotable` — ``snapshot()``
  returns a versioned, JSON-serialisable dict; ``restore(state)`` puts an
  identically-configured instance back into exactly that state.  The
  protocol is implemented by :class:`~repro.core.tracker.CorrelationTracker`,
  :class:`~repro.core.shift.ShiftDetector`,
  :class:`~repro.core.ranking.RankingBuilder`,
  :class:`~repro.sharding.worker.ShardWorker` and both detection engines;
  what restore derives (a document-fed window's pair events, the usage
  events, the candidate index) is left out.
* :mod:`~repro.persistence.store` — the on-disk format: a
  ``MANIFEST.json`` plus one generation-suffixed base file per component
  (``engine-<gen>.json``, ``shard-NNNN-<gen>.json``), each
  CRC-32-checksummed and written atomically via write-then-rename with the
  manifest rename as the sole commit point (the previous checkpoint stays
  restorable through a crash), and distinct errors for corruption and for
  format version mismatches.
* :mod:`~repro.persistence.journal` — the journal is a command log:
  a cadence tick appends (:func:`~repro.persistence.store.append_delta`)
  one CRC-framed segment, ``engine-<gen>.delta``, holding the documents
  ingested since the previous tick and any forced evaluations.  The
  engine is a deterministic function of its input, so the reader replays
  the segments through an engine restored from the base
  (:func:`~repro.persistence.resume.replay_journal`) instead of storing
  what they changed.
* :func:`~repro.persistence.resume.load_engine` — rebuild an engine from a
  checkpoint directory, optionally re-partitioning a sharded checkpoint
  into a different shard count (the pair space is re-routed through the
  same stable CRC-32 hash that partitioned it originally).
* :mod:`~repro.persistence.upgrade` — an older base is brought to the
  current layout before anything reads it.

Restoring an engine from a checkpoint and continuing the stream produces
rankings **bit-identical** to an uninterrupted run — including when the
shard count changes across the restore — which the test-suite pins on
every backend.
"""

from repro.persistence.cadence import CheckpointCadence
from repro.persistence.snapshot import (
    Snapshotable,
    SnapshotCorruptionError,
    SnapshotError,
    SnapshotMismatchError,
    SnapshotVersionError,
)
from repro.persistence.store import (
    MANIFEST_NAME,
    append_delta,
    read_checkpoint,
    read_manifest,
    write_checkpoint,
)

__all__ = [
    "Snapshotable",
    "SnapshotError",
    "SnapshotVersionError",
    "SnapshotCorruptionError",
    "SnapshotMismatchError",
    "MANIFEST_NAME",
    "CheckpointCadence",
    "write_checkpoint",
    "append_delta",
    "read_checkpoint",
    "read_manifest",
    "load_engine",
]


def __getattr__(name):
    # ``load_engine`` needs the engine classes from repro.core and
    # repro.sharding — modules that themselves use this package; importing
    # it lazily keeps the package a leaf layer that core/ and sharding/ can
    # depend on without a cycle.
    if name == "load_engine":
        from repro.persistence.resume import load_engine

        return load_engine
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
