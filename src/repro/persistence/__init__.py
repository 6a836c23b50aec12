"""Checkpoint/restore persistence for the detection engines.

A long-running emergent-topic service must survive restarts without
replaying the stream from cold, so the state every layer maintains — the
correlation window, the detector scores, the published rankings — is
externalized behind one uniform protocol, and what restore can derive
from it (a document-fed window's pair events, the candidate index) is
left out:

* :class:`~repro.persistence.snapshot.Snapshotable` — ``snapshot()``
  returns a versioned, JSON-serialisable dict; ``restore(state)`` puts an
  identically-configured instance back into exactly that state.  The
  protocol is implemented by :class:`~repro.core.tracker.CorrelationTracker`,
  :class:`~repro.core.shift.ShiftDetector`,
  :class:`~repro.core.ranking.RankingBuilder`,
  :class:`~repro.sharding.worker.ShardWorker` and both detection engines.
* :mod:`~repro.persistence.store` — the on-disk checkpoint format: a
  ``MANIFEST.json`` plus one generation-suffixed state file per component
  (``engine-<gen>.json``, ``shard-NNNN-<gen>.json``), each
  CRC-32-checksummed and written atomically via write-then-rename with the
  manifest rename as the sole commit point (the previous checkpoint stays
  restorable through a crash), and distinct errors for corruption and for
  format version mismatches.  Delta checkpoints
  (:class:`~repro.persistence.snapshot.DeltaSnapshotable`,
  :func:`~repro.persistence.store.append_delta`,
  :mod:`~repro.persistence.delta`) extend a base with CRC-framed journal
  segments (``engine-<gen>.delta``, ``shard-NNNN-<gen>.delta``) sized by
  the documents since the previous tick; the reader folds the journal back
  onto the base before any ``restore`` runs.
* :func:`~repro.persistence.resume.load_engine` — rebuild an engine from a
  checkpoint directory, optionally re-partitioning a sharded checkpoint
  into a different shard count (the pair space is re-routed through the
  same stable CRC-32 hash that partitioned it originally).

Restoring an engine from a checkpoint and continuing the stream produces
rankings **bit-identical** to an uninterrupted run — including when the
shard count changes across the restore — which the test-suite pins on both
backends.
"""

from repro.persistence.cadence import CheckpointCadence
from repro.persistence.snapshot import (
    DeltaSnapshotable,
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
    "DeltaSnapshotable",
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
    "apply_engine_delta",
    "load_engine",
]


def __getattr__(name):
    # ``load_engine`` needs the engine classes and ``apply_engine_delta``
    # the shared count-history rule from repro.core — modules that
    # themselves use this package; importing them lazily keeps the package
    # a leaf layer that core/ and sharding/ can depend on without a cycle.
    if name == "load_engine":
        from repro.persistence.resume import load_engine

        return load_engine
    if name == "apply_engine_delta":
        from repro.persistence.delta import apply_engine_delta

        return apply_engine_delta
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
