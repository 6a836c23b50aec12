"""Rebuild a detection engine from a checkpoint directory.

The checkpoint manifest records everything needed to reconstruct the
engine that wrote it — kind (single vs. sharded), full configuration and
shard count — so a resume needs nothing but the directory.  A sharded
checkpoint may be restored into a *different* shard count (the pair state
is re-routed through the stable CRC-32 partitioner) and onto any
backend; both are runtime choices, not stream state.  A scratch engine
built the same way replays a journal onto its base
(:func:`replay_journal`).
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional, Sequence, Tuple, Union

from repro.core.config import EnBlogueConfig
from repro.core.engine import DetectionEngineBase, EnBlogue
from repro.persistence.journal import decode_segment
from repro.persistence.snapshot import (
    SnapshotCorruptionError,
    SnapshotMismatchError,
)
from repro.persistence.store import read_checkpoint
from repro.sharding.backends import ShardBackend
from repro.sharding.engine import ShardedEnBlogue


def load_engine(
    directory,
    num_shards: Optional[int] = None,
    backend: Optional[Union[str, ShardBackend]] = None,
    chunk_size: Optional[int] = None,
    observability=None,
) -> Tuple[DetectionEngineBase, Dict[str, Any]]:
    """Restore the engine checkpointed in ``directory``.

    Returns ``(engine, manifest)`` — the manifest exposes the ``extras``
    recorded at save time (the CLI keeps its dataset parameters there).
    For a sharded checkpoint, ``num_shards`` selects the restored shard
    count (default: the checkpointed one; differing counts re-partition
    the pair state), ``backend`` the execution backend (default: serial)
    and ``chunk_size`` the dispatch chunk (default: the checkpointed one).
    A single-engine checkpoint ignores ``backend``/``chunk_size`` and
    rejects ``num_shards`` other than 1 — its tracker holds tag-level
    state that cannot be partitioned by pair.  ``observability`` is
    runtime wiring handed to the restored engine, never checkpoint state.
    """
    manifest, state = read_checkpoint(directory)
    kind = state.get("kind")
    if kind == EnBlogue.SNAPSHOT_KIND and num_shards not in (None, 1):
        raise SnapshotMismatchError(
            "a single-engine checkpoint cannot be restored into "
            f"{num_shards} shards: its tracker holds tag-level state "
            "(usage distributions, count history) that is not "
            "partitioned by pair; resume it with EnBlogue instead"
        )
    engine = _restored_engine(state, num_shards, backend, chunk_size,
                              observability)
    return engine, manifest


def replay_journal(state: dict, segments: Sequence[Mapping]) -> dict:
    """The state a base ``state`` reaches by replaying journal ``segments``.

    A scratch engine of the base's kind and shard count (serial backend,
    no observability, no listeners) restores the base, ingests each
    segment's documents through ``process_batch`` and forced evaluations
    through ``evaluate_now``, in order, and its ``snapshot()`` is the
    answer.  Segments without input leave ``state`` as it is.
    """
    commands = [command for segment in segments
                for command in decode_segment(segment)]
    if not commands:
        return state
    engine = _restored_engine(state)
    try:
        for command in commands:
            if type(command) is float:
                engine.evaluate_now(command)
            else:
                engine.process_batch(command)
        return engine.snapshot()
    finally:
        if isinstance(engine, ShardedEnBlogue):
            engine.close()


def _restored_engine(
    state: Mapping, num_shards: Optional[int] = None,
    backend: Optional[Union[str, ShardBackend]] = None,
    chunk_size: Optional[int] = None, observability=None,
) -> DetectionEngineBase:
    """An engine of the kind ``state`` describes, restored from it."""
    try:
        config = EnBlogueConfig(**state["config"])
    except (KeyError, TypeError, ValueError) as exc:
        raise SnapshotCorruptionError(
            f"checkpoint carries an unusable configuration: {exc}"
        ) from exc
    kind = state.get("kind")

    if kind == EnBlogue.SNAPSHOT_KIND:
        engine = EnBlogue(config, observability=observability)
        engine.restore(state)
        return engine

    if kind == ShardedEnBlogue.SNAPSHOT_KIND:
        target_shards = num_shards or len(state["shards"])
        engine = ShardedEnBlogue(
            config,
            num_shards=target_shards,
            backend="serial" if backend is None else backend,
            chunk_size=chunk_size or int(state.get("chunk_size") or 256),
            observability=observability,
        )
        try:
            engine.restore(state)
        except BaseException:
            engine.close()
            raise
        return engine

    raise SnapshotMismatchError(
        f"checkpoint was written by an unknown engine kind "
        f"{kind!r}; this build can restore "
        f"{[EnBlogue.SNAPSHOT_KIND, ShardedEnBlogue.SNAPSHOT_KIND]}"
    )
