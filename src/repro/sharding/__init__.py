"""Sharded scatter-gather execution of the detection pipeline.

The single :class:`~repro.core.engine.EnBlogue` engine tracks every
windowed tag pair in one process; this subsystem partitions the pair space
across shards so ingest and evaluation scale horizontally while the
published rankings stay **bit-identical** to the single engine:

* :class:`PairPartitioner` — stable (process-independent) hash of the
  canonical pair to a shard id,
* :class:`ShardWorker` — one shard's pair-restricted tracker, shift
  detector and local top-k,
* :class:`ShardBackend` — the shard protocol, stated once, over three
  transports: :class:`SerialBackend` (the caller's thread: deterministic
  default and reference), :class:`ThreadBackend` (a thread per shard,
  payloads by reference), :class:`ProcessBackend` (a process per shard,
  parallel on a GIL build),
* :class:`SupervisedBackend` — the self-healing wrapper over any of them
  (operation log, retry policy, exact recovery),
* :class:`ShardedEnBlogue` — the coordinator: decomposes each document
  once, keeps the global tag-frequency window, routes per-shard pair
  chunks, broadcasts seeds and counts at each boundary and k-way-merges
  the shards' top-k lists.
"""

from repro.sharding.backends import (
    DEFAULT_START_METHOD,
    ProcessBackend,
    SerialBackend,
    ShardBackend,
    ShardExecutionError,
    ThreadBackend,
    available_backends,
    make_backend,
)
from repro.sharding.engine import ShardedEnBlogue
from repro.sharding.partitioner import PairPartitioner
from repro.sharding.reshard import reshard_worker_states
from repro.sharding.supervision import RetryPolicy, SupervisedBackend
from repro.sharding.worker import ShardWorker

__all__ = [
    "PairPartitioner",
    "ShardWorker",
    "ShardBackend",
    "SerialBackend",
    "ThreadBackend",
    "ProcessBackend",
    "ShardExecutionError",
    "DEFAULT_START_METHOD",
    "available_backends",
    "make_backend",
    "reshard_worker_states",
    "RetryPolicy",
    "SupervisedBackend",
    "ShardedEnBlogue",
]
