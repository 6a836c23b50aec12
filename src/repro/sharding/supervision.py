"""Self-healing shard execution: supervised recovery with retry/backoff.

The execution backends treat any shard failure as fatal: a dead worker
tears the whole pool down and every later call raises
:class:`~repro.sharding.backends.ShardExecutionError`. That is the right
*primitive* — a half-dead pool must never publish partial rankings — but
the wrong *policy* for serving. :class:`SupervisedBackend` composes over
any inner backend (serial / threads / process) and turns worker death
back into liveness:

* every state-changing protocol message the coordinator issues
  (``ingest`` chunks, ``evaluate`` boundaries, delta arm/disarm, journal
  drains) is recorded, as the ``(operation, payload)`` it is, in an
  **operation log** since the last state-capture point — and the log is
  bounded: a full checkpoint restarts it, and where no cadence takes one
  the supervisor captures the workers' state itself every
  :data:`LOG_COMPACT_OPS` messages,
* on failure the dead pool is discarded wholesale and a fresh one is
  rebuilt — base state first (the last checkpoint on disk when its delta
  journal lines up with a recorded drain marker, otherwise the last
  in-memory snapshot), then the logged suffix replayed in order through
  the same two entry points the live traffic uses,
* retries are governed by a :class:`RetryPolicy` — bounded attempts,
  exponential backoff, an optional per-operation deadline — with
  injected clock/sleep so chaos tests run instantly,
* when the budget is spent the failure escalates permanently: every
  subsequent call raises immediately and serving flips to 503.

Because the engine's dispatch protocol is deterministic (FIFO chunks,
synchronous boundaries), replaying base + suffix reconstructs worker
state *exactly*: post-recovery rankings are pinned bit-identical to an
uninterrupted run, the same discipline as replaying a verified update
log in incremental view maintenance.

When the log was truncated (``max_log_ops``) and no checkpoint chain
matches, exactness is impossible — the supervisor degrades to an **N−1
re-shard**: surviving shards' last-captured states are re-partitioned
(:func:`~repro.sharding.reshard.reshard_worker_states`) onto a smaller
pool and incoming chunks are re-routed, trading bit-identity for
availability until the next ``restore_states`` rebuilds at full width.
"""

from __future__ import annotations

import heapq
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable, List, Mapping, Optional, Sequence, Set

from repro.persistence.snapshot import SnapshotMismatchError
from repro.sharding.backends import (
    ShardBackend,
    ShardExecutionError,
    make_backend,
)
from repro.sharding.partitioner import PairPartitioner
from repro.sharding.reshard import reshard_worker_states
from repro.sharding.worker import ShardWorker

__all__ = ["RetryPolicy", "SupervisedBackend"]

#: The messages that change worker state, hence logged for replay.
#: (``restore_state`` changes it too, but together with
#: ``collect_state`` it is a state-capture point: the log restarts there.)
_LOGGED = frozenset(
    {"ingest", "evaluate", "begin_delta", "end_delta", "collect_delta"}
)

#: Length at which the supervisor re-bases the operation log itself, by a
#: ``collect_states`` of its own, unless delta tracking is armed.  Armed
#: means a checkpoint cadence exists, whose every ``full_every``-th tick
#: re-bases already — and un-drained delta buffers are not part of a
#: snapshot, so an armed chain must not be re-based behind the engine's
#: back.  Unarmed, nothing else restarts the log: it would keep every
#: dispatched chunk for the life of the process.
LOG_COMPACT_OPS = 1024


def _deliver(backend: ShardBackend, operation: str, payload):
    """Hand one protocol message to a pool through its entry point."""
    if operation == "ingest":
        return backend.ingest(payload)
    return backend._call(operation, payload)


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with exponential backoff and an optional deadline.

    ``max_retries`` counts *recovery attempts* after the first failure;
    ``backoff(n)`` is the pause before attempt ``n`` (1-based), growing
    by ``backoff_factor`` and capped at ``backoff_max``. ``deadline``
    (seconds, measured on ``clock``) treats an operation that *succeeds
    too late* as a failure — a wedged worker is as dead as a crashed one.
    ``clock`` and ``sleep`` are injectable so tests advance fake time
    instead of waiting.
    """

    max_retries: int = 3
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 5.0
    deadline: Optional[float] = None
    clock: Callable[[], float] = time.monotonic
    sleep: Callable[[float], None] = time.sleep

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff_base < 0 or self.backoff_max < 0:
            raise ValueError("backoff bounds must be >= 0")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1.0")
        if self.deadline is not None and self.deadline <= 0:
            raise ValueError("deadline must be positive when set")

    def backoff(self, attempt: int) -> float:
        """Pause before retry ``attempt`` (1-based), capped exponential."""
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        return min(
            self.backoff_max,
            self.backoff_base * (self.backoff_factor ** (attempt - 1)),
        )


class SupervisedBackend(ShardBackend):
    """A self-healing wrapper over any shard execution backend.

    ``inner`` is a backend name or instance; ``checkpoint_dir`` (optional)
    lets recovery re-base from the on-disk checkpoint + delta journal when
    the journal provably covers a recorded drain point; ``max_log_ops``
    bounds the operation log (exceeding it forfeits exact replay in favor
    of the degraded N−1 path). The wrapper is transparent to the
    coordinator — same protocol, same bit-identical outputs — until a
    failure, when it retries under ``policy`` instead of propagating.
    """

    name = "supervised"

    def __init__(
        self,
        inner="serial",
        policy: Optional[RetryPolicy] = None,
        checkpoint_dir=None,
        max_log_ops: Optional[int] = None,
        **inner_kwargs,
    ) -> None:
        if isinstance(inner, str):
            inner = make_backend(inner, **inner_kwargs)
        elif inner_kwargs:
            raise ValueError(
                "inner backend kwargs are only accepted with a backend name"
            )
        if isinstance(inner, SupervisedBackend):
            raise ValueError("refusing to supervise a supervised backend")
        self._inner: ShardBackend = inner
        self.policy = policy or RetryPolicy()
        self._checkpoint_dir = checkpoint_dir
        self._max_log_ops = max_log_ops

        self.num_shards = 0
        self._live_shards = 0
        self._worker_config = None
        self._worker_vectorize = True
        self._armed = False
        self._reset_log(base=None, armed=False)

        self._recovering: Set[int] = set()
        self._permanent: Optional[str] = None
        self._degraded = False
        self._routing: Optional[PairPartitioner] = None
        self._recoveries = 0
        self._retries = 0
        self._last_recovery: Optional[dict] = None
        self._last_known_health: List[dict] = []

        self._metric_recoveries = None
        self._metric_recovery_seconds = None
        self._metric_retries = None
        self._metric_backoff = None
        self._metric_permanent = None

    # -- identity ----------------------------------------------------------

    @property
    def inner_name(self) -> str:
        """The wrapped backend's name (``serial``/``threads``/``process``)."""
        return self._inner.name

    # -- lifecycle ---------------------------------------------------------

    def start(self, workers: Sequence[ShardWorker]) -> None:
        workers = list(workers)
        if not workers:
            raise ValueError("supervised backend needs at least one worker")
        # Capture the rebuild recipe: fresh workers for a replacement pool
        # are constructed exactly like these (the evaluation path a worker
        # actually took pins the vectorize flag).
        self._worker_config = workers[0].config
        self._worker_vectorize = (
            workers[0].evaluation_path == "vectorized"
        )
        self.num_shards = len(workers)
        self._live_shards = len(workers)
        self._inner.start(workers)
        self._closed = False
        self._degraded = False
        self._routing = None
        self._armed = False
        self._permanent = None
        self._recovering.clear()
        self._reset_log(base=None, armed=False)

    def bind_observability(self, observability) -> None:
        super().bind_observability(observability)
        self._inner.bind_observability(observability)
        if observability is not None and observability.enabled:
            registry = observability.registry
            self._metric_recoveries = registry.counter(
                "repro_sharding_recoveries_total")
            self._metric_recovery_seconds = registry.histogram(
                "repro_sharding_recovery_seconds")
            self._metric_retries = registry.counter(
                "repro_sharding_retry_attempts_total")
            self._metric_backoff = registry.counter(
                "repro_sharding_backoff_seconds_total")
            self._metric_permanent = registry.counter(
                "repro_sharding_permanent_failures_total")

    def bind_fault_plan(self, plan) -> None:
        self._inner.bind_fault_plan(plan)

    def close(self) -> None:
        self._closed = True
        self._inner.close()

    # -- the guarded protocol ---------------------------------------------
    #
    # Guarded at the protocol's two entry points, ``ingest`` and ``_call``
    # (every other method is ShardBackend's one-liner over ``_call``); a
    # method is overridden only where supervision adds to that operation.

    def ingest(self, chunks: Sequence[List]) -> None:
        if self._degraded:
            chunks = self._reroute(chunks)
        self._guard("ingest", chunks)

    def _call(self, operation: str, payload=None) -> List:
        return self._guard(operation, payload)

    def evaluate(self, timestamp, seeds, tag_counts, total_documents):
        # Copied at log time: under the threads backend the coordinator
        # hands over *live* references (its seed list, the window's
        # counts) that mutate as the stream advances — replay needs the
        # values as they were at this boundary.
        return super().evaluate(timestamp, seeds, dict(tag_counts),
                                int(total_documents))

    def collect_states(self) -> List[dict]:
        states = super().collect_states()
        # A fresh full snapshot of every worker is a state-capture point:
        # the log restarts here.  (If delta tracking is armed, the workers'
        # un-drained buffers are not part of the snapshot — the arm flag is
        # remembered and re-arming on rebuild resets them, which matches
        # the engine's own re-base sequence: collect_states is immediately
        # followed by a fresh begin_delta_tracking.)
        self._reset_log(base=states, armed=self._armed)
        return states

    def restore_states(self, states: Sequence[Mapping]) -> None:
        states = [dict(state) for state in states]
        if self._degraded:
            # A full restore re-establishes the contracted width; rebuild
            # an undegraded pool for it first.
            self._rebuild_pool(self.num_shards, base=None, suffix=(),
                               armed=False)
            self._degraded = False
            self._routing = None
            self._live_shards = self.num_shards
        super().restore_states(states)
        self._reset_log(base=states, armed=self._armed)

    def begin_delta_tracking(self) -> None:
        # Set before the call is logged, so that logging it cannot compact.
        self._armed = True
        super().begin_delta_tracking()

    def end_delta_tracking(self) -> None:
        super().end_delta_tracking()
        self._armed = False

    def collect_deltas(self, generation: int) -> List[dict]:
        if self._degraded:
            # The journal chain assumes a stable shard width; a degraded
            # pool cannot extend it.  Raising the mismatch makes the
            # cadence re-base (full snapshot) instead of appending lies.
            raise SnapshotMismatchError(
                "the shard pool is running degraded (N-1 re-shard); the "
                "delta journal cannot be extended until a full re-base"
            )
        # Logged with its generation — the journal segment this drain
        # lands in — which is how recovery aligns the on-disk chain with
        # the log.
        return super().collect_deltas(generation)

    # -- health / introspection -------------------------------------------

    def health(self) -> List[dict]:
        if self._permanent is not None or self._recovering:
            return self._overlay_health()
        try:
            records = self._inner.health()
        except Exception:  # pragma: no cover - health must never raise
            return self._overlay_health()
        for record in records:
            record["recovering"] = False
        if records:
            self._last_known_health = [dict(r) for r in records]
        return records

    def _overlay_health(self) -> List[dict]:
        base = self._last_known_health or [
            {"shard": shard_id} for shard_id in range(self.num_shards)
        ]
        health = []
        for record in base:
            entry = dict(record)
            shard_id = entry.get("shard")
            if self._permanent is not None:
                entry["alive"] = False
                entry["recovering"] = False
            else:
                recovering = shard_id in self._recovering
                entry["recovering"] = recovering
                entry["alive"] = not recovering
            health.append(entry)
        return health

    def supervision_info(self) -> dict:
        """Supervisor state for ``/status`` and tests (cheap, lock-free)."""
        return {
            "supervised": True,
            "inner": self.inner_name,
            "recovering_shards": sorted(self._recovering),
            "permanent_failure": self._permanent,
            "recoveries": self._recoveries,
            "retries": self._retries,
            "degraded": self._degraded,
            "live_shards": self._live_shards,
            "log_ops": len(self._log),
            "last_recovery": self._last_recovery,
        }

    # -- the supervision loop ---------------------------------------------

    def _guard(self, operation: str, payload):
        """Deliver one protocol message to the pool, recovering on failure."""
        if self._permanent is not None:
            raise ShardExecutionError(
                f"shard pool permanently failed: {self._permanent}")
        self._ensure_open()
        policy = self.policy
        attempt = 0
        while True:
            started = policy.clock()
            try:
                result = _deliver(self._inner, operation, payload)
                elapsed = policy.clock() - started
                if policy.deadline is not None and elapsed > policy.deadline:
                    # Success past the deadline is a failure: a pool this
                    # slow is wedged, and the result may interleave with a
                    # retry — discard it with the pool.
                    self._inner.close()
                    raise ShardExecutionError(
                        f"{operation} took {elapsed:.3f}s, past the "
                        f"{policy.deadline:.3f}s deadline; treating the "
                        f"pool as wedged"
                    )
            except ShardExecutionError as exc:
                failure = exc
            else:
                self._recovering.clear()
                if operation in _LOGGED:
                    self._append_log((operation, payload))
                return result
            # -- failure path --
            failed_shard = failure.shard_id
            if failed_shard is not None:
                self._recovering.add(failed_shard)
            attempt += 1
            self._retries += 1
            if self._metric_retries is not None:
                self._metric_retries.labels(operation=operation).inc()
            self._emit_log(
                "shard_retry",
                level="warning",
                operation=operation,
                attempt=attempt,
                shard=failed_shard,
                error=str(failure),
            )
            if attempt > policy.max_retries:
                self._escalate(operation, attempt - 1, failure,
                               shard=failed_shard)
            delay = policy.backoff(attempt)
            if delay > 0:
                if self._metric_backoff is not None:
                    self._metric_backoff.labels(
                        operation=operation).inc(delay)
                policy.sleep(delay)
            try:
                self._recover(failed_shard)
            except ShardExecutionError:
                # Recovery itself hit a shard failure (e.g. the replayed
                # log re-poisons a worker, or the fault plan strikes
                # again).  Loop: the next iteration's call fails fast on
                # the closed inner, burning attempts until the budget
                # escalates — deterministic, never infinite.
                continue
            except Exception as exc:
                # Anything else (corrupt checkpoint, unpartitionable
                # state) means no recovery source exists: escalate now.
                self._escalate(operation, attempt, exc, shard=failed_shard)

    def _escalate(self, operation: str, attempts: int,
                  failure: Optional[BaseException],
                  shard: Optional[int] = None) -> None:
        self._permanent = (
            f"{operation} failed after {attempts} recovery attempt(s): "
            f"{failure}"
        )
        self._recovering.clear()
        if self._metric_permanent is not None:
            self._metric_permanent.inc()
        self._emit_log(
            "permanent_failure",
            level="error",
            operation=operation,
            attempts=attempts,
            shard=shard,
            error=str(failure),
        )
        try:
            self._inner.close()
        except Exception:  # pragma: no cover
            pass
        raise ShardExecutionError(self._permanent) from failure

    def _recover(self, failed_shard: Optional[int]) -> None:
        observability = self._observability
        started = self.policy.clock()
        with (observability.tracer.span("recovery")
              if observability is not None else nullcontext()):
            source = self._recovery_source()
            if source is None:
                self._recover_degraded(failed_shard)
            else:
                base, suffix, armed, origin = source
                width = len(base) if base is not None else self._live_shards
                self._rebuild_pool(width, base, suffix, armed)
                self._last_recovery = {
                    "source": origin,
                    "replayed_ops": len(suffix),
                    "shards": width,
                }
            self._recovering.clear()
            self._recoveries += 1
            if self._metric_recoveries is not None:
                self._metric_recoveries.inc()
            if self._metric_recovery_seconds is not None:
                self._metric_recovery_seconds.observe(
                    self.policy.clock() - started)
            # Emitted while the recovery span is still open, so the
            # record carries its trace id — the /logs ↔ /trace join the
            # chaos smoke asserts.
            self._emit_log(
                "recovery",
                level="warning",
                shard=failed_shard,
                recoveries=self._recoveries,
                **(self._last_recovery or {"source": "degraded"}),
            )

    def _emit_log(self, event: str, level: str = "info", **fields) -> None:
        observability = self._observability
        if observability is not None:
            observability.log.emit(
                event, level=level,
                **{key: value for key, value in fields.items()
                   if value is not None},
            )

    def _recovery_source(self):
        """Pick ``(base, suffix, armed, origin)`` for an exact rebuild.

        Preference order: the on-disk checkpoint when its folded journal
        generation matches a recorded drain marker (the log after the
        marker is exactly what disk is missing), else the in-memory base
        plus the full log.  None → no exact source (truncated log), the
        caller degrades.
        """
        log = list(self._log)
        if self._checkpoint_dir is not None:
            try:
                from repro.persistence.store import read_checkpoint

                manifest, state = read_checkpoint(self._checkpoint_dir)
                restored = manifest.get("restored_generation")
                shards = state.get("shards")
                cut = None
                if restored is not None and shards:
                    for index in range(len(log) - 1, -1, -1):
                        if log[index] == ("collect_delta", restored):
                            cut = index
                            break
                if cut is not None:
                    if len(shards) != self._live_shards:
                        shards = reshard_worker_states(
                            shards, self._live_shards)
                    # A drain only happens while armed; disk state ends at
                    # that drain, so the rebuilt pool re-arms before the
                    # suffix replays.
                    return shards, log[cut + 1:], True, "checkpoint"
            except Exception:
                # Unreadable/corrupt checkpoint never blocks recovery —
                # the in-memory source below still works.
                pass
        if self._log_truncated:
            return None
        return self._base_states, log, self._armed_at_base, "memory"

    def _rebuild_pool(self, width: int, base, suffix: Sequence[tuple],
                      armed: bool) -> None:
        """Restart the inner backend on ``width`` fresh workers (what was
        bound to it — fault plan, observability — stays bound), restore
        ``base`` and replay ``suffix``."""
        inner = self._inner
        inner.close()
        try:
            inner.start([
                ShardWorker(shard_id, self._worker_config,
                            vectorize=self._worker_vectorize)
                for shard_id in range(width)
            ])
            if base is not None:
                inner.restore_states(base)
            if armed:
                inner.begin_delta_tracking()
            # A replayed drain is there for its buffer-reset side effect;
            # the drained events were already journaled pre-crash.
            for operation, payload in suffix:
                _deliver(inner, operation, payload)
        except BaseException:
            # A rebuild that dies mid-replay must not leak its half-built
            # pool (worker processes/threads).
            inner.close()
            raise

    def _recover_degraded(self, failed_shard: Optional[int]) -> None:
        base = self._base_states
        if base is None or failed_shard is None:
            raise ShardExecutionError(
                "no exact recovery source (operation log truncated, no "
                "matching checkpoint chain) and no survivor states to "
                "re-shard; cannot recover"
            )
        survivors = [
            state for shard_id, state in enumerate(base)
            if shard_id != failed_shard
        ]
        if not survivors:
            raise ShardExecutionError(
                "no surviving shard state to re-shard; cannot recover"
            )
        width = len(survivors)
        states = reshard_worker_states(survivors, width)
        self._rebuild_pool(width, states, (), False)
        self._degraded = True
        self._live_shards = width
        self._routing = PairPartitioner(width)
        self._armed = False
        self._reset_log(base=states, armed=False)
        self._last_recovery = {
            "source": "degraded",
            "replayed_ops": 0,
            "shards": width,
        }

    def _reroute(self, chunks: Sequence[List]) -> List[List]:
        """Re-split coordinator chunks (cut for ``num_shards``) across the
        contracted pool, preserving global timestamp order."""
        split_event = self._routing.split_event
        rerouted: List[List] = [[] for _ in range(self._live_shards)]
        for timestamp, pairs in heapq.merge(
                *chunks, key=lambda event: event[0]):
            for shard_id, event in split_event(timestamp, pairs):
                rerouted[shard_id].append(event)
        return rerouted

    # -- log bookkeeping ---------------------------------------------------

    def _reset_log(self, base: Optional[List[Mapping]], armed: bool) -> None:
        self._base_states = base
        self._armed_at_base = armed
        self._log: List[tuple] = []
        self._log_truncated = False

    def _append_log(self, entry: tuple) -> None:
        if (self._max_log_ops is not None
                and len(self._log) >= self._max_log_ops):
            # Beyond the cap the log stops being a complete suffix: exact
            # in-memory replay is forfeit (drain markers that survive can
            # still anchor a checkpoint-based rebuild).
            self._log = []
            self._log_truncated = True
        self._log.append(entry)
        if len(self._log) >= LOG_COMPACT_OPS and not self._armed:
            # Guarded like any other call: should it fail, the entry just
            # appended is replayed with the rest.
            self.collect_states()
