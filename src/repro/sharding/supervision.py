"""Self-healing shard execution: supervised recovery with retry/backoff.

The execution backends treat any shard failure as fatal: a dead worker
tears the whole pool down and every later call raises
:class:`~repro.sharding.backends.ShardExecutionError`. That is the right
*primitive* — a half-dead pool must never publish partial rankings — but
the wrong *policy* for serving. :class:`SupervisedBackend` composes over
any inner backend (serial / threads / process) and turns worker death
back into liveness:

* every state-changing protocol message the coordinator issues
  (``ingest`` chunks, ``evaluate`` boundaries) is recorded, as the
  ``(operation, payload)`` it is, in an **operation log** since the last
  state-capture point — and the log is bounded: a full checkpoint
  restarts it, and between those the supervisor captures the workers'
  state itself once the log reaches :data:`LOG_COMPACT_OPS` messages,
* on failure the dead pool is discarded wholesale and a fresh one is
  rebuilt from the one recovery source, the in-memory base plus the log:
  the workers' states at the last capture point (fresh workers before
  the first), then the logged messages replayed in order through the
  same two entry points the live traffic uses,
* retries are governed by a :class:`RetryPolicy` — bounded attempts,
  exponential backoff, an optional per-operation deadline — with
  injected clock/sleep so chaos tests run instantly,
* when the budget is spent the failure escalates permanently: every
  subsequent call raises immediately and serving flips to 503.

Because the engine's dispatch protocol is deterministic (FIFO chunks,
synchronous boundaries), replaying base + suffix reconstructs worker
state *exactly*: post-recovery rankings are pinned bit-identical to an
uninterrupted run, the same discipline as replaying a verified update
log in incremental view maintenance.  The log is never truncated, so that
source always exists: a checkpoint directory is for restarting the
*process* (``--resume``), and the supervisor never reads it.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable, List, Mapping, Optional, Sequence, Set

from repro.sharding.backends import (
    ShardBackend,
    ShardExecutionError,
)
from repro.sharding.worker import ShardWorker

__all__ = ["RetryPolicy", "SupervisedBackend"]

#: The messages that change worker state, hence logged for replay.
#: (``restore_state`` changes it too, but together with
#: ``collect_state`` it is a state-capture point: the log restarts there.)
_LOGGED = frozenset({"ingest", "evaluate"})

#: Length at which the supervisor re-bases the operation log itself, by a
#: ``collect_states`` of its own.  A worker's state is its snapshot, so
#: the capture can happen at any message; without it nothing but a
#: cadence re-base would restart the log, every ``full_every`` ticks or
#: never, and the log would keep every dispatched chunk in between.
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

    ``inner`` is the backend instance to supervise. The wrapper is
    transparent to the coordinator — same protocol, same bit-identical
    outputs — until a failure, when it retries under ``policy`` instead
    of propagating.
    """

    def __init__(
        self,
        inner: ShardBackend,
        policy: Optional[RetryPolicy] = None,
    ) -> None:
        if isinstance(inner, SupervisedBackend):
            raise ValueError("refusing to supervise a supervised backend")
        self._inner: ShardBackend = inner
        self.policy = policy or RetryPolicy()

        self.num_shards = 0
        self._worker_config = None
        self._worker_vectorize = True
        self._reset_log(base=None)

        self._recovering: Set[int] = set()
        self._permanent: Optional[str] = None
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
    def name(self) -> str:
        """``supervised[<inner>]``: the label ``runtime_info`` reports."""
        return f"supervised[{self._inner.name}]"

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
        self._inner.start(workers)
        self._closed = False
        self._permanent = None
        self._recovering.clear()
        self._reset_log(base=None)

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
        # the log restarts here.
        self._reset_log(base=states)
        return states

    def restore_states(self, states: Sequence[Mapping]) -> None:
        states = [dict(state) for state in states]
        super().restore_states(states)
        self._reset_log(base=states)

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
            "recovering_shards": sorted(self._recovering),
            "permanent_failure": self._permanent,
            "recoveries": self._recoveries,
            "retries": self._retries,
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
                # Anything else (a base the fresh workers refuse) means
                # the one recovery source is unusable: escalate now.
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
            self._rebuild_pool()
            self._last_recovery = {
                "replayed_ops": len(self._log),
                "shards": self.num_shards,
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
                **self._last_recovery,
            )

    def _emit_log(self, event: str, level: str = "info", **fields) -> None:
        observability = self._observability
        if observability is not None:
            observability.log.emit(
                event, level=level,
                **{key: value for key, value in fields.items()
                   if value is not None},
            )

    def _rebuild_pool(self) -> None:
        """Restart the inner backend on fresh workers (what was bound to
        it — fault plan, observability — stays bound), restore the base
        and replay the log."""
        inner = self._inner
        inner.close()
        try:
            inner.start([
                ShardWorker(shard_id, self._worker_config,
                            vectorize=self._worker_vectorize)
                for shard_id in range(self.num_shards)
            ])
            if self._base_states is not None:
                inner.restore_states(self._base_states)
            for operation, payload in self._log:
                _deliver(inner, operation, payload)
        except BaseException:
            # A rebuild that dies mid-replay must not leak its half-built
            # pool (worker processes/threads).
            inner.close()
            raise

    # -- log bookkeeping ---------------------------------------------------

    def _reset_log(self, base: Optional[List[Mapping]]) -> None:
        self._base_states = base
        self._log: List[tuple] = []

    def _append_log(self, entry: tuple) -> None:
        self._log.append(entry)
        if len(self._log) >= LOG_COMPACT_OPS:
            # Guarded like any other call: should it fail, the entry just
            # appended is replayed with the rest.
            self.collect_states()
