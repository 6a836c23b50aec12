"""The shard protocol, and the three transports it travels over.

The coordinator talks to its shard workers in five messages — ``ingest``
(fire-and-forget, one chunk of pair events) and four synchronous
operations (``evaluate``, ``stats``, ``collect_state``, ``restore_state``)
— plus ``stop``, and the protocol is written down here exactly once:

* **worker side** — :data:`_OPERATIONS` maps each synchronous operation
  to the :class:`~repro.sharding.worker.ShardWorker` call it stands for;
  :class:`_ShardServer` applies a message under the protocol's three
  rules (``ingest`` sends no reply; a failure is *sticky* and answers
  every later request with its traceback; a reply carries the worker's
  drained telemetry as its third element, so in-shard stage timings and
  log records ship for free on a reply the coordinator was reading
  anyway — ingest telemetry rides the next synchronisation point); one
  request loop, :func:`_shard_loop`, serves a thread or a process;
* **coordinator side** — :class:`ShardBackend` sends through one site
  (fault hook, transport) and receives through one (fault hook,
  transport, status check, telemetry merge).  ``ingest`` is a send per
  non-empty chunk, every other method a scatter to all shards and a
  gather in shard order.  Every transport is FIFO, so a synchronous
  operation observes every chunk sent before it — which is what lets
  ingest go unacknowledged, and a worker that failed during ingest report
  it at the next synchronisation point.  Any shard failure (a sticky
  worker error, a dead worker, a failed send) goes through one rule:
  record it, tear the *whole* pool down promptly — a half-dead pool must
  never publish partial rankings — and raise :class:`ShardExecutionError`
  naming the shard.

The backends differ only in how a message travels, and each has one
reason to exist: :class:`SerialBackend` (on the caller's thread) is the
deterministic default and the reference the others are held to,
:class:`ThreadBackend` (a queue per shard thread) passes every payload by
reference and is what the ``replay_sharded`` benchmark measures,
:class:`ProcessBackend` (a pipe per shard process) is the only one that
runs shards in parallel on a GIL build.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
import traceback
from collections import deque
from functools import partial
from queue import SimpleQueue
from types import SimpleNamespace
from typing import Deque, List, Mapping, Optional, Sequence

from repro.core.types import EmergentTopic
from repro.persistence.snapshot import SnapshotMismatchError
from repro.sharding.worker import ShardEvent, ShardWorker

#: The pinned multiprocessing start method.  "spawn" is the only method
#: available on every platform and the only one whose workers start from a
#: clean interpreter, so worker behavior — and therefore restored
#: checkpoint state — is identical on Linux and macOS.  Tests that churn
#: through many short-lived pools may override it with the cheaper "fork"
#: where available; production deployments should keep the default.
DEFAULT_START_METHOD = "spawn"


class ShardExecutionError(RuntimeError):
    """A shard worker failed; carries the worker-side traceback text.

    ``shard_id`` names the shard whose worker failed when the backend
    knows it (None for pool-wide failures such as a closed backend) —
    the supervision layer uses it to report *which* shard is recovering.
    """

    def __init__(self, message: str, shard_id: Optional[int] = None):
        super().__init__(message)
        self.shard_id = shard_id


#: Counter families a shard failure lands in, by failure kind.
_FAILURE_METRICS = {
    "ingest": "repro_sharding_ingest_failures_total",
    "failure": "repro_sharding_worker_failures_total",
    "dead": "repro_sharding_dead_workers_total",
}

#: What a transport raises when the worker behind it is gone.
_TRANSPORT_ERRORS = (OSError, EOFError)


# -- worker side -------------------------------------------------------------------

#: The synchronous operations: name → the worker call the payload stands
#: for.  Lambdas on purpose: the method is looked up on the worker when
#: the message is applied, so a ``ShardWorker`` method patched on the
#: class after the pool started (the benchmark's traced pass does that)
#: is the one that runs.
_OPERATIONS = {
    "evaluate": lambda worker, payload: worker.evaluate(*payload),
    "stats": lambda worker, _: worker.stats(),
    "collect_state": lambda worker, _: worker.snapshot(),
    "restore_state": lambda worker, state: worker.restore(state),
}


class _ShardServer:
    """Applies protocol messages to one shard worker.

    A reply is ``("ok", result, drained telemetry)`` or ``(failure kind —
    a key of _FAILURE_METRICS —, traceback text, None)``.
    """

    def __init__(self, worker: ShardWorker):
        self.worker = worker
        self._failure: Optional[tuple] = None

    def handle(self, operation: str, payload) -> Optional[tuple]:
        """The reply to one message; None for ``ingest``, which has none.

        An ingest failure is remembered and surfaces at the next reply,
        so the coordinator's fire-and-forget dispatch cannot silently
        lose an error; once failed, the worker applies nothing further.
        """
        if operation == "ingest":
            if self._failure is None:
                try:
                    self.worker.ingest(payload)
                except Exception:
                    self._failure = ("ingest", traceback.format_exc(), None)
            return None
        if self._failure is not None:
            return self._failure
        apply = _OPERATIONS.get(operation)
        if apply is None:
            return ("failure", f"unknown operation {operation!r}", None)
        try:
            value = apply(self.worker, payload)
        except Exception:
            self._failure = ("failure", traceback.format_exc(), None)
            return self._failure
        return ("ok", value, self.worker.drain_telemetry())


def _shard_loop(worker: ShardWorker, connection) -> None:
    """Request loop of one shard thread or process (module-level, so a
    spawned interpreter can import it).

    ``connection`` is the worker's end of a duplex channel, closed on
    every way out so that the coordinator's ``recv`` sees end-of-file
    instead of waiting on a worker that is gone.
    """
    server = _ShardServer(worker)
    try:
        while True:
            try:
                operation, payload = connection.recv()
            except EOFError:
                break
            if operation == "stop":
                break
            reply = server.handle(operation, payload)
            if reply is not None:
                connection.send(reply)
    finally:
        connection.close()


# -- transports --------------------------------------------------------------------
#
# One per shard, behind ``send / recv / alive / depth / kill / shutdown /
# join``: ``send`` delivers one ``(operation, payload)`` and ``recv``
# returns the next reply, either raising one of _TRANSPORT_ERRORS when the
# worker is gone; ``depth`` counts messages not yet taken; ``kill`` is a
# scripted death after delivery (fault drills); ``shutdown`` tells the
# worker to stop *now*; ``join`` waits for it and releases the transport.


class _InlineTransport:
    """Applies each message on the caller's thread; replies queue up."""

    def __init__(self, worker: ShardWorker):
        self._server: Optional[_ShardServer] = _ShardServer(worker)
        self._replies: Deque[tuple] = deque()

    def send(self, message) -> None:
        if self._server is None:
            raise BrokenPipeError("the in-process shard worker is gone")
        if message[0] == "stop":
            return self.kill()
        reply = self._server.handle(*message)
        if reply is not None:
            self._replies.append(reply)

    def recv(self) -> tuple:
        if not self._replies:
            raise EOFError("the in-process shard worker is gone")
        return self._replies.popleft()

    def alive(self) -> bool:
        return self._server is not None

    def depth(self) -> int:
        return 0

    def kill(self) -> None:
        self._server = None

    shutdown = kill

    def join(self) -> None:
        pass


#: What a shard thread leaves on its reply queue on the way out.
_EOF = object()


class _ThreadTransport:
    """A shard thread fed through one in-process queue, replying on another.

    Zero-copy by design: the coordinator blocks in the gather while the
    shard threads read the broadcast seeds/tag counts, so live references
    are safe to share and nothing is ever pickled.  The per-shard trackers
    remain single-writer (only their own thread touches them) — the same
    isolation argument as a process, minus the serialization.
    """

    def __init__(self, worker: ShardWorker):
        self._requests, self._replies = SimpleQueue(), SimpleQueue()
        self.send = self._requests.put
        self._thread = threading.Thread(
            target=_shard_loop,
            args=(worker, SimpleNamespace(
                recv=self._requests.get,
                send=self._replies.put,
                close=partial(self._replies.put, _EOF),
            )),
            name=f"enblogue-shard-{worker.shard_id}",
            daemon=True,
        )
        self._thread.start()

    def recv(self) -> tuple:
        # The end-of-file rule of a pipe: what the thread queued before it
        # exited is still delivered, then every recv raises — a dead
        # thread is noticed on the spot, not after a timeout.
        reply = self._replies.get()
        if reply is _EOF:
            self._replies.put(_EOF)
            raise EOFError("the shard thread exited")
        return reply

    def alive(self) -> bool:
        return self._thread.is_alive()

    def depth(self) -> int:
        return self._requests.qsize()

    def kill(self) -> None:
        # A thread cannot be terminated; a stop posted *behind* the
        # delivered chunk makes it apply the chunk and exit — the
        # deterministic analogue of terminating a process.
        self.send(("stop", None))

    shutdown = kill

    def join(self) -> None:
        self._thread.join(timeout=5.0)


class _PipeTransport:
    """A shard process behind a duplex pipe; every message is pickled."""

    def __init__(self, worker: ShardWorker, context):
        self._pipe, child_end = context.Pipe(duplex=True)
        self._process = context.Process(
            target=_shard_loop,
            args=(worker, child_end),
            name=f"enblogue-shard-{worker.shard_id}",
            daemon=True,
        )
        self._process.start()
        # The child holds the only other copy: when it dies, recv() here
        # raises EOFError instead of blocking.
        child_end.close()
        self.send = self._pipe.send
        self.recv = self._pipe.recv

    def alive(self) -> bool:
        return self._process.is_alive()

    def depth(self) -> int:
        return 0

    def kill(self) -> None:
        # The worker may or may not apply the delivered message before
        # the SIGTERM lands, exactly like a real crash racing an in-flight
        # batch — a supervisor must recover to the correct state either way.
        self._process.terminate()
        self._process.join(timeout=5.0)

    def shutdown(self) -> None:
        # Terminate rather than ask: a worker mid-ingest cannot read a
        # stop message until it drains its pipe, so asking can stall for
        # the full join timeout and — if the join expires while the worker
        # still holds buffered pipe data — leave a live process behind
        # until interpreter exit.
        self._process.terminate()

    def join(self) -> None:
        try:
            self._pipe.close()
        except OSError:
            pass
        self._process.join(timeout=5.0)
        if self._process.is_alive():
            self._process.terminate()
            self._process.join(timeout=1.0)
            if self._process.is_alive():  # pragma: no cover - last resort
                self._process.kill()
                self._process.join(timeout=1.0)


# -- coordinator side --------------------------------------------------------------


class ShardBackend:
    """The coordinator's side of the shard protocol, over any transport.

    A concrete backend supplies :meth:`_connect` — how one worker is
    reached — and nothing else.

    The backend also keeps *coordinator-side* per-shard health records —
    pair events dispatched, dispatch count, last dispatch latency, sticky
    ingest failure — as plain dicts, so :meth:`health` works (and stays
    non-blocking) with or without an observability bundle attached.  When
    :meth:`bind_observability` hands one over, the same events additionally
    feed the ``repro_sharding_*`` metric families.
    """

    name = "base"

    _transports: Sequence = ()
    _closed = False
    _observability = None
    _health_records: Optional[List[dict]] = None
    _metric_dispatch: Optional[List] = None
    _metric_events: Optional[List] = None
    _metric_shard_stage: Optional[List[dict]] = None
    _shard_stage_family = None
    _clock = staticmethod(time.perf_counter)
    #: Bound fault-injection plan (tests/chaos only).  Both hook sites
    #: guard with ``if self._fault_plan is not None`` so the production
    #: cost of the harness is one attribute test per send/receive.
    _fault_plan = None

    def _connect(self, worker: ShardWorker):
        """Start ``worker`` wherever this backend runs it; its transport."""
        raise NotImplementedError

    def start(self, workers: Sequence[ShardWorker]) -> None:
        self._closed = False
        self._transports = [self._connect(worker) for worker in workers]
        self._init_health(len(self._transports))

    def bind_fault_plan(self, plan) -> None:
        """Attach a :class:`repro.faults.FaultPlan` (None detaches)."""
        self._fault_plan = plan
        self._bind_fault_log()

    def _bind_fault_log(self) -> None:
        # Fired drills document themselves in the event log, so the
        # chaos-smoke job can assert the injection → recovery trail.
        plan, observability = self._fault_plan, self._observability
        if plan is not None and observability is not None \
                and hasattr(plan, "bind_log"):
            plan.bind_log(observability.log)

    # -- health / metrics ------------------------------------------------------

    def bind_observability(self, observability) -> None:
        """Attach an observability bundle; per-shard metrics mirror health."""
        self._observability = observability
        if observability is not None:
            self._clock = observability.clock
        self._bind_metrics()
        self._bind_fault_log()

    def health(self) -> List[dict]:
        """Per-shard health, without synchronising with the workers.

        Unlike :meth:`stats` (a sync point that round-trips every worker),
        this reads only coordinator-side records plus liveness and queue
        depth — safe to call from a serving event loop even while a shard
        is wedged.  ``alive: False`` is what flips ``GET /status`` to 503.
        """
        transports = self._transports  # empty once closed or torn down
        health = []
        for shard_id, record in enumerate(self._health_records or ()):
            entry = dict(record)
            entry["alive"] = (shard_id < len(transports)
                              and transports[shard_id].alive())
            entry["queue_depth"] = self._shard_queue_depth(shard_id)
            health.append(entry)
        return health

    def _init_health(self, shards: int) -> None:
        self._health_records = [
            {
                "shard": shard_id,
                "pair_events": 0,
                "dispatches": 0,
                "last_dispatch_us": 0.0,
                "ingest_failed": False,
            }
            for shard_id in range(shards)
        ]
        self._bind_metrics()

    def _bind_metrics(self) -> None:
        observability = self._observability
        records = self._health_records
        if observability is None or not observability.enabled \
                or records is None:
            self._metric_dispatch = None
            self._metric_events = None
            self._metric_shard_stage = None
            self._shard_stage_family = None
            return
        registry = observability.registry
        dispatch = registry.histogram("repro_sharding_dispatch_seconds")
        events = registry.counter("repro_sharding_pair_events_total")
        self._metric_dispatch = [
            dispatch.labels(shard=str(shard_id))
            for shard_id in range(len(records))
        ]
        self._metric_events = [
            events.labels(shard=str(shard_id))
            for shard_id in range(len(records))
        ]
        # Worker-side stage timings, shipped back by every backend's
        # telemetry drain; children are pre-built for the known stages
        # so the merge path is two dict hits per entry.
        stage = registry.histogram("repro_sharding_shard_stage_seconds")
        self._shard_stage_family = stage
        self._metric_shard_stage = [
            {
                name: stage.labels(shard=str(shard_id), stage=name)
                for name in ("ingest", "evaluate")
            }
            for shard_id in range(len(records))
        ]
        # Queue depth is a live read at scrape time, not a maintained
        # count — always exact, never drifts (0 for non-mailbox backends).
        depth = registry.gauge("repro_sharding_queue_depth")
        for shard_id in range(len(records)):
            depth.labels(shard=str(shard_id)).set_function(
                lambda sid=shard_id: self._shard_queue_depth(sid)
            )

    def _record_dispatch(self, shard_id: int, events: int,
                         seconds: float) -> None:
        record = self._health_records[shard_id]
        record["pair_events"] += events
        record["dispatches"] += 1
        record["last_dispatch_us"] = round(seconds * 1e6, 3)
        if self._metric_dispatch is not None:
            self._metric_dispatch[shard_id].observe(seconds)
            self._metric_events[shard_id].inc(events)

    def _record_failure(self, shard_id: int, kind: str) -> None:
        if kind == "ingest":
            self._health_records[shard_id]["ingest_failed"] = True
        observability = self._observability
        if observability is not None and observability.enabled:
            observability.registry.counter(_FAILURE_METRICS[kind]) \
                .labels(shard=str(shard_id)).inc()

    def _merge_telemetry(self, shard_id: int,
                         telemetry: Optional[Mapping]) -> None:
        """Fold one shard's drained telemetry into coordinator families.

        ``telemetry`` is what :meth:`ShardWorker.drain_telemetry`
        returned — stage timings land in
        ``repro_sharding_shard_stage_seconds{shard=,stage=}``, queued
        log records are re-stamped into the coordinator's event log with
        their shard id attached.
        """
        if not telemetry:
            return
        children = self._metric_shard_stage
        if children is not None:
            shard_children = children[shard_id]
            for stage, seconds in telemetry.get("stages", ()):
                child = shard_children.get(stage)
                if child is None:
                    child = self._shard_stage_family.labels(
                        shard=str(shard_id), stage=stage
                    )
                    shard_children[stage] = child
                child.observe(seconds)
        observability = self._observability
        if observability is not None and observability.enabled:
            for record in telemetry.get("logs", ()):
                observability.log.merge(record, shard=shard_id)

    def _shard_queue_depth(self, shard_id: int) -> int:
        if shard_id >= len(self._transports):
            return 0
        return self._transports[shard_id].depth()

    # -- the protocol ----------------------------------------------------------

    def ingest(self, chunks: Sequence[List[ShardEvent]]) -> None:
        """Dispatch one chunk of pair events per shard (empty chunks skipped).

        Fire-and-forget: no reply is awaited, so the coordinator keeps
        decomposing and routing documents while the workers ingest.
        """
        self._ensure_open()
        for shard_id, events in enumerate(chunks):
            if events:
                # Dispatch latency is the transport's price per chunk: the
                # ingest itself, a queue put, or pickle + pipe write.
                seconds = self._send(shard_id, "ingest", events)
                self._record_dispatch(shard_id, len(events), seconds)

    def evaluate(
        self,
        timestamp: float,
        seeds: Sequence[str],
        tag_counts: Mapping[str, int],
        total_documents: int,
    ) -> List[List[EmergentTopic]]:
        """Broadcast the globals, gather every shard's local top-k."""
        # The list() guards against a shared one-shot iterable; tag_counts
        # is deliberately NOT copied — shards only read it, and the
        # coordinator does not mutate it until the gather returns (only
        # the pipe copies, by pickling).
        return self._call(
            "evaluate", (timestamp, list(seeds), tag_counts, total_documents)
        )

    def stats(self) -> List[dict]:
        """Every shard worker's summary counters, in shard order."""
        return self._call("stats")

    def collect_states(self) -> List[dict]:
        """Gather every shard worker's snapshot, in shard order."""
        return self._call("collect_state")

    def restore_states(self, states: Sequence[Mapping]) -> None:
        """Restore one snapshot per shard worker, in shard order."""
        self._call("restore_state", states)

    def close(self) -> None:
        """Graceful shutdown (idempotent): a stop message behind whatever
        is queued, then wait for every worker to drain and exit."""
        self._closed = True
        transports, self._transports = self._transports, ()
        for transport in transports:
            try:
                transport.send(("stop", None))
            except _TRANSPORT_ERRORS:
                pass
        for transport in transports:
            transport.join()

    def _call(self, operation: str, payload=None) -> List:
        """One synchronous operation: scatter, then gather in shard order.

        A synchronisation point: transports are FIFO, so every reply
        reflects every ingest chunk dispatched before the call.  Every
        shard gets its request before any reply is awaited, so they all
        compute concurrently; the merge needs a fixed order anyway.
        ``payload`` goes to every shard as it is, except ``restore_state``'s,
        which holds one state per shard.
        """
        self._ensure_open()
        shards = range(len(self._transports))
        per_shard = operation == "restore_state"
        if per_shard and len(payload) != len(shards):
            raise SnapshotMismatchError(
                f"backend runs {len(shards)} shard(s) but {len(payload)} "
                f"shard state(s) were offered; re-partition the checkpoint "
                f"first (see repro.sharding.reshard)"
            )
        for shard_id in shards:
            self._send(shard_id, operation,
                       payload[shard_id] if per_shard else payload)
        return [self._recv(shard_id, operation) for shard_id in shards]

    def _send(self, shard_id: int, operation: str, payload) -> float:
        """The one send site; returns the seconds the transport took."""
        transport = self._transports[shard_id]
        clock = self._clock
        try:
            verdict = None
            if self._fault_plan is not None:
                verdict = self._fault_plan.on_dispatch(shard_id, operation)
            start = clock()
            transport.send((operation, payload))
            seconds = clock() - start
        except _TRANSPORT_ERRORS as exc:
            self._fail(
                shard_id, "dead",
                f"shard {shard_id} worker died before {operation!r} could "
                f"be dispatched: {exc!r}", exc,
            )
        if verdict == "kill":
            # Scripted death *after* delivery ("kill worker k after batch
            # N"); the next message to or from the shard finds it gone.
            transport.kill()
        return seconds

    def _recv(self, shard_id: int, operation: str):
        """The one receive site: the value of ``shard_id``'s next reply."""
        try:
            if self._fault_plan is not None:
                self._fault_plan.on_gather(shard_id, operation)
            status, value, telemetry = self._transports[shard_id].recv()
        except _TRANSPORT_ERRORS as exc:
            self._fail(
                shard_id, "dead",
                f"shard {shard_id} worker died during {operation}: {exc!r}",
                exc,
            )
        if status != "ok":
            # Sticky worker-side failures (an ingest that blew up earlier)
            # surface here, at the sync point, under their own kind.
            self._fail(
                shard_id, status,
                f"shard {shard_id} failed during {operation}:\n{value}",
            )
        self._merge_telemetry(shard_id, telemetry)
        return value

    def _fail(self, shard_id: int, kind: str, message: str,
              cause: Optional[BaseException] = None) -> None:
        """The one failure rule: record, tear the whole pool down, raise.

        Prompt, unlike :meth:`close`: every worker is told to stop first
        and only then joined, so the teardown costs the slowest exit, not
        the sum — and no worker, process or thread, outlives the failure.
        """
        self._record_failure(shard_id, kind)
        self._closed = True
        transports, self._transports = self._transports, ()
        for transport in transports:
            transport.shutdown()
        for transport in transports:
            transport.join()
        raise ShardExecutionError(message, shard_id=shard_id) from cause

    def _ensure_open(self) -> None:
        # A closed (or failure-torn) pool must fail loudly: silently
        # dropping chunks or returning empty evaluations would publish
        # bogus empty rankings.
        if self._closed:
            raise ShardExecutionError("backend is closed")


class SerialBackend(ShardBackend):
    """Workers in-process, each message applied on the caller's thread.

    The deterministic default and the reference: tests establish
    bit-identical equivalence against the single engine here, and the
    other two transports are then held to the same output.  A failure is
    sticky and surfaces at the next synchronisation point here too.
    """

    name = "serial"

    def _connect(self, worker: ShardWorker) -> _InlineTransport:
        return _InlineTransport(worker)


class ThreadBackend(ShardBackend):
    """One worker thread per shard, fed through an in-process queue.

    Zero serialization in either direction: event chunks, the broadcast
    tag counts and result topic lists are passed by reference.  On GIL
    builds the threads interleave, but the pickling tax of the process
    backend disappears; on free-threaded builds the shards genuinely run
    in parallel.  The transport ``replay_sharded`` measures.
    """

    name = "threads"

    def _connect(self, worker: ShardWorker) -> _ThreadTransport:
        return _ThreadTransport(worker)


class ProcessBackend(ShardBackend):
    """One worker process per shard, connected by a duplex pipe.

    The only transport that runs shards in parallel on a GIL build.  The
    picklable worker state is shipped to each child at start-up;
    afterwards only pair-event chunks flow down and local top-k lists flow
    back.  ``start_method`` selects the :mod:`multiprocessing` context,
    pinned to :data:`DEFAULT_START_METHOD` rather than the platform
    default (see there); pass ``"fork"`` to trade that portability for
    cheaper start-up (tests do).
    """

    name = "process"

    def __init__(self, start_method: Optional[str] = None):
        #: The multiprocessing start method workers are launched with.
        self.start_method = start_method or DEFAULT_START_METHOD

    def _connect(self, worker: ShardWorker) -> _PipeTransport:
        return _PipeTransport(
            worker, multiprocessing.get_context(self.start_method)
        )


_BACKENDS = {
    SerialBackend.name: SerialBackend,
    ProcessBackend.name: ProcessBackend,
    ThreadBackend.name: ThreadBackend,
}


def available_backends() -> List[str]:
    """Names accepted by :func:`make_backend`."""
    return sorted(_BACKENDS)


def make_backend(name: str, **kwargs) -> ShardBackend:
    """Instantiate an execution backend by name: ``serial``, ``threads``
    or ``process``.  Supervision is a wrapper, not a fourth name:
    :class:`~repro.sharding.supervision.SupervisedBackend` takes one of
    these."""
    try:
        backend_class = _BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"unknown shard backend {name!r}; available: {available_backends()}"
        ) from None
    return backend_class(**kwargs)
