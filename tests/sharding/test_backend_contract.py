"""The shard-backend contract, once, over all three transports.

``serial``, ``threads`` and ``process`` differ only in how a message
travels, so everything a coordinator may rely on is asserted here for
each of them through the public surface alone (``health()``, ``stats()``,
the raised :class:`ShardExecutionError`, the interpreter's own thread and
child-process lists) — never through a transport's internals.  What the
transports do *not* share is stated as such: only ``serial`` and
``threads`` deliver by reference.
"""

import multiprocessing
import threading
import time

import pytest

from repro.core.config import EnBlogueConfig
from repro.core.types import TagPair
from repro.datasets.documents import Document
from repro.faults import FaultPlan
from repro.observability import Observability
from repro.sharding import (
    ProcessBackend,
    SerialBackend,
    ShardedEnBlogue,
    ThreadBackend,
    make_backend,
)
from repro.sharding.backends import ShardExecutionError, _ShardServer
from repro.sharding.worker import ShardWorker

HOUR = 3600.0

TRANSPORTS = {
    "serial": SerialBackend,
    "threads": ThreadBackend,
    "process": lambda: ProcessBackend(start_method="fork"),
}

#: A killed or failed worker must be reported well inside the 5 s a
#: transport would wait out when joining a worker that never exits.
PROMPT_SECONDS = 3.0


def config(**overrides):
    defaults = dict(
        window_horizon=6 * HOUR,
        evaluation_interval=HOUR,
        num_seeds=10,
        min_seed_count=1,
        min_pair_support=1,
        min_history=2,
        predictor="moving_average",
        predictor_window=3,
    )
    defaults.update(overrides)
    return EnBlogueConfig(**defaults)


def doc(t, tags):
    return Document(timestamp=float(t), doc_id=f"doc-{t}", tags=frozenset(tags))


def chunk(timestamp, first, second):
    return [(float(timestamp), (TagPair(first, second),))]


def shard_threads():
    return [thread for thread in threading.enumerate()
            if thread.name.startswith("enblogue-shard-")]


def shard_children():
    return [child for child in multiprocessing.active_children()
            if child.name.startswith("enblogue-shard-")]


@pytest.fixture(params=sorted(TRANSPORTS))
def kind(request):
    return request.param


@pytest.fixture
def start(kind):
    """Start a pool of ``shards`` workers on the transport under test."""
    started = []

    def _start(shards=2, plan=None, observability=None, worker=ShardWorker):
        backend = TRANSPORTS[kind]()
        if plan is not None:
            backend.bind_fault_plan(plan)
        backend.start([worker(shard_id, config())
                       for shard_id in range(shards)])
        if observability is not None:
            backend.bind_observability(observability)
        started.append(backend)
        return backend

    yield _start
    for backend in started:
        backend.close()
    # No cell may leak a worker into the next one.
    assert shard_threads() == []
    assert shard_children() == []


def assert_pool_is_gone(backend):
    assert [record["alive"] for record in backend.health()] \
        == [False] * len(backend.health())
    assert shard_threads() == []
    assert shard_children() == []
    for call in (backend.stats, lambda: backend.ingest([chunk(99, "a", "b")])):
        with pytest.raises(ShardExecutionError, match="closed") as excinfo:
            call()
        assert excinfo.value.shard_id is None


class TestConstruction:
    def test_make_backend_picks_the_transport_by_name(self, kind):
        backend = make_backend(kind)
        assert type(backend) is type(TRANSPORTS[kind]())
        assert backend.name == kind

    def test_an_unstarted_backend_runs_no_worker(self, kind):
        backend = TRANSPORTS[kind]()
        assert backend.health() == []
        assert backend.stats() == []


class TestOrdering:
    def test_a_sync_call_sees_every_chunk_sent_before_it(self, start):
        backend = start(shards=2)
        for step in range(25):
            backend.ingest([chunk(step, "a", "b"),
                            chunk(step, "c", "d") if step % 5 == 0 else []])
        assert [entry["events"] for entry in backend.stats()] == [25, 5]
        health = backend.health()
        assert [record["dispatches"] for record in health] == [25, 5]
        assert [record["pair_events"] for record in health] == [25, 5]
        assert all(record["alive"] for record in health)

    def test_replies_come_back_in_shard_order(self, start):
        backend = start(shards=3)
        assert [entry["shard_id"] for entry in backend.stats()] == [0, 1, 2]
        assert [state["shard_id"] for state in backend.collect_states()] \
            == [0, 1, 2]


class TestStickyFailure:
    def test_poisoned_chunk_surfaces_at_the_next_sync_point(self, start):
        # An out-of-order chunk poisons the worker; the fire-and-forget
        # ingest defers the error to the next synchronisation point, which
        # reports the worker's own traceback and names the shard.
        backend = start(shards=1)
        backend.ingest([chunk(10, "a", "b")])
        backend.ingest([chunk(5, "a", "c")])
        backend.ingest([chunk(11, "a", "d")])  # dropped, not applied
        with pytest.raises(ShardExecutionError,
                           match="shard 0 failed during evaluate") as excinfo:
            backend.evaluate(12.0, ["a"], {"a": 2, "b": 1, "c": 1}, 2)
        assert excinfo.value.shard_id == 0
        assert "Traceback (most recent call last)" in str(excinfo.value)
        assert "observe_pair_events" in str(excinfo.value)
        assert backend.health()[0]["ingest_failed"] is True
        assert_pool_is_gone(backend)

    def test_one_failed_shard_takes_the_whole_pool_down(self, start):
        backend = start(shards=2)
        backend.ingest([chunk(10, "a", "b"), chunk(10, "c", "d")])
        backend.ingest([chunk(5, "a", "c"), []])
        with pytest.raises(ShardExecutionError, match="shard 0"):
            backend.stats()
        assert_pool_is_gone(backend)

    def test_a_failed_worker_answers_every_later_request_the_same(self):
        # The rule itself, below any transport: once failed, a worker
        # applies nothing and repeats its traceback.
        server = _ShardServer(ShardWorker(0, config()))
        assert server.handle("ingest", chunk(10, "a", "b")) is None
        assert server.handle("ingest", chunk(5, "a", "c")) is None
        first = server.handle("stats", None)
        assert first[0] == "ingest" and "Traceback" in first[1]
        assert server.handle("ingest", chunk(11, "a", "d")) is None
        assert server.handle("collect_state", None) == first
        assert server.worker.stats()["events"] == 1

    def test_unknown_operation_answers_an_error(self, start):
        backend = start(shards=2)
        with pytest.raises(ShardExecutionError,
                           match="unknown operation 'explode'") as excinfo:
            backend._call("explode")
        assert excinfo.value.shard_id == 0
        assert_pool_is_gone(backend)


class TestInjectedFailures:
    def test_failed_send_leaves_no_live_worker(self, start):
        backend = start(plan=FaultPlan().fail_dispatch(
            shard=1, exception=BrokenPipeError))
        with pytest.raises(ShardExecutionError, match="shard 1") as excinfo:
            backend.ingest([chunk(10, "a", "b"), chunk(10, "a", "c")])
        assert excinfo.value.shard_id == 1
        assert_pool_is_gone(backend)

    def test_failed_receive_leaves_no_live_worker(self, start):
        backend = start(plan=FaultPlan().fail_gather(
            shard=0, exception=EOFError))
        backend.ingest([chunk(10, "a", "b"), []])
        with pytest.raises(ShardExecutionError, match="shard 0") as excinfo:
            backend.stats()
        assert excinfo.value.shard_id == 0
        assert_pool_is_gone(backend)

    def test_every_message_passes_both_hooks(self, start):
        class Recording:
            def __init__(self):
                self.sent, self.received = [], []

            def on_dispatch(self, shard, operation):
                self.sent.append((shard, operation))

            def on_gather(self, shard, operation=None):
                self.received.append((shard, operation))

        plan = Recording()
        backend = start(shards=2, plan=plan)
        backend.ingest([chunk(10, "a", "b"), []])
        backend.evaluate(11.0, ["a"], {"a": 1, "b": 1}, 1)
        backend.stats()
        backend.restore_states(backend.collect_states())
        backend.begin_delta_tracking()
        backend.collect_deltas(1)
        backend.end_delta_tracking()
        synchronous = ["evaluate", "stats", "collect_state", "restore_state",
                       "begin_delta", "collect_delta", "end_delta"]
        scattered = [(shard, operation) for operation in synchronous
                     for shard in (0, 1)]
        assert plan.sent == [(0, "ingest")] + scattered
        assert plan.received == scattered


class TestKilledWorker:
    """A worker that dies mid-run must surface loudly and promptly.

    The kills are scripted through the counted fault hooks: the message
    is delivered, then the worker is gone — the shape of a crash racing
    an in-flight batch.
    """

    def _killed(self, start, after_batches=1):
        return start(plan=FaultPlan().kill_worker(
            0, after_batches=after_batches))

    def _raises_promptly(self, call):
        started = time.monotonic()
        with pytest.raises(ShardExecutionError, match="shard 0") as excinfo:
            call()
        assert time.monotonic() - started < PROMPT_SECONDS
        assert excinfo.value.shard_id == 0

    def test_kill_after_delivery_surfaces_at_the_next_message(self, start):
        backend = self._killed(start)
        backend.ingest([chunk(10, "a", "b"), []])

        def rest_of_the_stream():
            # Fire-and-forget: a transport may or may not notice on the
            # next send, but the next gather must.
            backend.ingest([chunk(20, "a", "c"), []])
            backend.evaluate(21.0, ["a"], {"a": 2, "b": 1, "c": 1}, 2)

        self._raises_promptly(rest_of_the_stream)
        assert_pool_is_gone(backend)

    def test_kill_mid_gather_tears_the_pool_down(self, start):
        backend = self._killed(start)
        backend.ingest([chunk(10, "a", "b"), chunk(10, "c", "d")])
        self._raises_promptly(backend.stats)
        assert_pool_is_gone(backend)

    def test_kill_mid_collect_states_raises_not_hangs(self, start):
        backend = self._killed(start)
        backend.ingest([chunk(10, "a", "b"), []])
        self._raises_promptly(backend.collect_states)
        assert_pool_is_gone(backend)

    def test_worker_is_alive_until_the_scripted_batch(self, start):
        backend = self._killed(start, after_batches=2)
        backend.ingest([chunk(10, "a", "b"), []])
        assert backend.stats()[0]["events"] == 1
        backend.ingest([chunk(20, "a", "c"), []])
        self._raises_promptly(backend.stats)

    def test_a_process_that_dies_on_its_own_is_reported(self):
        # Not scripted: the OS takes the worker (OOM kill, crash).
        backend = ProcessBackend(start_method="fork")
        backend.start([ShardWorker(0, config()), ShardWorker(1, config())])
        try:
            victim = next(child for child in shard_children()
                          if child.name == "enblogue-shard-0")
            victim.terminate()
            victim.join(timeout=5.0)
            assert backend.health()[0]["alive"] is False
            with pytest.raises(ShardExecutionError, match="shard 0"):
                backend.evaluate(1.0, ["a"], {"a": 1}, 1)
            # The surviving worker was reaped, not leaked.
            assert_pool_is_gone(backend)
        finally:
            backend.close()


class TestLifecycle:
    def test_close_is_idempotent(self, kind):
        with ShardedEnBlogue(config(), num_shards=2,
                             backend=TRANSPORTS[kind]()) as sharded:
            sharded.process(doc(0, ["a", "b"]))
            sharded.close()
        sharded.close()
        sharded.backend.close()
        assert_pool_is_gone(sharded.backend)

    def test_use_after_close_raises_instead_of_publishing_empty(self, kind):
        # A closed engine must fail loudly: silently dropping chunks would
        # publish bogus empty rankings to listeners.
        sharded = ShardedEnBlogue(config(), num_shards=2,
                                  backend=TRANSPORTS[kind]())
        sharded.process(doc(0, ["a", "b"]))
        sharded.close()
        with pytest.raises(RuntimeError, match="closed"):
            sharded.process(doc(10, ["a", "c"]))
        with pytest.raises(RuntimeError, match="closed"):
            sharded.process_batch([doc(10, ["a", "c"])])
        with pytest.raises(RuntimeError, match="closed"):
            sharded.evaluate_now(10.0)
        assert sharded.ranking_history() == []

    def test_a_closed_backend_can_be_started_again(self, start):
        backend = start(shards=1)
        backend.ingest([chunk(10, "a", "b")])
        backend.close()
        backend.start([ShardWorker(0, config())])
        assert backend.stats()[0]["events"] == 0
        assert backend.health()[0]["alive"] is True


class TestTelemetry:
    def test_stage_timings_ride_the_next_reply(self, start):
        observability = Observability()
        backend = start(shards=2, observability=observability)
        family = observability.registry.get(
            "repro_sharding_shard_stage_seconds")

        def ingest_samples():
            counts = {}
            for key, child in family.samples():
                labels = dict(key)
                if labels["stage"] == "ingest":
                    counts[labels["shard"]] = int(child.merged()[2])
            return counts

        backend.ingest([chunk(10, "a", "b"), chunk(10, "c", "d")])
        backend.ingest([chunk(11, "a", "b"), []])
        # Ingest sends no reply, so nothing has shipped yet — on any
        # transport, the in-process one included.
        assert ingest_samples() == {"0": 0, "1": 0}
        backend.stats()
        assert ingest_samples() == {"0": 2, "1": 1}


class TestDelivery:
    @pytest.mark.parametrize("by_reference", ["serial", "threads"])
    def test_workers_receive_live_objects_not_copies(self, by_reference):
        # Zero-copy contract: the exact event tuples, tag counts and
        # result lists cross the transport without pickling.  (Only the
        # pipe copies.)
        witnessed = {}

        class Recording(ShardWorker):
            def ingest(self, events):
                witnessed["events"] = [id(event) for event in events]
                return super().ingest(events)

            def evaluate(self, timestamp, seeds, tag_counts, total):
                witnessed["tag_counts"] = id(tag_counts)
                topics = super().evaluate(timestamp, seeds, tag_counts, total)
                witnessed["topics"] = id(topics)
                return topics

        backend = TRANSPORTS[by_reference]()
        backend.start([Recording(0, config())])
        try:
            event = (10.0, (TagPair("a", "b"),))
            tag_counts = {"a": 1, "b": 1}
            backend.ingest([[event]])
            (topics,) = backend.evaluate(11.0, ["a"], tag_counts, 1)
            assert witnessed == {"events": [id(event)],
                                 "tag_counts": id(tag_counts),
                                 "topics": id(topics)}
        finally:
            backend.close()
