"""The self-healing supervisor: exact recovery, retries, escalation.

The central pin is bit-identity: a supervised run that loses a worker
mid-stream must publish *exactly* the rankings of an undisturbed run —
recovery rebuilds worker state from its one source, the in-memory base
plus the operation log, and never approximates it.  Every fault here is
scripted through the counted :class:`FaultPlan` hooks and every clock is
injected, so the suite is deterministic and sleeps for zero real
seconds.
"""

import json

import pytest

from repro.core.engine import EnBlogue
from repro.core.types import TagPair
from repro.faults import FaultPlan, tear_journal_tail
from repro.observability import Observability
from repro.persistence import (
    CheckpointCadence,
    load_engine,
    read_checkpoint,
)
from repro.sharding import (
    RetryPolicy,
    ShardedEnBlogue,
    SupervisedBackend,
    available_backends,
    make_backend,
)
from repro.sharding.backends import SerialBackend, ShardExecutionError
from repro.sharding.worker import ShardWorker

from differential import (
    BY_REFERENCE, HOUR, TRANSPORTS, config, doc, signature, tweet_stream,
)


class FakeClock:
    """Injected monotonic time: ``sleep`` advances, nothing waits."""

    def __init__(self):
        self.now = 0.0
        self.sleeps = []

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.sleeps.append(seconds)
        self.now += seconds


def instant_policy(clock=None, **overrides):
    clock = clock or FakeClock()
    defaults = dict(max_retries=3, backoff_base=0.05,
                    clock=clock, sleep=clock.sleep)
    defaults.update(overrides)
    return RetryPolicy(**defaults)


@pytest.fixture(params=BY_REFERENCE)
def in_process(request):
    """The name of a transport whose workers share this process."""
    return request.param


@pytest.fixture(scope="module")
def tweet_docs():
    return tweet_stream(hours=24, per_hour=60, seed=7)


@pytest.fixture(scope="module")
def reference_signature(tweet_docs):
    engine = EnBlogue(config())
    engine.process_batch(tweet_docs)
    engine.evaluate_now()
    return signature(engine)


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError, match="max_retries"):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError, match="backoff"):
            RetryPolicy(backoff_base=-0.1)
        with pytest.raises(ValueError, match="backoff_factor"):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ValueError, match="deadline"):
            RetryPolicy(deadline=0.0)

    def test_backoff_grows_exponentially_and_caps(self):
        policy = RetryPolicy(backoff_base=0.1, backoff_factor=2.0,
                             backoff_max=0.5)
        assert [policy.backoff(n) for n in (1, 2, 3, 4)] == \
            [0.1, 0.2, 0.4, 0.5]
        with pytest.raises(ValueError, match="1-based"):
            policy.backoff(0)

    def test_refuses_double_supervision(self):
        with pytest.raises(ValueError, match="supervise"):
            SupervisedBackend(SupervisedBackend(SerialBackend()))


class TestExactRecovery:
    @pytest.mark.parametrize("num_shards", [2, 4])
    @pytest.mark.parametrize("inner", sorted(TRANSPORTS))
    def test_worker_kill_mid_stream_stays_bit_identical(
            self, tweet_docs, reference_signature, num_shards, inner):
        clock = FakeClock()
        plan = FaultPlan(sleep=clock.sleep).kill_worker(
            num_shards - 1, after_batches=2)
        backend = SupervisedBackend(TRANSPORTS[inner](),
                                    policy=instant_policy(clock))
        backend.bind_fault_plan(plan)
        with ShardedEnBlogue(config(), num_shards=num_shards,
                             backend=backend, chunk_size=128) as sharded:
            sharded.process_batch(tweet_docs)
            sharded.evaluate_now()
            assert signature(sharded) == reference_signature
            info = sharded.supervision_info()
        assert info["recoveries"] == 1
        assert info["permanent_failure"] is None
        assert info["last_recovery"]["shards"] == num_shards
        assert plan.fired() == 1

    def test_dispatch_failure_is_retried_transparently(self, tweet_docs,
                                                       reference_signature,
                                                       in_process):
        clock = FakeClock()
        plan = FaultPlan(sleep=clock.sleep).fail_dispatch(
            shard=0, exception=BrokenPipeError, after=2, times=1,
            operation="ingest")
        backend = SupervisedBackend(TRANSPORTS[in_process](),
                                    policy=instant_policy(clock))
        backend.bind_fault_plan(plan)
        with ShardedEnBlogue(config(), num_shards=2, backend=backend,
                             chunk_size=128) as sharded:
            sharded.process_batch(tweet_docs)
            sharded.evaluate_now()
            assert signature(sharded) == reference_signature
            info = sharded.supervision_info()
        assert info["recoveries"] == 1
        assert clock.sleeps  # the backoff ran, on the fake clock

    def test_kill_between_delta_tick_and_next_batch_keeps_the_journal(
            self, tweet_docs, reference_signature, tmp_path):
        clock = FakeClock()
        backend = SupervisedBackend(TRANSPORTS["process"](),
                                    policy=instant_policy(clock))
        with ShardedEnBlogue(config(), num_shards=4, backend=backend,
                             chunk_size=128) as sharded:
            sharded.process_batch(tweet_docs[:600])
            sharded.save_checkpoint(tmp_path, track_deltas=True)
            # The base restarted the log.
            assert sharded.supervision_info()["log_ops"] == 0
            sharded.process_batch(tweet_docs[600:900])
            sharded.save_delta_checkpoint(tmp_path)
            # The very next dispatch to shard 2 is fatal: the recovery
            # window sits exactly between a journal drain and new input.
            plan = FaultPlan(sleep=clock.sleep).kill_worker(
                2, after_batches=1)
            backend.bind_fault_plan(plan)
            sharded.process_batch(tweet_docs[900:])
            # The journal is the coordinator's input, which the rebuild
            # does not touch: the next segment carries exactly what the
            # journal is missing.
            sharded.save_delta_checkpoint(tmp_path)
            _, restored = read_checkpoint(tmp_path)
            assert restored == json.loads(json.dumps(sharded.snapshot()))
            sharded.evaluate_now()
            assert signature(sharded) == reference_signature
            info = sharded.supervision_info()
        assert info["recoveries"] == 1
        assert info["last_recovery"]["replayed_ops"] > 1

    def test_torn_journal_tail_recovers_from_verified_prefix(
            self, tweet_docs, reference_signature, tmp_path, in_process):
        clock = FakeClock()
        backend = SupervisedBackend(TRANSPORTS[in_process](),
                                    policy=instant_policy(clock))
        with ShardedEnBlogue(config(), num_shards=2, backend=backend,
                             chunk_size=128) as sharded:
            sharded.process_batch(tweet_docs[:500])
            sharded.save_checkpoint(tmp_path, track_deltas=True)
            sharded.process_batch(tweet_docs[500:700])
            sharded.save_delta_checkpoint(tmp_path)
            prefix = json.loads(json.dumps(sharded.snapshot()))
            sharded.process_batch(tweet_docs[700:900])
            sharded.save_delta_checkpoint(tmp_path)
            # Crash mid-append: the newest segment's CRC framing now
            # fails, so a resume only gets the chain up to the previous
            # drain.  Recovery never reads the disk, so a kill after the
            # tear still rebuilds exactly from memory.
            tear_journal_tail(tmp_path)
            _, restored = read_checkpoint(tmp_path)
            assert restored == prefix
            plan = FaultPlan(sleep=clock.sleep).kill_worker(
                1, after_batches=1)
            backend.bind_fault_plan(plan)
            sharded.process_batch(tweet_docs[900:])
            sharded.evaluate_now()
            assert signature(sharded) == reference_signature
            info = sharded.supervision_info()
        assert plan.fired() == 1
        assert info["recoveries"] == 1

    def test_recovery_after_a_resume_rebuilds_at_the_restored_width(
            self, tweet_docs, reference_signature, tmp_path, in_process):
        with ShardedEnBlogue(config(), num_shards=2,
                             chunk_size=128) as sharded:
            sharded.process_batch(tweet_docs[:600])
            sharded.save_checkpoint(tmp_path)
        clock = FakeClock()
        backend = SupervisedBackend(TRANSPORTS[in_process](),
                                    policy=instant_policy(clock))
        plan = FaultPlan(sleep=clock.sleep).kill_worker(2, after_batches=1)
        backend.bind_fault_plan(plan)
        # 2 -> 3: the restored (re-partitioned) states are the base.
        resumed, _ = load_engine(tmp_path, num_shards=3, backend=backend)
        with resumed:
            resumed.process_batch(tweet_docs[600:])
            resumed.evaluate_now()
            assert signature(resumed) == reference_signature
            info = resumed.supervision_info()
        assert plan.fired() == 1
        assert info["recoveries"] == 1
        assert info["last_recovery"]["shards"] == 3

    def test_recovery_metrics_and_trace_are_recorded(
            self, tweet_docs, in_process):
        clock = FakeClock()
        observability = Observability()
        plan = FaultPlan(sleep=clock.sleep).kill_worker(0, after_batches=1)
        backend = SupervisedBackend(TRANSPORTS[in_process](),
                                    policy=instant_policy(clock))
        backend.bind_fault_plan(plan)
        with ShardedEnBlogue(config(), num_shards=2, backend=backend,
                             chunk_size=128,
                             observability=observability) as sharded:
            sharded.process_batch(tweet_docs[:300])
            sharded.evaluate_now()
        from repro.observability import render_prometheus
        rendered = render_prometheus(observability.registry)
        assert "repro_sharding_recoveries_total 1" in rendered
        # The dead thread goes unnoticed by fire-and-forget ingest and
        # surfaces at the next gather, which is the evaluate boundary.
        assert 'repro_sharding_retry_attempts_total{operation="evaluate"} 1' \
            in rendered
        assert "repro_sharding_backoff_seconds_total" in rendered
        # The tracer span feeds the per-stage histogram under its name.
        assert 'repro_pipeline_stage_seconds_count{stage="recovery"} 1' \
            in rendered


class TestDeadlines:
    def test_gather_past_deadline_counts_as_failure(self, tweet_docs,
                                                    reference_signature,
                                                    in_process):
        clock = FakeClock()
        policy = instant_policy(clock, deadline=1.0, backoff_base=0.0)
        # The delay advances the shared fake clock 5 virtual seconds —
        # far past the 1s deadline — without any real waiting.
        plan = FaultPlan(sleep=clock.sleep).delay_gather(
            shard=0, seconds=5.0)
        backend = SupervisedBackend(TRANSPORTS[in_process](), policy=policy)
        backend.bind_fault_plan(plan)
        with ShardedEnBlogue(config(), num_shards=2, backend=backend,
                             chunk_size=128) as sharded:
            sharded.process_batch(tweet_docs)
            sharded.evaluate_now()
            assert signature(sharded) == reference_signature
            info = sharded.supervision_info()
        assert info["recoveries"] == 1
        assert clock.now >= 5.0


class TestPermanentFailure:
    def test_exhausted_budget_escalates_and_latches(self, in_process):
        clock = FakeClock()
        policy = instant_policy(clock, max_retries=2)
        plan = FaultPlan(sleep=clock.sleep).fail_dispatch(
            shard=0, exception=BrokenPipeError, times=99,
            operation="ingest")
        backend = SupervisedBackend(TRANSPORTS[in_process](), policy=policy)
        backend.bind_fault_plan(plan)
        backend.start([ShardWorker(0, config()), ShardWorker(1, config())])
        try:
            with pytest.raises(ShardExecutionError,
                               match="failed after 2 recovery attempt"):
                backend.ingest([[(10.0, (TagPair("a", "b"),))], []])
            # Backoff ran once per retry, on the injected sleep.
            assert clock.sleeps == [policy.backoff(1), policy.backoff(2)]
            info = backend.supervision_info()
            assert info["permanent_failure"] is not None
            # Latched: every subsequent call fails fast, no new retries.
            with pytest.raises(ShardExecutionError, match="permanently"):
                backend.stats()
            assert backend.supervision_info()["retries"] == info["retries"]
            assert all(not record["alive"] for record in backend.health())
        finally:
            backend.close()


class TestBoundedOperationLog:
    """Between cadence re-bases nothing but the supervisor itself can
    restart the log: it re-bases at ``LOG_COMPACT_OPS``, exactly, whether
    a journal chain is armed or not."""

    LIMIT = 8

    def test_log_stays_under_the_constant_and_recovery_stays_exact(
            self, tweet_docs, reference_signature, monkeypatch, in_process):
        from repro.sharding import supervision

        monkeypatch.setattr(supervision, "LOG_COMPACT_OPS", self.LIMIT)
        clock = FakeClock()
        backend = SupervisedBackend(TRANSPORTS[in_process](),
                                    policy=instant_policy(clock))
        cut = len(tweet_docs) // 2
        with ShardedEnBlogue(config(), num_shards=2, backend=backend,
                             chunk_size=16) as sharded:
            high_water = 0
            for start in range(0, cut, 40):
                sharded.process_batch(tweet_docs[start:min(start + 40, cut)])
                high_water = max(high_water,
                                 sharded.supervision_info()["log_ops"])
            # Fed well past the constant: dozens of chunks and boundaries.
            dispatched = sum(record["dispatches"]
                             for record in backend.health())
            assert dispatched > 4 * self.LIMIT
            assert high_water <= self.LIMIT
            # A worker killed *after* a compaction rebuilds from the
            # compacted base plus the short log — still bit-identical.
            plan = FaultPlan(sleep=clock.sleep).kill_worker(
                1, after_batches=3)
            backend.bind_fault_plan(plan)
            sharded.process_batch(tweet_docs[cut:])
            sharded.evaluate_now()
            assert signature(sharded) == reference_signature
            info = sharded.supervision_info()
        assert plan.fired() == 1
        assert info["recoveries"] == 1
        assert info["last_recovery"]["replayed_ops"] <= self.LIMIT
        assert info["log_ops"] <= self.LIMIT

    def test_an_armed_chain_keeps_the_log_bounded(
            self, tweet_docs, reference_signature, monkeypatch, tmp_path,
            in_process):
        # The journal records the coordinator's input, not the workers',
        # so an armed chain no longer holds compaction back: the log stays
        # under the constant, and a worker killed after a compaction
        # rebuilds exactly — the engine and the journal both.
        from repro.sharding import supervision

        monkeypatch.setattr(supervision, "LOG_COMPACT_OPS", self.LIMIT)
        clock = FakeClock()
        backend = SupervisedBackend(TRANSPORTS[in_process](),
                                    policy=instant_policy(clock))
        with ShardedEnBlogue(config(), num_shards=2, backend=backend,
                             chunk_size=16) as sharded:
            sharded.process_batch(tweet_docs[:400])
            sharded.save_checkpoint(tmp_path, track_deltas=True)
            high_water = 0
            for start in range(400, 900, 20):
                sharded.process_batch(tweet_docs[start:start + 20])
                high_water = max(high_water,
                                 sharded.supervision_info()["log_ops"])
            dispatched = sum(record["dispatches"]
                             for record in backend.health())
            assert dispatched > 4 * self.LIMIT
            assert high_water <= self.LIMIT
            plan = FaultPlan(sleep=clock.sleep).kill_worker(
                1, after_batches=3)
            backend.bind_fault_plan(plan)
            sharded.process_batch(tweet_docs[900:1100])
            sharded.save_delta_checkpoint(tmp_path)
            _, restored = read_checkpoint(tmp_path)
            assert restored == json.loads(json.dumps(sharded.snapshot()))
            sharded.process_batch(tweet_docs[1100:])
            sharded.evaluate_now()
            assert signature(sharded) == reference_signature
            info = sharded.supervision_info()
        assert plan.fired() == 1
        assert info["recoveries"] == 1
        assert info["last_recovery"]["replayed_ops"] <= self.LIMIT
        assert info["log_ops"] <= self.LIMIT

    def test_a_cadence_chain_that_never_rebases_stays_bounded(
            self, tweet_docs, reference_signature, monkeypatch, tmp_path,
            in_process):
        # A cadence whose re-base never comes: the supervisor compacts on
        # its own, so the log stays bounded and both recovery and the
        # chain stay exact.
        from repro.sharding import supervision

        monkeypatch.setattr(supervision, "LOG_COMPACT_OPS", self.LIMIT)
        clock = FakeClock()
        backend = SupervisedBackend(TRANSPORTS[in_process](),
                                    policy=instant_policy(clock))
        with ShardedEnBlogue(config(), num_shards=2, backend=backend,
                             chunk_size=16) as sharded:
            cadence = CheckpointCadence(sharded, directory=tmp_path,
                                        every=1, full_every=10_000)
            cadence.begin()
            after_drains = []
            for start in range(0, 900, 50):
                rankings = sharded.process_batch(tweet_docs[start:start + 50])
                for _ in rankings:
                    cadence.note_ranking()
                    after_drains.append(
                        sharded.supervision_info()["log_ops"])
            assert cadence.checkpoints_written > 8
            assert max(after_drains) < self.LIMIT
            plan = FaultPlan(sleep=clock.sleep).kill_worker(
                1, after_batches=2)
            backend.bind_fault_plan(plan)
            sharded.process_batch(tweet_docs[900:1000])
            sharded.save_delta_checkpoint(tmp_path)
            _, restored = read_checkpoint(tmp_path)
            assert restored == json.loads(json.dumps(sharded.snapshot()))
            sharded.process_batch(tweet_docs[1000:])
            sharded.evaluate_now()
            assert signature(sharded) == reference_signature
            info = sharded.supervision_info()
        assert plan.fired() == 1
        assert info["recoveries"] == 1
        assert info["last_recovery"]["replayed_ops"] < 2 * self.LIMIT

    def test_a_cadence_rebase_restarts_the_log(
            self, tweet_docs, reference_signature, tmp_path, in_process):
        clock = FakeClock()
        backend = SupervisedBackend(TRANSPORTS[in_process](),
                                    policy=instant_policy(clock))
        with ShardedEnBlogue(config(), num_shards=2, backend=backend,
                             chunk_size=16) as sharded:
            cadence = CheckpointCadence(sharded, directory=tmp_path,
                                        every=1, full_every=3)
            cadence.begin()
            rebased_logs = []
            for start in range(0, 700, 50):
                rankings = sharded.process_batch(tweet_docs[start:start + 50])
                for _ in rankings:
                    cadence.note_ranking()
                    if cadence.checkpoints_written % 3 == 1:
                        # A re-base tick: the base restarted the log.
                        rebased_logs.append(
                            sharded.supervision_info()["log_ops"])
            assert len(rebased_logs) >= 3 and set(rebased_logs) == {0}
            plan = FaultPlan(sleep=clock.sleep).kill_worker(
                0, after_batches=2)
            backend.bind_fault_plan(plan)
            since_rebase = sharded.supervision_info()["log_ops"]
            sharded.process_batch(tweet_docs[700:])
            sharded.evaluate_now()
            assert signature(sharded) == reference_signature
            info = sharded.supervision_info()
        assert info["recoveries"] == 1
        # What replays is what was logged since the last re-base tick.
        assert since_rebase < info["last_recovery"]["replayed_ops"] \
            < since_rebase + 10


class TestSupervisedWiring:
    def test_supervision_wraps_a_backend_and_is_not_one(self):
        assert available_backends() == sorted(TRANSPORTS)
        with pytest.raises(ValueError, match="unknown shard backend"):
            make_backend("supervised")
        assert SupervisedBackend(SerialBackend()).name == "supervised[serial]"

    def test_engine_reports_supervised_shape(self, tweet_docs, in_process):
        backend = SupervisedBackend(TRANSPORTS[in_process]())
        with ShardedEnBlogue(config(), num_shards=2,
                             backend=backend) as sharded:
            sharded.process_batch(tweet_docs[:200])
            info = sharded.runtime_info()
            assert info["backend"] == f"supervised[{in_process}]"
            stats = sharded.shard_stats()
            assert [entry["shard_id"] for entry in stats] == [0, 1]

    def test_a_rebuilt_pool_keeps_the_scalar_evaluation_path(
            self, tweet_docs, reference_signature, in_process):
        clock = FakeClock()
        backend = SupervisedBackend(TRANSPORTS[in_process](),
                                    policy=instant_policy(clock))
        backend.bind_fault_plan(
            FaultPlan(sleep=clock.sleep).kill_worker(1, after_batches=2))
        with ShardedEnBlogue(config(), num_shards=2, backend=backend,
                             chunk_size=128, vectorize=False) as sharded:
            sharded.process_batch(tweet_docs)
            sharded.evaluate_now()
            assert signature(sharded) == reference_signature
            assert sharded.supervision_info()["recoveries"] == 1
            assert {stats["evaluation_path"]
                    for stats in sharded.shard_stats()} == {"scalar"}

    def test_health_marks_recovering_shards(self, tweet_docs, in_process):
        clock = FakeClock()
        backend = SupervisedBackend(TRANSPORTS[in_process](),
                                    policy=instant_policy(clock))
        with ShardedEnBlogue(config(), num_shards=2,
                             backend=backend) as sharded:
            sharded.process_batch(tweet_docs[:200])
            records = backend.health()
            assert all(record["alive"] for record in records)
            assert all(record["recovering"] is False for record in records)


class TestFaultLogTrail:
    def test_injection_and_recovery_leave_trace_correlated_records(
            self, tweet_docs, in_process):
        clock = FakeClock()
        observability = Observability()
        plan = FaultPlan(sleep=clock.sleep).kill_worker(0, after_batches=1)
        backend = SupervisedBackend(TRANSPORTS[in_process](),
                                    policy=instant_policy(clock))
        backend.bind_fault_plan(plan)
        with ShardedEnBlogue(config(), num_shards=2, backend=backend,
                             chunk_size=128,
                             observability=observability) as sharded:
            sharded.process_batch(tweet_docs[:300])
            sharded.evaluate_now()
        records = observability.log.records()
        events = {record["event"] for record in records}
        # The drill documents itself...
        fault = next(r for r in records if r["event"] == "fault_injected")
        assert fault["level"] == "warning"
        assert fault["site"] == "dispatch" and fault["action"] == "kill"
        assert fault["shard"] == 0
        # ...the retry and the recovery follow...
        assert "shard_retry" in events
        recovery = next(r for r in records if r["event"] == "recovery")
        assert recovery["shard"] == 0
        assert recovery["shards"] == 2 and recovery["replayed_ops"] >= 1
        # ...and the recovery record shares the trace id of the trace
        # holding the supervisor's `recovery` span, so /logs lines join
        # /trace span trees.  (A failure surfacing mid-batch recovers
        # inside that batch's trace; one surfacing outside any batch
        # gets its own aux-recovery trace.)
        def span_names(spans):
            for span in spans:
                yield span["name"]
                yield from span_names(span.get("children", ()))

        recovery_traces = {
            trace["trace_id"]
            for trace in observability.tracer.traces()
            if "recovery" in set(span_names(trace["spans"]))
        }
        assert recovery["trace_id"] in recovery_traces

    def test_permanent_failure_is_logged_as_an_error(self, in_process):
        clock = FakeClock()
        observability = Observability()
        policy = instant_policy(clock, max_retries=1)
        plan = FaultPlan(sleep=clock.sleep).fail_dispatch(
            shard=0, exception=BrokenPipeError, times=99,
            operation="ingest")
        backend = SupervisedBackend(TRANSPORTS[in_process](), policy=policy)
        backend.bind_fault_plan(plan)
        backend.bind_observability(observability)
        backend.start([ShardWorker(0, config()), ShardWorker(1, config())])
        try:
            with pytest.raises(ShardExecutionError):
                backend.ingest([[(10.0, (TagPair("a", "b"),))], []])
        finally:
            backend.close()
        records = observability.log.records()
        assert any(r["event"] == "fault_injected" for r in records)
        failure = next(
            r for r in records if r["event"] == "permanent_failure")
        assert failure["level"] == "error"
        assert failure["shard"] == 0
