"""The self-healing supervisor: exact recovery, retries, degradation.

The central pin is bit-identity: a supervised run that loses a worker
mid-stream must publish *exactly* the rankings of an undisturbed run —
recovery rebuilds worker state from base + operation-log replay, never
approximates it.  Every fault here is scripted through the counted
:class:`FaultPlan` hooks and every clock is injected, so the suite is
deterministic and sleeps for zero real seconds.
"""

import pytest

from repro.core.config import EnBlogueConfig
from repro.core.engine import EnBlogue
from repro.core.types import TagPair
from repro.datasets.documents import Document
from repro.datasets.twitter import TweetStreamGenerator
from repro.faults import FaultPlan, tear_journal_tail
from repro.observability import Observability
from repro.persistence.snapshot import SnapshotMismatchError
from repro.sharding import (
    RetryPolicy,
    ShardedEnBlogue,
    SupervisedBackend,
    make_backend,
)
from repro.sharding.backends import (
    ProcessBackend,
    ShardExecutionError,
    ThreadBackend,
)
from repro.sharding.worker import ShardWorker

HOUR = 3600.0


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


def signature(engine):
    return [
        (ranking.timestamp, ranking.label, ranking.topics)
        for ranking in engine.ranking_history()
    ]


def doc(t, tags):
    return Document(timestamp=float(t), doc_id=f"doc-{t}",
                    tags=frozenset(tags))


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


def make_inner(kind):
    if kind == "process":
        return ProcessBackend(start_method="fork")
    return make_backend(kind)


@pytest.fixture(scope="module")
def tweet_docs():
    corpus, _ = TweetStreamGenerator(hours=24, tweets_per_hour=60,
                                     seed=7).generate()
    return list(corpus)


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
            SupervisedBackend(SupervisedBackend("serial"))


class TestExactRecovery:
    @pytest.mark.parametrize("num_shards", [2, 4])
    @pytest.mark.parametrize("inner", ["serial", "threads", "process"])
    def test_worker_kill_mid_stream_stays_bit_identical(
            self, tweet_docs, reference_signature, num_shards, inner):
        clock = FakeClock()
        plan = FaultPlan(sleep=clock.sleep).kill_worker(
            num_shards - 1, after_batches=2)
        backend = SupervisedBackend(make_inner(inner),
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
        assert info["last_recovery"]["source"] == "memory"
        assert plan.fired() == 1

    def test_dispatch_failure_is_retried_transparently(self, tweet_docs,
                                                       reference_signature):
        clock = FakeClock()
        plan = FaultPlan(sleep=clock.sleep).fail_dispatch(
            shard=0, exception=BrokenPipeError, after=2, times=1,
            operation="ingest")
        backend = SupervisedBackend(ThreadBackend(),
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

    def test_kill_between_delta_tick_and_next_batch_rebases_from_disk(
            self, tweet_docs, reference_signature, tmp_path):
        clock = FakeClock()
        backend = SupervisedBackend(ProcessBackend(start_method="fork"),
                                    policy=instant_policy(clock),
                                    checkpoint_dir=tmp_path)
        with ShardedEnBlogue(config(), num_shards=4, backend=backend,
                             chunk_size=128) as sharded:
            sharded.process_batch(tweet_docs[:600])
            sharded.save_checkpoint(tmp_path, track_deltas=True)
            sharded.process_batch(tweet_docs[600:900])
            sharded.save_delta_checkpoint(tmp_path)
            # The very next dispatch to shard 2 is fatal: the recovery
            # window sits exactly between a journal drain and new input.
            plan = FaultPlan(sleep=clock.sleep).kill_worker(
                2, after_batches=1)
            backend.bind_fault_plan(plan)
            sharded.process_batch(tweet_docs[900:])
            sharded.evaluate_now()
            assert signature(sharded) == reference_signature
            info = sharded.supervision_info()
        assert info["recoveries"] == 1
        assert info["last_recovery"]["source"] == "checkpoint"

    def test_torn_journal_tail_recovers_from_verified_prefix(
            self, tweet_docs, reference_signature, tmp_path):
        clock = FakeClock()
        backend = SupervisedBackend(ThreadBackend(),
                                    policy=instant_policy(clock),
                                    checkpoint_dir=tmp_path)
        with ShardedEnBlogue(config(), num_shards=2, backend=backend,
                             chunk_size=128) as sharded:
            sharded.process_batch(tweet_docs[:500])
            sharded.save_checkpoint(tmp_path, track_deltas=True)
            sharded.process_batch(tweet_docs[500:700])
            sharded.save_delta_checkpoint(tmp_path)
            sharded.process_batch(tweet_docs[700:900])
            sharded.save_delta_checkpoint(tmp_path)
            # Crash mid-append: the newest segment's CRC framing now
            # fails, so disk only proves the chain up to the previous
            # drain — the log suffix past that marker fills the gap.
            tear_journal_tail(tmp_path)
            plan = FaultPlan(sleep=clock.sleep).kill_worker(
                1, after_batches=1)
            backend.bind_fault_plan(plan)
            sharded.process_batch(tweet_docs[900:])
            sharded.evaluate_now()
            assert signature(sharded) == reference_signature
            info = sharded.supervision_info()
        assert info["recoveries"] == 1
        assert info["last_recovery"]["source"] == "checkpoint"

    def test_recovery_metrics_and_trace_are_recorded(self, tweet_docs):
        clock = FakeClock()
        observability = Observability()
        plan = FaultPlan(sleep=clock.sleep).kill_worker(0, after_batches=1)
        backend = SupervisedBackend(ThreadBackend(),
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
                                                    reference_signature):
        clock = FakeClock()
        policy = instant_policy(clock, deadline=1.0, backoff_base=0.0)
        # The delay advances the shared fake clock 5 virtual seconds —
        # far past the 1s deadline — without any real waiting.
        plan = FaultPlan(sleep=clock.sleep).delay_gather(
            shard=0, seconds=5.0)
        backend = SupervisedBackend(ThreadBackend(), policy=policy)
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
    def test_exhausted_budget_escalates_and_latches(self):
        clock = FakeClock()
        policy = instant_policy(clock, max_retries=2)
        plan = FaultPlan(sleep=clock.sleep).fail_dispatch(
            shard=0, exception=BrokenPipeError, times=99,
            operation="ingest")
        backend = SupervisedBackend(ThreadBackend(), policy=policy)
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


class TestDegradedMode:
    def test_truncated_log_falls_back_to_n_minus_one(self, tweet_docs):
        clock = FakeClock()
        backend = SupervisedBackend(ThreadBackend(),
                                    policy=instant_policy(clock),
                                    max_log_ops=0)
        with ShardedEnBlogue(config(), num_shards=3, backend=backend,
                             chunk_size=128) as sharded:
            sharded.process_batch(tweet_docs[:300])
            # A snapshot captures per-shard base states — the only thing
            # a truncated log leaves to re-shard from.
            sharded.snapshot()
            plan = FaultPlan(sleep=clock.sleep).kill_worker(
                1, after_batches=1)
            backend.bind_fault_plan(plan)
            sharded.process_batch(tweet_docs[300:600])
            info = sharded.supervision_info()
            assert info["degraded"] is True
            assert info["live_shards"] == 2
            assert info["last_recovery"]["source"] == "degraded"
            # Availability over exactness: the contracted pool still
            # ingests and evaluates.
            sharded.evaluate_now()
            assert sharded.ranking_history()
            # The journal chain must not be extended by a lying width.
            with pytest.raises(SnapshotMismatchError):
                backend.collect_deltas(1)

    def test_full_restore_exits_degraded_mode(self, tweet_docs):
        clock = FakeClock()
        backend = SupervisedBackend(ThreadBackend(),
                                    policy=instant_policy(clock),
                                    max_log_ops=0)
        with ShardedEnBlogue(config(), num_shards=3, backend=backend,
                             chunk_size=128) as sharded:
            sharded.process_batch(tweet_docs[:300])
            state = sharded.snapshot()
            plan = FaultPlan(sleep=clock.sleep).kill_worker(
                0, after_batches=1)
            backend.bind_fault_plan(plan)
            sharded.process_batch(tweet_docs[300:500])
            assert sharded.supervision_info()["degraded"] is True
            sharded.restore(state)
            info = sharded.supervision_info()
            assert info["degraded"] is False
            assert info["live_shards"] == 3


class TestBoundedOperationLog:
    """Without a checkpoint cadence nothing but the supervisor itself can
    restart the log: it re-bases at ``LOG_COMPACT_OPS``, exactly."""

    LIMIT = 8

    def test_log_stays_under_the_constant_and_recovery_stays_exact(
            self, tweet_docs, reference_signature, monkeypatch):
        from repro.sharding import supervision

        monkeypatch.setattr(supervision, "LOG_COMPACT_OPS", self.LIMIT)
        clock = FakeClock()
        backend = SupervisedBackend(ThreadBackend(),
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
        assert info["last_recovery"]["source"] == "memory"
        assert info["last_recovery"]["replayed_ops"] <= self.LIMIT
        assert info["log_ops"] <= self.LIMIT

    def test_an_armed_delta_chain_is_not_rebased_behind_the_engine(
            self, tweet_docs, reference_signature, monkeypatch, tmp_path):
        from repro.sharding import supervision

        monkeypatch.setattr(supervision, "LOG_COMPACT_OPS", self.LIMIT)
        backend = SupervisedBackend(ThreadBackend(),
                                    policy=instant_policy())
        with ShardedEnBlogue(config(), num_shards=2, backend=backend,
                             chunk_size=16) as sharded:
            sharded.process_batch(tweet_docs[:400])
            sharded.save_checkpoint(tmp_path, track_deltas=True)
            sharded.process_batch(tweet_docs[400:900])
            # Armed: the log runs past the constant (the cadence's own
            # re-base is what restarts it) and the drained delta still
            # carries every event since the base.
            assert sharded.supervision_info()["log_ops"] > self.LIMIT
            delta = sharded.delta_since(1)
            shard_events = sum(
                len(shard["tracker"]["events"]) for shard in delta["shards"])
            assert shard_events > 0
            assert len(delta["tag_events"]) == 500
            sharded.process_batch(tweet_docs[900:])
            sharded.evaluate_now()
            assert signature(sharded) == reference_signature


class TestSupervisedWiring:
    def test_available_and_make_backend_know_supervised(self):
        from repro.sharding import available_backends
        assert "supervised" in available_backends()
        backend = make_backend("supervised")
        assert isinstance(backend, SupervisedBackend)
        assert backend.inner_name == "serial"

    def test_engine_reports_supervised_shape(self, tweet_docs):
        backend = SupervisedBackend(ThreadBackend())
        with ShardedEnBlogue(config(), num_shards=2,
                             backend=backend) as sharded:
            sharded.process_batch(tweet_docs[:200])
            info = sharded.runtime_info()
            assert info["backend"] == "supervised[threads]"
            stats = sharded.shard_stats()
            assert [entry["shard_id"] for entry in stats] == [0, 1]

    def test_health_marks_recovering_shards(self, tweet_docs):
        clock = FakeClock()
        backend = SupervisedBackend(ThreadBackend(),
                                    policy=instant_policy(clock))
        with ShardedEnBlogue(config(), num_shards=2,
                             backend=backend) as sharded:
            sharded.process_batch(tweet_docs[:200])
            records = backend.health()
            assert all(record["alive"] for record in records)
            assert all(record["recovering"] is False for record in records)


class TestFaultLogTrail:
    def test_injection_and_recovery_leave_trace_correlated_records(
            self, tweet_docs):
        clock = FakeClock()
        observability = Observability()
        plan = FaultPlan(sleep=clock.sleep).kill_worker(0, after_batches=1)
        backend = SupervisedBackend(ThreadBackend(),
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

    def test_permanent_failure_is_logged_as_an_error(self):
        clock = FakeClock()
        observability = Observability()
        policy = instant_policy(clock, max_retries=1)
        plan = FaultPlan(sleep=clock.sleep).fail_dispatch(
            shard=0, exception=BrokenPipeError, times=99,
            operation="ingest")
        backend = SupervisedBackend(ThreadBackend(), policy=policy)
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
