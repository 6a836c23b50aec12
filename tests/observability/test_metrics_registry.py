"""The metrics registry: bucket edges, striping, persistence, the no-op."""

import gc
import json
import sys
import threading

import pytest

from repro.core.engine import EnBlogue
from repro.observability import (
    DEFAULT_BUCKETS,
    NOOP,
    Observability,
    STANDARD_FAMILIES,
    MetricsRegistry,
    parse_prometheus_families,
    render_prometheus,
)
from repro.observability.metrics import Histogram
from repro.persistence import CheckpointCadence

from differential import BY_REFERENCE, HOUR, config, tweet_stream


class TestHistogramBuckets:
    def test_edge_observations_land_in_their_bucket(self):
        # Prometheus `le` semantics: a value equal to a bound counts in
        # that bound's bucket, strictly above it falls through.
        histogram = Histogram(buckets=[1.0, 2.0, 4.0])
        histogram.observe(1.0)   # == first bound -> le=1
        histogram.observe(2.5)   # between 2 and 4 -> le=4
        histogram.observe(5.0)   # above the last bound -> +Inf only
        cumulative, total_sum, count = histogram.merged()
        assert cumulative == [1.0, 1.0, 2.0, 3.0]
        assert total_sum == pytest.approx(8.5)
        assert count == 3

    def test_default_buckets_are_exact_powers_of_two(self):
        histogram = Histogram()
        assert histogram.buckets == DEFAULT_BUCKETS
        # The smallest bound is an exact binary float, so an observation
        # right on it deterministically lands in the first bucket.
        histogram.observe(2.0 ** -20)
        cumulative, _sum, _count = histogram.merged()
        assert cumulative[0] == 1.0

    def test_cumulative_counts_never_decrease(self):
        histogram = Histogram()
        for exponent in range(-22, 5):
            histogram.observe(2.0 ** exponent)
        cumulative, _sum, count = histogram.merged()
        assert cumulative == sorted(cumulative)
        assert cumulative[-1] == count == 27

    def test_unsorted_buckets_are_rejected(self):
        with pytest.raises(ValueError):
            Histogram(buckets=[2.0, 1.0])
        with pytest.raises(ValueError):
            Histogram(buckets=[])


class TestStriping:
    def test_concurrent_counter_increments_merge_exactly(self):
        registry = MetricsRegistry(stripes=4)
        counter = registry.counter("repro_test_events_total")
        threads_n, per_thread = 8, 5000

        def work():
            for _ in range(per_thread):
                counter.inc()

        threads = [threading.Thread(target=work) for _ in range(threads_n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        # Integer adds per stripe, exact merge on read: no lost updates,
        # no float drift.
        assert counter.value == threads_n * per_thread

    def test_concurrent_histogram_observations_merge_exactly(self):
        registry = MetricsRegistry(stripes=4)
        histogram = registry.histogram("repro_test_latency_seconds")

        def work():
            for _ in range(2000):
                histogram.observe(0.5)

        threads = [threading.Thread(target=work) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert histogram.count == 12000
        assert histogram.sum == pytest.approx(6000.0)

    @pytest.mark.parametrize("backend", BY_REFERENCE)
    def test_in_process_backend_counters_stay_exact(self, backend):
        # The real thing: shard workers in the coordinator's process (on
        # their own threads, where the transport has them) and the
        # coordinator hammer the same registry while a sharded engine
        # replays a stream.
        from repro.sharding import ShardedEnBlogue

        documents = tweet_stream(hours=12, per_hour=30, seed=11)
        observability = Observability()
        engine = ShardedEnBlogue(
            config(), num_shards=2, backend=backend,
            observability=observability,
        )
        try:
            engine.process_batch(documents)
            registry = observability.registry
            assert registry.counter("repro_core_documents_total").value \
                == len(documents) == engine.documents_processed
            pair_events = registry.counter("repro_sharding_pair_events_total")
            counted = sum(child.value for _key, child in pair_events.samples())
            recorded = sum(record["pair_events"]
                           for record in engine.shard_health())
            assert counted == recorded > 0
        finally:
            engine.close()


class TestSnapshotRestore:
    def test_counters_and_histograms_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("repro_test_a_total").labels(shard="0").inc(7)
        registry.counter("repro_test_a_total").labels(shard="1").inc(3)
        histogram = registry.histogram("repro_test_b_seconds")
        for value in (0.001, 0.5, 10.0):
            histogram.observe(value)

        snapshot = registry.snapshot()
        # The snapshot must survive the checkpoint manifest's JSON trip.
        snapshot = json.loads(json.dumps(snapshot))

        restored = MetricsRegistry()
        restored.restore(snapshot)
        family = restored.counter("repro_test_a_total")
        assert family.labels(shard="0").value == 7
        assert family.labels(shard="1").value == 3
        again = restored.histogram("repro_test_b_seconds")
        assert again.merged() == histogram.merged()

    def test_restored_counters_continue_monotonically(self):
        registry = MetricsRegistry()
        registry.counter("repro_test_total").inc(5)
        restored = MetricsRegistry()
        restored.restore(registry.snapshot())
        restored.counter("repro_test_total").inc(2)
        assert restored.counter("repro_test_total").value == 7


    def test_unlabeled_writes_keep_one_child_through_a_restore(self):
        registry = MetricsRegistry()
        family = registry.counter("repro_test_total")
        derived = []
        labels = family.labels
        family.labels = lambda **kw: derived.append(kw) or labels(**kw)
        family.inc()
        family.inc()
        assert derived == [{}]  # the child is derived once, then kept
        assert [child for _, child in family.samples()] == [labels()]

        source = MetricsRegistry()
        source.counter("repro_test_total").inc(5)
        registry.restore(source.snapshot())  # seeds the kept child in place
        family.inc(2)
        assert family.value == labels().value == 7


class TestNoop:
    def test_disabled_bundle_allocates_nothing_per_event(self):
        counter = NOOP.registry.counter("repro_test_total")
        histogram = NOOP.registry.histogram("repro_test_seconds")
        tracer = NOOP.tracer
        log, profiler, slo = NOOP.log, NOOP.profiler, NOOP.slo
        # Warm every code path once so lazy one-time allocations (method
        # wrappers, caches) do not count against the steady state.
        counter.inc()
        histogram.observe(0.1)
        with tracer.span("warm") as span:
            span.set(n=1)
        log.emit("warm", n=1)
        profiler.sample_once()
        slo.tick()
        gc.collect()
        gc.disable()
        try:
            before = sys.getallocatedblocks()
            for _ in range(4000):
                counter.inc()
                histogram.observe(0.1)
                with tracer.span("stage") as span:
                    span.set(n=1)
                log.emit("stage", n=1)
                profiler.sample_once()
                slo.tick()
            delta = sys.getallocatedblocks() - before
        finally:
            gc.enable()
        # Shared singletons all the way down: the loop itself may cost a
        # few interpreter-internal blocks, but nothing per event.
        assert delta <= 16

    def test_noop_reads_are_inert(self):
        assert NOOP.registry.families() == []
        assert NOOP.registry.snapshot() == {}
        assert NOOP.tracer.traces() == []
        assert NOOP.store_observer("full") is None


class TestPrometheusRendering:
    def test_standard_families_render_on_first_scrape(self):
        observability = Observability()
        families = parse_prometheus_families(
            render_prometheus(observability.registry))
        for name in STANDARD_FAMILIES:
            assert name in families
            assert families[name] == STANDARD_FAMILIES[name][0]

    def test_samples_render_and_reparse(self):
        registry = MetricsRegistry()
        registry.counter("repro_test_total", help="help text") \
            .labels(shard="0").inc(4)
        registry.gauge("repro_test_depth").set(2)
        registry.histogram("repro_test_seconds").observe(0.25)
        text = render_prometheus(registry)
        assert '# TYPE repro_test_total counter' in text
        assert 'repro_test_total{shard="0"} 4' in text
        assert 'repro_test_depth 2' in text
        assert 'repro_test_seconds_bucket{le="+Inf"} 1' in text
        assert 'repro_test_seconds_count 1' in text
        parse_prometheus_families(text)  # must not raise

    def test_parser_rejects_undeclared_samples(self):
        with pytest.raises(ValueError):
            parse_prometheus_families("repro_orphan_total 3\n")

    def test_help_and_label_values_are_escaped(self):
        registry = MetricsRegistry()
        registry.counter(
            "repro_test_total",
            help='tricky "help"\nwith a \\ backslash',
        ).labels(path='a\\b', note='say "hi"\nbye').inc()
        text = render_prometheus(registry)
        assert ('# HELP repro_test_total '
                'tricky \\"help\\"\\nwith a \\\\ backslash') in text
        assert 'path="a\\\\b"' in text
        assert 'note="say \\"hi\\"\\nbye"' in text
        # No raw newline may survive inside a line: every record still
        # parses line-by-line.
        families = parse_prometheus_families(text)
        assert families["repro_test_total"] == "counter"

    def test_special_float_values_render_per_spec(self):
        registry = MetricsRegistry()
        registry.gauge("repro_test_inf").set(float("inf"))
        registry.gauge("repro_test_ninf").set(float("-inf"))
        registry.gauge("repro_test_nan").set(float("nan"))
        text = render_prometheus(registry)
        assert "repro_test_inf +Inf" in text
        assert "repro_test_ninf -Inf" in text
        assert "repro_test_nan NaN" in text
        # Histogram +Inf bucket bounds use the same rendering.
        registry.histogram("repro_test_seconds").observe(1.0)
        text = render_prometheus(registry)
        assert 'repro_test_seconds_bucket{le="+Inf"} 1' in text
        parse_prometheus_families(text)  # round-trips through the parser


class TestRegistryContract:
    def test_kind_conflicts_are_rejected(self):
        registry = MetricsRegistry()
        registry.counter("repro_test_total")
        with pytest.raises(ValueError):
            registry.gauge("repro_test_total")

    def test_invalid_names_and_labels_are_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("0bad")
        with pytest.raises(ValueError):
            registry.counter("repro_ok_total").labels(**{"0bad": "x"})

    def test_counters_only_go_up(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("repro_test_total").inc(-1)

    def test_live_gauge_survives_a_broken_callback(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("repro_test_depth")
        gauge.set_function(lambda: 1 / 0)
        assert gauge.value == 0.0
        render_prometheus(registry)  # must not raise either


class TestCheckpointSplit:
    """The serialize/fsync halves of every checkpoint write, by mode."""

    FAMILIES = ("repro_persistence_serialize_seconds",
                "repro_persistence_fsync_seconds")

    def test_a_base_write_and_a_journal_append_record_one_sample_each(
        self, tmp_path
    ):
        observability = Observability()
        engine = EnBlogue(config(), observability=observability)
        cadence = CheckpointCadence(engine, tmp_path, every=1)

        def samples():
            return {
                family: {dict(key)["mode"]: child.count for key, child
                         in observability.registry.histogram(family).samples()}
                for family in self.FAMILIES
            }

        cadence.begin()
        assert samples() == dict.fromkeys(self.FAMILIES, {"full": 1})
        engine.process_many(tweet_stream(hours=3, per_hour=30, seed=11))
        assert cadence.note_ranking()
        assert samples() == dict.fromkeys(self.FAMILIES,
                                          {"full": 1, "delta": 1})
