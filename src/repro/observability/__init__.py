"""End-to-end observability: metrics, tracing, logging, profiling, SLOs.

One :class:`Observability` object bundles what the pipeline layers need:

* ``registry`` — a :class:`~repro.observability.metrics.MetricsRegistry`
  (or the shared no-op when disabled),
* ``tracer`` — a :class:`~repro.observability.tracing.StageTracer`
  feeding the same registry's stage histogram,
* ``log`` — a :class:`~repro.observability.logging.EventLog` of
  structured NDJSON records correlated with the tracer's trace ids,
* ``profiler`` — a
  :class:`~repro.observability.profiling.SamplingProfiler` for
  wall-clock folded-stack sampling (``GET /profile``),
* ``slo`` — an :class:`~repro.observability.slo.SloTracker` computing
  multi-window burn rates over the registry (``GET /slo``),
* ``clock`` — ``time.perf_counter``, the one time source every
  duration comes from.

The library default is :data:`NOOP` — instrumented code paths cost one
no-op call and **zero allocations** per event, so embedding the engines
stays free.  Runtimes that want visibility (``repro.cli serve``, ``replay
--metrics``) construct an enabled bundle and hand it to the engine, the
service and the cadence, which is what guarantees ``GET /status`` and
``GET /metrics`` read the same counters.

Metric names follow one contract — ``repro_<layer>_<thing>_<unit>`` —
and the standard families are pre-declared at construction so the very
first ``/metrics`` scrape already shows the full surface (the CI smoke
check counts on that).

``snapshot()``/``restore()`` ride the checkpoint manifest's extras, so a
resumed server's counters continue monotonically instead of resetting.
"""

from __future__ import annotations

import time
from typing import Mapping, Optional

from repro.observability.export import (
    NDJSON_CONTENT_TYPE,
    PROMETHEUS_CONTENT_TYPE,
    format_stage_table,
    parse_prometheus_families,
    render_prometheus,
    render_trace_ndjson,
)
from repro.observability.logging import (
    DEFAULT_LOG_CAPACITY,
    EventLog,
    NULL_EVENT_LOG,
    NullEventLog,
)
from repro.observability.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_METRIC,
    NULL_REGISTRY,
    NullRegistry,
)
from repro.observability.profiling import (
    NULL_PROFILER,
    NullProfiler,
    SamplingProfiler,
    render_collapsed,
)
from repro.observability.slo import (
    DEFAULT_OBJECTIVES,
    NULL_SLO,
    NullSloTracker,
    SloObjective,
    SloTracker,
)
from repro.observability.tracing import (
    NULL_TRACER,
    STAGE_METRIC,
    NullTracer,
    Span,
    StageTracer,
)

#: The standard family surface, pre-declared on every enabled registry
#: (name → (kind, help)).  Layers re-register on use — registration is
#: idempotent — but declaring them up front keeps the first scrape
#: complete and documents the naming contract in one place.
STANDARD_FAMILIES = {
    "repro_core_documents_total":
        ("counter", "Documents ingested by the detection engine."),
    "repro_core_batches_total":
        ("counter", "Batches processed via process_batch."),
    "repro_core_rankings_total":
        ("counter", "Rankings published by the engine."),
    "repro_core_evaluation_seconds":
        ("histogram", "Wall time per evaluation, labeled by path "
                      "(scalar or vectorized)."),
    "repro_pipeline_stage_seconds":
        ("histogram", "Wall time per pipeline stage, labeled by stage "
                      "name."),
    "repro_sharding_dispatch_seconds":
        ("histogram", "Per-shard chunk dispatch latency."),
    "repro_sharding_pair_events_total":
        ("counter", "Pair events dispatched per shard."),
    "repro_sharding_queue_depth":
        ("gauge", "Pending mailbox items per shard (threads backend)."),
    "repro_sharding_ingest_failures_total":
        ("counter", "Sticky worker ingest failures, per shard."),
    "repro_sharding_worker_failures_total":
        ("counter", "Worker failures surfaced at a sync point, per shard."),
    "repro_sharding_dead_workers_total":
        ("counter", "Shard workers found dead (process/thread gone)."),
    "repro_sharding_recoveries_total":
        ("counter", "Shard pool recoveries completed by the supervisor."),
    "repro_sharding_recovery_seconds":
        ("histogram", "Wall time per supervised pool recovery."),
    "repro_sharding_retry_attempts_total":
        ("counter", "Supervised retry attempts, labeled by operation."),
    "repro_sharding_backoff_seconds_total":
        ("counter", "Seconds spent in supervised retry backoff."),
    "repro_sharding_permanent_failures_total":
        ("counter", "Supervised failures that exhausted the retry budget."),
    "repro_sharding_shard_stage_seconds":
        ("histogram", "Worker-side stage wall time, labeled by shard "
                      "and stage (ingest or evaluate)."),
    "repro_serving_documents_submitted_total":
        ("counter", "Documents accepted into the ingest queue."),
    "repro_serving_batches_submitted_total":
        ("counter", "Batches accepted into the ingest queue."),
    "repro_serving_documents_processed_total":
        ("counter", "Documents the consumer fed to the engine."),
    "repro_serving_batches_processed_total":
        ("counter", "Batches the consumer fed to the engine."),
    "repro_serving_rankings_published_total":
        ("counter", "Rankings pushed on every channel of the fan-out."),
    "repro_serving_batch_errors_total":
        ("counter", "Batches the engine rejected."),
    "repro_serving_publish_errors_total":
        ("counter", "Ranking publishes that raised."),
    "repro_serving_sse_frames_total":
        ("counter", "Frames delivered to SSE subscriber buffers."),
    "repro_serving_sse_dropped_frames_total":
        ("counter", "Frames dropped on full SSE subscriber buffers."),
    "repro_serving_batch_seconds":
        ("histogram", "Ingest-to-publish wall time per served batch."),
    "repro_serving_subscribers":
        ("gauge", "Open SSE subscriptions."),
    "repro_serving_queue_depth":
        ("gauge", "Batches waiting in the ingest queue."),
    "repro_serving_queue_high_watermark":
        ("gauge", "Deepest the ingest queue has been."),
    "repro_persistence_checkpoints_total":
        ("counter", "Cadence checkpoint ticks, labeled by mode, the "
                    "tick kind (full = re-base, delta = append)."),
    "repro_persistence_checkpoint_seconds":
        ("histogram", "Wall time per cadence checkpoint tick, by mode "
                      "(the tick kind)."),
    "repro_persistence_serialize_seconds":
        ("histogram", "Checkpoint encode time (the serialize half), "
                      "by mode."),
    "repro_persistence_fsync_seconds":
        ("histogram", "Checkpoint write+fsync time (the durability "
                      "half), by mode."),
    "repro_logging_records_total":
        ("counter", "Structured log records emitted, labeled by level."),
    "repro_profiling_samples_total":
        ("counter", "Stack samples captured by the wall-clock profiler."),
    "repro_slo_ticks_total":
        ("counter", "SLO evaluation ticks taken at batch boundaries."),
    "repro_slo_attainment":
        ("gauge", "Fraction of good events, by objective and window."),
    "repro_slo_burn_rate":
        ("gauge", "Error-budget burn rate, by objective and window "
                  "(1.0 = sustainable)."),
}


class Observability:
    """Registry + tracer + clock, enabled or inert, handed down the stack."""

    def __init__(self, enabled: bool = True,
                 log_path: Optional[str] = None):
        self.enabled = bool(enabled)
        self.clock = time.perf_counter
        if self.enabled:
            self.registry = MetricsRegistry()
            self.tracer = StageTracer(clock=self.clock,
                                      registry=self.registry)
            self.log = EventLog(tracer=self.tracer, registry=self.registry,
                                path=log_path)
            self.profiler = SamplingProfiler(registry=self.registry)
            self.slo = SloTracker(self.registry)
            for name, (kind, help_text) in STANDARD_FAMILIES.items():
                getattr(self.registry, kind)(name, help=help_text)
        else:
            self.registry = NULL_REGISTRY
            self.tracer = NULL_TRACER
            self.log = NULL_EVENT_LOG
            self.profiler = NULL_PROFILER
            self.slo = NULL_SLO

    # -- persistence -----------------------------------------------------------

    def snapshot(self) -> dict:
        """Counters, log sequence and profiler totals for the manifest.

        Version 2 wraps the registry snapshot so the event-log sequence
        and the profiler's cumulative sample count resume monotonically
        too; :meth:`restore` still accepts the bare version-1 registry
        snapshots older checkpoints carry.
        """
        if not self.enabled:
            return self.registry.snapshot()
        return {
            "version": 2,
            "registry": self.registry.snapshot(),
            "log_seq": self.log.sequence,
            "profile_samples": self.profiler.samples_total,
        }

    def restore(self, state: Optional[Mapping]) -> None:
        """Seed registry/log/profiler from a manifest's metrics snapshot."""
        if not state:
            return
        if "registry" in state:
            registry_state = state.get("registry")
            if registry_state:
                self.registry.restore(registry_state)
            self.log.restore_sequence(state.get("log_seq", 0))
            self.profiler.restore_samples(state.get("profile_samples", 0))
        else:
            # Version 1: the manifest carried the registry snapshot bare.
            self.registry.restore(state)

    def close(self) -> None:
        """Stop the profiler thread and flush/close the log file sink."""
        self.profiler.stop()
        self.log.close()

    # -- store hook ------------------------------------------------------------

    def store_observer(self, mode: str):
        """The serialize/fsync split callback for the checkpoint store.

        Returns ``None`` when disabled, so the store's hot path stays
        untimed; otherwise a ``(event, seconds)`` callable feeding the
        ``repro_persistence_{serialize,fsync}_seconds`` histograms.
        """
        if not self.enabled:
            return None
        serialize = self.registry.histogram(
            "repro_persistence_serialize_seconds"
        ).labels(mode=mode)
        fsync = self.registry.histogram(
            "repro_persistence_fsync_seconds"
        ).labels(mode=mode)

        def observe(event: str, seconds: float) -> None:
            (serialize if event == "serialize" else fsync).observe(seconds)

        return observe


#: The library default: one shared inert bundle, safe to hand to any
#: layer; every instrumented call through it is a no-op.
NOOP = Observability(enabled=False)

__all__ = [
    "Observability",
    "NOOP",
    "STANDARD_FAMILIES",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "NULL_METRIC",
    "Counter",
    "Gauge",
    "Histogram",
    "DEFAULT_BUCKETS",
    "StageTracer",
    "NullTracer",
    "NULL_TRACER",
    "Span",
    "STAGE_METRIC",
    "EventLog",
    "NullEventLog",
    "NULL_EVENT_LOG",
    "DEFAULT_LOG_CAPACITY",
    "SamplingProfiler",
    "NullProfiler",
    "NULL_PROFILER",
    "render_collapsed",
    "SloTracker",
    "SloObjective",
    "NullSloTracker",
    "NULL_SLO",
    "DEFAULT_OBJECTIVES",
    "render_prometheus",
    "render_trace_ndjson",
    "format_stage_table",
    "parse_prometheus_families",
    "PROMETHEUS_CONTENT_TYPE",
    "NDJSON_CONTENT_TYPE",
]
