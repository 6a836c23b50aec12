"""Stage tracing: span trees, determinism across resume, stage metrics."""

import json

from repro.core.engine import EnBlogue
from repro.observability import (
    Observability,
    STAGE_METRIC,
    MetricsRegistry,
    StageTracer,
    render_trace_ndjson,
)
from repro.persistence.resume import load_engine

from differential import HOUR, config


def make_documents(count, tags=("alpha", "beta")):
    from repro.datasets.documents import Document
    return [
        Document(timestamp=float(i) * HOUR / 4, doc_id=f"doc-{i}",
                 tags=frozenset(tags), text=" ".join(tags))
        for i in range(count)
    ]


class FrozenClock:
    """A deterministic clock advancing a fixed step per reading."""

    def __init__(self, step=0.001):
        self.now = 0.0
        self.step = step

    def __call__(self):
        self.now += self.step
        return self.now


def batch_trace_ids(tracer):
    return [trace["trace_id"] for trace in tracer.traces()
            if trace["trace_id"].startswith("batch-")]


class TestSpans:
    def test_spans_nest_into_trees(self):
        tracer = StageTracer(clock=FrozenClock())
        with tracer.trace(42) as root:
            root.set(documents=3)
            with tracer.span("ingest") as child:
                child.set(documents=3)
            with tracer.span("evaluate"):
                with tracer.span("rank"):
                    pass
        traces = tracer.traces()
        assert len(traces) == 1
        assert traces[0]["trace_id"] == "batch-000000000042"
        (root_node,) = traces[0]["spans"]
        assert root_node["name"] == "batch"
        assert root_node["attrs"] == {"documents": 3}
        names = [node["name"] for node in root_node["children"]]
        assert names == ["ingest", "evaluate"]
        evaluate = root_node["children"][1]
        assert evaluate["children"][0]["name"] == "rank"

    def test_durations_come_from_the_injected_clock(self):
        clock = FrozenClock(step=0.5)
        tracer = StageTracer(clock=clock)
        with tracer.trace(0):
            pass
        (trace,) = tracer.traces()
        # One reading at open, one at close: exactly one step apart.
        assert trace["spans"][0]["duration_us"] == 0.5 * 1e6

    def test_orphan_spans_open_auxiliary_traces(self):
        tracer = StageTracer()
        with tracer.span("checkpoint_full"):
            pass
        with tracer.span("sse_fanout"):
            pass
        ids = [trace["trace_id"] for trace in tracer.traces()]
        assert ids == ["aux-checkpoint_full-00000001",
                       "aux-sse_fanout-00000002"]

    def test_ring_buffer_drops_oldest(self):
        tracer = StageTracer(capacity=4)
        for sequence in range(10):
            with tracer.trace(sequence):
                pass
        ids = batch_trace_ids(tracer)
        assert ids == [f"batch-{n:012d}" for n in (6, 7, 8, 9)]

    def test_traces_last_caps_the_export(self):
        tracer = StageTracer()
        for sequence in range(6):
            with tracer.trace(sequence):
                pass
        assert len(tracer.traces(last=2)) == 2
        assert tracer.traces(last=0) == []

    def test_span_exit_feeds_the_stage_histogram(self):
        registry = MetricsRegistry()
        tracer = StageTracer(clock=FrozenClock(step=0.25), registry=registry)
        with tracer.span("merge"):
            pass
        with tracer.span("merge"):
            pass
        child = registry.histogram(STAGE_METRIC).labels(stage="merge")
        assert child.count == 2
        assert child.sum == 2 * 0.25

    def test_ndjson_export_is_one_object_per_line(self):
        tracer = StageTracer()
        for sequence in (0, 7):
            with tracer.trace(sequence):
                with tracer.span("ingest"):
                    pass
        lines = render_trace_ndjson(tracer).strip().splitlines()
        assert len(lines) == 2
        for line in lines:
            payload = json.loads(line)
            assert set(payload) == {"trace_id", "spans"}


class TestDeterminismAcrossResume:
    def test_resumed_run_reproduces_the_uninterrupted_trace_ids(self, tmp_path):
        documents = make_documents(40)
        chunks = [documents[i:i + 10] for i in range(0, 40, 10)]

        # The uninterrupted run: four batches, four trace ids.
        full = EnBlogue(config(), observability=Observability())
        for chunk in chunks:
            full.process_batch(chunk)
        full_ids = batch_trace_ids(full.observability.tracer)
        assert len(full_ids) == 4

        # The same stream, checkpointed after two batches and resumed
        # into a fresh process (fresh tracer included).
        first = EnBlogue(config(), observability=Observability())
        for chunk in chunks[:2]:
            first.process_batch(chunk)
        first.save_checkpoint(tmp_path)
        resumed, _manifest = load_engine(
            tmp_path, observability=Observability())
        for chunk in chunks[2:]:
            resumed.process_batch(chunk)

        resumed_ids = batch_trace_ids(resumed.observability.tracer)
        # Trace ids derive from checkpointed engine state, never wall
        # clocks: the resumed batches get exactly the ids the
        # uninterrupted run gave them.
        assert resumed_ids == full_ids[2:]
        assert batch_trace_ids(first.observability.tracer) == full_ids[:2]

    def test_resumed_rankings_stay_bit_identical_when_instrumented(
            self, tmp_path):
        from repro.portal.serialization import ranking_to_dict

        documents = make_documents(40)
        plain = EnBlogue(config())
        plain.process_batch(documents)

        instrumented = EnBlogue(config(), observability=Observability())
        instrumented.process_batch(documents[:20])
        instrumented.save_checkpoint(tmp_path)
        resumed, _ = load_engine(tmp_path, observability=Observability())
        resumed.process_batch(documents[20:])

        assert [ranking_to_dict(r) for r in resumed.ranking_history()] \
            == [ranking_to_dict(r) for r in plain.ranking_history()[
                len(plain.ranking_history())
                - len(resumed.ranking_history()):]]
