"""Tests for query plans and the multi-plan executor."""

import pytest

from repro.streams.item import StreamItem
from repro.streams.operators import (
    CollectorSink,
    FunctionSink,
    Operator,
    StatisticsOperator,
    TagNormalizerOperator,
)
from repro.streams.plan import PlanExecutor, QueryPlan
from repro.streams.sources import IterableSource


def items(n=5):
    return [
        StreamItem(timestamp=float(i), doc_id=f"d{i}", tags={"A", "b"})
        for i in range(n)
    ]


class TestQueryPlan:
    def test_nodes_in_processing_order(self):
        source = IterableSource(items())
        normalizer = TagNormalizerOperator()
        sink = CollectorSink()
        plan = QueryPlan("p", source, [normalizer], sink)
        assert plan.nodes() == [source, normalizer, sink]

    def test_requires_name(self):
        with pytest.raises(ValueError):
            QueryPlan("", IterableSource(items()))

    def test_nodes_without_a_sink(self):
        source = IterableSource(items())
        normalizer = TagNormalizerOperator()
        plan = QueryPlan("p", source, [normalizer])
        assert plan.nodes() == [source, normalizer]
        assert plan.operators == (normalizer,)


class TestPlanExecutor:
    def test_single_plan_runs_end_to_end(self):
        executor = PlanExecutor()
        source = IterableSource(items(4))
        sink = CollectorSink()
        executor.register(QueryPlan("p", source, [TagNormalizerOperator()], sink))
        emitted = executor.run()
        assert emitted == 4
        assert len(sink.items) == 4
        assert sink.items[0].tags == frozenset({"a", "b"})

    def test_duplicate_plan_names_rejected(self):
        executor = PlanExecutor()
        source = IterableSource(items())
        executor.register(QueryPlan("p", source, [], CollectorSink()))
        with pytest.raises(ValueError):
            executor.register(QueryPlan("p", source, [], CollectorSink()))

    def test_plan_needs_at_least_two_nodes(self):
        executor = PlanExecutor()
        with pytest.raises(ValueError):
            executor.register(QueryPlan("p", IterableSource(items())))

    def test_run_without_plans_rejected(self):
        with pytest.raises(ValueError):
            PlanExecutor().run()

    def test_shared_source_is_replayed_once_for_two_plans(self):
        executor = PlanExecutor()
        source = IterableSource(items(6))
        stats = executor.shared_operator("stats", StatisticsOperator)
        sink_a, sink_b = CollectorSink("a"), CollectorSink("b")
        executor.register(QueryPlan("plan-a", source, [stats], sink_a))
        executor.register(QueryPlan("plan-b", source, [stats], sink_b))
        emitted = executor.run()
        # The source is replayed once...
        assert emitted == 6
        # ...the shared operator sees each document once...
        assert stats.documents == 6
        # ...and both plans' sinks receive the full stream.
        assert len(sink_a.items) == 6
        assert len(sink_b.items) == 6

    def test_unshared_plans_have_independent_operators(self):
        executor = PlanExecutor()
        source = IterableSource(items(3))
        stats_a, stats_b = StatisticsOperator("sa"), StatisticsOperator("sb")
        executor.register(QueryPlan("plan-a", source, [stats_a], CollectorSink()))
        executor.register(QueryPlan("plan-b", source, [stats_b], CollectorSink()))
        executor.run()
        assert stats_a.documents == 3
        assert stats_b.documents == 3

    def test_describe_lists_plans(self):
        executor = PlanExecutor()
        source = IterableSource(items())
        executor.register(QueryPlan("my-plan", source, [], CollectorSink()))
        assert "my-plan" in executor.describe()

    def test_shared_operator_is_one_instance_per_key(self):
        executor = PlanExecutor()
        first = executor.shared_operator("stats", StatisticsOperator)
        assert executor.shared_operator("stats", StatisticsOperator) is first
        assert executor.shared_operator("other", StatisticsOperator) is not first
        source = IterableSource(items())
        executor.register(QueryPlan("p", source, [first], CollectorSink()))
        assert f"{first.name} [shared] ->" in executor.describe()

    def test_common_prefix_is_wired_once(self):
        executor = PlanExecutor()
        source = IterableSource(items(2))
        stats = executor.shared_operator("stats", StatisticsOperator)
        executor.register(QueryPlan("plan-a", source, [stats], CollectorSink()))
        executor.register(QueryPlan("plan-b", source, [stats], CollectorSink()))
        # source -> stats once, then one fan-out edge per plan.
        assert "3 edge(s)" in executor.describe()
        assert len(stats.consumers) == 2

    def test_cycle_is_rejected_before_anything_is_wired(self):
        executor = PlanExecutor()
        source = IterableSource(items())
        first, second = Operator("first"), Operator("second")
        executor.register(QueryPlan("forward", source, [first, second],
                                    CollectorSink()))
        with pytest.raises(ValueError, match="cycle"):
            executor.register(QueryPlan("backward", source,
                                        [second, first], CollectorSink()))
        # Not even the plan's acyclic first edge (source -> second) went in.
        assert source.consumers == [first]
        assert first not in second.consumers
        assert [plan.name for plan in executor.plans] == ["forward"]

    def test_register_wires_the_plan_in_sequence(self):
        executor = PlanExecutor()
        source = IterableSource(items())
        first, second, sink = Operator("a"), Operator("b"), CollectorSink("c")
        executor.register(QueryPlan("p", source, [first, second], sink))
        assert source.consumers == [first]
        assert first.consumers == [second]
        assert second.consumers == [sink]
        assert "3 edge(s)" in executor.describe()

    def test_duplicate_edges_are_ignored(self):
        executor = PlanExecutor()
        source = IterableSource(items(3))
        stats, sink = StatisticsOperator(), CollectorSink()
        executor.register(QueryPlan("p", source, [stats], sink))
        executor.register(QueryPlan("q", source, [stats], sink))
        assert "2 edge(s)" in executor.describe()
        executor.run()
        # One edge, one delivery: the sink is not fed twice.
        assert len(sink.items) == 3

    def test_self_loop_is_rejected(self):
        executor = PlanExecutor()
        source = IterableSource(items())
        loop = Operator("loop")
        with pytest.raises(ValueError, match="cycle"):
            executor.register(QueryPlan("p", source, [loop, loop],
                                        CollectorSink()))
        assert source.consumers == []
        assert executor.plans == []

    def test_cycle_across_three_plans_is_rejected(self):
        executor = PlanExecutor()
        source = IterableSource(items())
        a, b, c = Operator("a"), Operator("b"), Operator("c")
        executor.register(QueryPlan("ab", source, [a, b], CollectorSink()))
        executor.register(QueryPlan("bc", source, [b, c], CollectorSink()))
        with pytest.raises(ValueError, match="cycle"):
            executor.register(QueryPlan("ca", source, [c, a], CollectorSink()))
        assert a not in c.consumers
        assert [plan.name for plan in executor.plans] == ["ab", "bc"]

    def test_private_operator_is_not_marked_shared(self):
        executor = PlanExecutor()
        source = IterableSource(items())
        private = StatisticsOperator("private")
        executor.register(QueryPlan("p", source, [private], CollectorSink()))
        assert "[shared]" not in executor.describe()
        assert "0 shared operator(s)" in executor.describe()

    def test_describe_mentions_every_edge(self):
        executor = PlanExecutor()
        source = IterableSource(items(), name="upstream")
        executor.register(QueryPlan("p", source, [], CollectorSink("downstream")))
        assert "  upstream -> downstream" in executor.describe().splitlines()

    def test_shared_operator_factory_runs_once_per_key(self):
        executor = PlanExecutor()
        built = []

        def factory():
            built.append(StatisticsOperator())
            return built[-1]

        for _ in range(3):
            executor.shared_operator("stats", factory)
        assert len(built) == 1

    def test_each_distinct_source_is_replayed_once(self):
        executor = PlanExecutor()
        first, second = IterableSource(items(3)), IterableSource(items(4))
        sink_a, sink_b, sink_c = CollectorSink(), CollectorSink(), CollectorSink()
        executor.register(QueryPlan("a", first, [], sink_a))
        executor.register(QueryPlan("b", second, [], sink_b))
        executor.register(QueryPlan("c", first, [], sink_c))
        assert executor.run() == 7
        assert [len(s.items) for s in (sink_a, sink_b, sink_c)] == [3, 4, 3]

    def test_run_limit_caps_each_source(self):
        executor = PlanExecutor()
        sink = CollectorSink()
        executor.register(QueryPlan("p", IterableSource(items(6)), [], sink))
        assert executor.run(limit=2) == 2
        assert len(sink.items) == 2

    def test_run_batch_size_reaches_sinks_as_batches(self):
        executor = PlanExecutor()
        batches = []
        sink = FunctionSink(lambda item: None, batch_callback=batches.append)
        executor.register(QueryPlan("p", IterableSource(items(5)),
                                    [TagNormalizerOperator()], sink))
        assert executor.run(batch_size=2) == 5
        assert [len(batch) for batch in batches] == [2, 2, 1]
        assert all(i.tags == frozenset({"a", "b"})
                   for batch in batches for i in batch)
