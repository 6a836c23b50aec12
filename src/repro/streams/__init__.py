"""Push-based stream-processing substrate.

Section 4.1 of the paper: data is represented as tuples ``(timestamp,
docId, set of tags, set of entities)`` consumed by stream operators and
pushed along producer-consumer edges in query-processing plans; sinks at the
end of the operator DAG compute the final rankings.  The engine supports
multiple query plans executing in parallel with shared operators (sources,
entity tagging, statistics) for efficiency.

This package reproduces that architecture in Python: :class:`StreamItem` is
the tuple, :class:`Operator`/:class:`Sink` are the DAG nodes, the sources
wrap datasets as DAG roots, and :class:`QueryPlan` and
:class:`PlanExecutor` wire (possibly shared) plans into one DAG and replay
it.  Show case 2 (``benchmarks/bench_showcase2_live.py``) and
``examples/live_monitoring.py`` drive exactly this path.
"""

from repro.streams.item import StreamItem
from repro.streams.operators import (
    CollectorSink,
    FunctionSink,
    Operator,
    Sink,
    StatisticsOperator,
    TagNormalizerOperator,
)
from repro.streams.sources import (
    DocumentStreamSource,
    IterableSource,
    MergedSource,
    Source,
)
from repro.streams.plan import PlanExecutor, QueryPlan

__all__ = [
    "StreamItem",
    "Operator",
    "Sink",
    "TagNormalizerOperator",
    "StatisticsOperator",
    "CollectorSink",
    "FunctionSink",
    "Source",
    "IterableSource",
    "DocumentStreamSource",
    "MergedSource",
    "QueryPlan",
    "PlanExecutor",
]
