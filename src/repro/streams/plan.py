"""Query plans and the multi-plan executor.

A query plan is one path from a source through (possibly shared) operators
to a sink.  The executor runs several plans "in parallel" over the same
replayed stream: because the engine is push-based, running in parallel
simply means that shared upstream operators fan out to every plan's private
operators, so each document is processed once by the shared prefix and once
per plan by the plan-specific suffix.  This is what lets the demo "compare
emergent topic rankings obtained from different parameter settings in
real-time" (Section 4.1).

The paper stresses that "overlapping parts, like data sources, sketching
operators, entity tagging, and statistics operators are shared for
efficiency".  The executor therefore keeps a registry of shareable
operators keyed by a caller-chosen name: asking for an operator under an
existing key hands back the existing instance, and every plan's edges fan
out from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.streams.operators import Operator, Sink
from repro.streams.sources import Source

Edge = Tuple[Operator, Operator]


@dataclass
class QueryPlan:
    """A named pipeline: source -> operators -> sink."""

    name: str
    source: Source
    operators: Sequence[Operator] = field(default_factory=tuple)
    sink: Optional[Sink] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("a query plan needs a name")
        self.operators = tuple(self.operators)

    def nodes(self) -> List[Operator]:
        """All nodes of the plan in processing order."""
        nodes: List[Operator] = [self.source, *self.operators]
        if self.sink is not None:
            nodes.append(self.sink)
        return nodes


class PlanExecutor:
    """Wires several query plans into one shared operator DAG and replays it."""

    def __init__(self) -> None:
        self._plans: Dict[str, QueryPlan] = {}
        self._shared: Dict[str, Operator] = {}
        self._edges: List[Edge] = []

    @property
    def plans(self) -> List[QueryPlan]:
        return list(self._plans.values())

    def register(self, plan: QueryPlan) -> QueryPlan:
        """Wire a plan into the shared DAG.

        Operators already wired by another plan (typically shared ones
        obtained via :meth:`shared_operator`) are reused; edges are added
        only where missing, so registering two plans with a common prefix
        results in a single shared prefix with two fan-out branches.  A
        plan whose edges would close a cycle is rejected before any of
        them is wired.
        """
        if plan.name in self._plans:
            raise ValueError(f"a plan named {plan.name!r} is already registered")
        nodes = plan.nodes()
        if len(nodes) < 2:
            raise ValueError("a plan needs at least a source and one more node")
        new_edges: List[Edge] = []
        for edge in zip(nodes, nodes[1:]):
            if edge not in self._edges and edge not in new_edges:
                new_edges.append(edge)
        if _has_cycle(self._edges + new_edges):
            raise ValueError(f"plan {plan.name!r} would create a cycle")
        for producer, consumer in new_edges:
            producer.connect(consumer)
        self._edges.extend(new_edges)
        self._plans[plan.name] = plan
        return plan

    def shared_operator(self, key: str, factory: Callable[[], Operator]) -> Operator:
        """Return the shared operator for ``key``, creating it on first use."""
        if key not in self._shared:
            self._shared[key] = factory()
        return self._shared[key]

    def run(self, limit: Optional[int] = None,
            batch_size: Optional[int] = None) -> int:
        """Replay every distinct source once, pushing through all plans.

        Returns the total number of items emitted by the sources.  Plans
        sharing a source are fed by a single replay of that source, which is
        precisely the efficiency argument of the paper.  ``batch_size``
        switches the replay to the DAG's batch protocol: sources push chunks
        of up to that many items, and batch-aware sinks (e.g. the engine's)
        ingest them through their batched path.
        """
        if not self._plans:
            raise ValueError("no plans registered")
        distinct_sources: List[Source] = []
        for plan in self._plans.values():
            if plan.source not in distinct_sources:
                distinct_sources.append(plan.source)
        emitted = 0
        for source in distinct_sources:
            emitted += source.run(limit=limit, batch_size=batch_size)
        return emitted

    def describe(self) -> str:
        """The plans and the DAG's edges, shared producers marked."""
        shared = list(self._shared.values())
        lines = [f"executor with {len(self._plans)} plan(s), "
                 f"{len(self._edges)} edge(s), {len(shared)} shared operator(s)"]
        for plan in self._plans.values():
            chain = " -> ".join(node.name for node in plan.nodes())
            lines.append(f"  plan {plan.name!r}: {chain}")
        for producer, consumer in self._edges:
            marker = " [shared]" if producer in shared else ""
            lines.append(f"  {producer.name}{marker} -> {consumer.name}")
        return "\n".join(lines)


def _has_cycle(edges: Iterable[Edge]) -> bool:
    """True if the producer -> consumer ``edges`` contain a directed cycle."""
    successors: Dict[Operator, List[Operator]] = {}
    indegree: Dict[Operator, int] = {}
    for producer, consumer in edges:
        successors.setdefault(producer, []).append(consumer)
        indegree.setdefault(producer, 0)
        indegree[consumer] = indegree.get(consumer, 0) + 1
    frontier = [node for node, degree in indegree.items() if degree == 0]
    ordered = 0
    while frontier:
        ordered += 1
        for consumer in successors.get(frontier.pop(), ()):
            indegree[consumer] -= 1
            if indegree[consumer] == 0:
                frontier.append(consumer)
    return ordered < len(indegree)
