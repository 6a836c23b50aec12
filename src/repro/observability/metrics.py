"""A dependency-free metrics registry: counters, gauges, histograms.

The registry follows the Prometheus data model — labeled *families* of
``Counter``/``Gauge``/``Histogram`` children — without importing anything
beyond the stdlib, so the library keeps its zero-dependency core and the
``no-numpy`` CI job stays honest.

Thread safety is MRV striping (multi-record values: split one hot value
into per-writer records, merge on read): every counter and histogram
splits its cells into per-thread stripes chosen by
``threading.get_ident()``, each guarded by a stripe-local lock, and reads
merge the stripes.  Counts are integers/float sums, so the merge is exact
— the registry reports the same totals a single-lock implementation
would.  Striping pays only under *write* contention, which metrics have:
the event loop, the engine executor and the shard threads of the
``threads`` backend all write them concurrently.

Two registries exist:

* :class:`MetricsRegistry` — the real thing, used whenever observability
  is enabled (the serving layer, ``replay --metrics``).
* :class:`NullRegistry` — the library default.  Every family/child it
  hands out is a shared module-level singleton whose mutators are empty
  methods, so instrumented hot paths allocate **nothing** per event and
  cost one no-op call (pinned by an allocation-count regression test).

Histograms use fixed log-scale buckets (powers of two from 1 µs to ~8 s
by default — latencies, the only thing the pipeline observes into them)
so bucket edges are exactly representable floats and two runs of the same
stream land every observation in the same bucket.

``snapshot()``/``restore()`` round-trip counters and histograms through
the checkpoint manifest so a resumed server's counters continue
monotonically instead of resetting to zero.
"""

from __future__ import annotations

import json
import re
import threading
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

#: Default histogram bucket upper bounds: log-scale (factor 2) from one
#: microsecond to ~8.4 seconds, plus the implicit +Inf bucket.  Powers of
#: two are exact binary floats, so edge observations bucket predictably.
DEFAULT_BUCKETS: Tuple[float, ...] = tuple(2.0 ** e for e in range(-20, 4))

#: Stripes per counter/histogram cell.  Writers are the coordinator, at
#: most a handful of shard threads and the event loop; four stripes keep
#: them off each other's locks without making merged reads expensive.
DEFAULT_STRIPES = 4

_NAME_PATTERN = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_PATTERN = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def _validate_name(name: str) -> str:
    if not _NAME_PATTERN.match(name):
        raise ValueError(f"invalid metric name {name!r}")
    return name


def _label_key(labels: Mapping[str, str]) -> Tuple[Tuple[str, str], ...]:
    """The canonical child key: sorted (name, value) pairs."""
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class _StripedCells:
    """Per-thread float cells merged on read — the striping idiom."""

    __slots__ = ("_values", "_locks")

    def __init__(self, stripes: int, width: int = 1):
        self._values: List[List[float]] = [
            [0.0] * width for _ in range(stripes)
        ]
        self._locks = [threading.Lock() for _ in range(stripes)]

    def add(self, index: int, amount: float) -> None:
        stripe = threading.get_ident() % len(self._values)
        with self._locks[stripe]:
            self._values[stripe][index] += amount

    def merged(self) -> List[float]:
        width = len(self._values[0])
        totals = [0.0] * width
        for stripe, lock in enumerate(self._locks):
            with lock:
                cells = self._values[stripe]
                for index in range(width):
                    totals[index] += cells[index]
        return totals

    def seed(self, values: Sequence[float]) -> None:
        """Adopt absolute values (restore path); lands in stripe 0."""
        for stripe, lock in enumerate(self._locks):
            with lock:
                cells = self._values[stripe]
                for index in range(len(cells)):
                    cells[index] = 0.0
        with self._locks[0]:
            cells = self._values[0]
            for index, value in enumerate(values):
                cells[index] = float(value)


class Counter:
    """A monotonically increasing value (one labeled child of a family)."""

    __slots__ = ("_cells",)

    def __init__(self, stripes: int = DEFAULT_STRIPES):
        self._cells = _StripedCells(stripes)

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        self._cells.add(0, amount)

    @property
    def value(self) -> float:
        return self._cells.merged()[0]


class Gauge:
    """A settable value, or a live callback read at collection time."""

    __slots__ = ("_lock", "_value", "_function")

    def __init__(self):
        self._lock = threading.Lock()
        self._value = 0.0
        self._function: Optional[Callable[[], float]] = None

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def set_max(self, value: float) -> None:
        """Raise the gauge to ``value`` if it is above the current one."""
        with self._lock:
            if value > self._value:
                self._value = float(value)

    def inc(self, amount: float = 1) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1) -> None:
        self.inc(-amount)

    def set_function(self, function: Callable[[], float]) -> None:
        """Read the gauge live from ``function`` at collection time."""
        self._function = function

    @property
    def value(self) -> float:
        function = self._function
        if function is not None:
            try:
                return float(function())
            except Exception:
                # A live gauge must never take /metrics down with it
                # (e.g. a queue read after its service closed).
                return 0.0
        with self._lock:
            return self._value


class Histogram:
    """Fixed log-scale buckets; striped per-bucket counts, sum and count.

    ``observe(v)`` lands in the first bucket whose upper bound satisfies
    ``v <= bound`` (Prometheus ``le`` semantics); values above the last
    bound land only in the implicit +Inf bucket.
    """

    __slots__ = ("buckets", "_cells")

    def __init__(self, buckets: Sequence[float] = DEFAULT_BUCKETS,
                 stripes: int = DEFAULT_STRIPES):
        bounds = tuple(float(b) for b in buckets)
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError("histogram buckets must be sorted and non-empty")
        self.buckets = bounds
        # Cell layout: one count per finite bucket, then +Inf count,
        # then the running sum of observed values.
        self._cells = _StripedCells(stripes, width=len(bounds) + 2)

    def observe(self, value: float) -> None:
        index = len(self.buckets)  # +Inf by default
        for position, bound in enumerate(self.buckets):
            if value <= bound:
                index = position
                break
        cells = self._cells
        cells.add(index, 1)
        cells.add(len(self.buckets) + 1, value)

    def merged(self) -> Tuple[List[float], float, float]:
        """``(cumulative_bucket_counts, sum, count)`` — +Inf included."""
        raw = self._cells.merged()
        counts = raw[: len(self.buckets) + 1]
        total = 0.0
        cumulative = []
        for count in counts:
            total += count
            cumulative.append(total)
        return cumulative, raw[-1], total

    @property
    def count(self) -> int:
        return int(self.merged()[2])

    @property
    def sum(self) -> float:
        return self.merged()[1]


class MetricFamily:
    """One named family: a kind, help text and labeled children."""

    def __init__(self, registry: "MetricsRegistry", name: str, kind: str,
                 help: str = "", buckets: Optional[Sequence[float]] = None):
        self.name = _validate_name(name)
        self.kind = kind
        self.help = help
        self.buckets = tuple(buckets) if buckets is not None else None
        self._registry = registry
        self._children: Dict[Tuple[Tuple[str, str], ...], object] = {}
        # The unlabeled child, kept after its first use: children are
        # never dropped (a restore seeds them in place), so it cannot go
        # stale, and an unlabeled write skips the label-key derivation.
        self._unlabeled = None
        self._lock = threading.Lock()

    def labels(self, **labels: str):
        """The child for this label set (created on first use)."""
        key = _label_key(labels)
        child = self._children.get(key)
        if child is None:
            for label_name, _value in key:
                if not _LABEL_PATTERN.match(label_name):
                    raise ValueError(f"invalid label name {label_name!r}")
            with self._lock:
                child = self._children.get(key)
                if child is None:
                    child = self._make_child()
                    self._children[key] = child
        return child

    def _make_child(self):
        stripes = self._registry.stripes
        if self.kind == "counter":
            return Counter(stripes)
        if self.kind == "gauge":
            return Gauge()
        return Histogram(self.buckets or DEFAULT_BUCKETS, stripes)

    def samples(self) -> List[Tuple[Tuple[Tuple[str, str], ...], object]]:
        """Every (label_key, child) pair, in insertion order."""
        with self._lock:
            return list(self._children.items())

    # -- unlabeled passthrough -------------------------------------------------

    def _default(self):
        child = self._unlabeled
        if child is None:
            child = self._unlabeled = self.labels()
        return child

    def inc(self, amount: float = 1) -> None:
        self._default().inc(amount)

    def set(self, value: float) -> None:
        self._default().set(value)

    def set_max(self, value: float) -> None:
        self._default().set_max(value)

    def dec(self, amount: float = 1) -> None:
        self._default().dec(amount)

    def set_function(self, function: Callable[[], float]) -> None:
        self._default().set_function(function)

    def observe(self, value: float) -> None:
        self._default().observe(value)

    def merged(self):
        return self._default().merged()

    @property
    def value(self) -> float:
        return self._default().value

    @property
    def count(self) -> int:
        return self._default().count

    @property
    def sum(self) -> float:
        return self._default().sum


class MetricsRegistry:
    """Families keyed by name; re-registration returns the existing one."""

    #: Real registries answer True so hot paths can skip work entirely.
    enabled = True

    def __init__(self, stripes: int = DEFAULT_STRIPES):
        if stripes < 1:
            raise ValueError("stripes must be at least 1")
        self.stripes = int(stripes)
        self._families: Dict[str, MetricFamily] = {}
        self._lock = threading.Lock()

    def _family(self, name: str, kind: str, help: str,
                buckets: Optional[Sequence[float]] = None) -> MetricFamily:
        family = self._families.get(name)
        if family is not None:
            if family.kind != kind:
                raise ValueError(
                    f"metric {name!r} is already registered as a "
                    f"{family.kind}, not a {kind}"
                )
            return family
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = MetricFamily(self, name, kind, help, buckets)
                self._families[name] = family
            return family

    def counter(self, name: str, help: str = "") -> MetricFamily:
        return self._family(name, "counter", help)

    def gauge(self, name: str, help: str = "") -> MetricFamily:
        return self._family(name, "gauge", help)

    def histogram(self, name: str, help: str = "",
                  buckets: Optional[Sequence[float]] = None) -> MetricFamily:
        return self._family(name, "histogram", help, buckets)

    def get(self, name: str) -> Optional[MetricFamily]:
        return self._families.get(name)

    def families(self) -> List[MetricFamily]:
        with self._lock:
            return [self._families[name] for name in sorted(self._families)]

    # -- persistence -----------------------------------------------------------

    def snapshot(self) -> dict:
        """Counters and histograms as a JSON-safe dict (gauges are live).

        Label keys are JSON-encoded sorted pair lists so the snapshot
        round-trips through the checkpoint manifest unchanged.
        """
        counters: Dict[str, Dict[str, float]] = {}
        histograms: Dict[str, dict] = {}
        for family in self.families():
            if family.kind == "counter":
                values = {
                    json.dumps(key): child.value
                    for key, child in family.samples()
                }
                if values:
                    counters[family.name] = values
            elif family.kind == "histogram":
                children = {}
                for key, child in family.samples():
                    raw = child._cells.merged()
                    children[json.dumps(key)] = {
                        "counts": raw[:-1],
                        "sum": raw[-1],
                    }
                if children:
                    histograms[family.name] = {
                        "buckets": list(child.buckets),
                        "children": children,
                    }
        return {"version": 1, "counters": counters, "histograms": histograms}

    def restore(self, state: Mapping) -> None:
        """Seed counters/histograms from a :meth:`snapshot` so they
        continue monotonically after a resume.  Unknown families are
        registered on the fly (their help text arrives when the
        instrumented layer re-registers them)."""
        if not state:
            return
        for name, values in dict(state.get("counters", {})).items():
            family = self.counter(name)
            for key_json, value in values.items():
                labels = dict(tuple(pair) for pair in json.loads(key_json))
                family.labels(**labels)._cells.seed([float(value)])
        for name, payload in dict(state.get("histograms", {})).items():
            family = self.histogram(
                name, buckets=payload.get("buckets") or None
            )
            for key_json, cells in payload["children"].items():
                labels = dict(tuple(pair) for pair in json.loads(key_json))
                child = family.labels(**labels)
                child._cells.seed(
                    list(cells["counts"]) + [float(cells["sum"])]
                )


class _NullMetric:
    """The one no-op child: mutators are empty, reads are zero.

    A single module-level instance stands in for every counter, gauge and
    histogram of the :class:`NullRegistry`, so disabled instrumentation
    performs one attribute call and allocates nothing per event.
    """

    __slots__ = ()

    def labels(self, **labels):
        return self

    def inc(self, amount: float = 1) -> None:
        pass

    def dec(self, amount: float = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def set_max(self, value: float) -> None:
        pass

    def set_function(self, function) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    @property
    def value(self) -> float:
        return 0.0

    @property
    def count(self) -> int:
        return 0

    @property
    def sum(self) -> float:
        return 0.0

    def samples(self) -> list:
        return []


NULL_METRIC = _NullMetric()


class NullRegistry:
    """The zero-cost default: every family is the shared no-op metric."""

    enabled = False
    stripes = 1

    def counter(self, name: str, help: str = "") -> _NullMetric:
        return NULL_METRIC

    def gauge(self, name: str, help: str = "") -> _NullMetric:
        return NULL_METRIC

    def histogram(self, name: str, help: str = "",
                  buckets: Optional[Sequence[float]] = None) -> _NullMetric:
        return NULL_METRIC

    def get(self, name: str) -> None:
        return None

    def families(self) -> list:
        return []

    def snapshot(self) -> dict:
        return {}

    def restore(self, state: Mapping) -> None:
        pass


NULL_REGISTRY = NullRegistry()
