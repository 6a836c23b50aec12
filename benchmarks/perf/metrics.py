"""The metrics ``BENCHMARK.json`` declares, as the code uses them.

``BENCHMARK.json`` at the repo root is the one place that fixes names, units,
directions, bounds and the run length; ``README.md`` says what each metric
means.  A bound is the share of the parent's median by which an end-to-end
metric may get worse before a change counts as a regression; per-layer
metrics have none.
"""

from __future__ import annotations

import json
from typing import Dict, List, NamedTuple, Optional

from . import REPO_ROOT


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    bound: Optional[float]


with open(REPO_ROOT / "BENCHMARK.json", encoding="utf-8") as _handle:
    _DECLARED = json.load(_handle)

#: How long one run measures, in seconds.
RUN_SECONDS: int = _DECLARED["run_seconds"]

END_TO_END: List[Metric] = [
    Metric(entry["name"], entry["unit"], entry["better"], entry["bound"])
    for entry in _DECLARED["end_to_end"]
]

PER_LAYER: List[Metric] = [
    Metric(entry["name"], entry["unit"], entry["better"], None)
    for entry in _DECLARED["per_layer"]
]


def zero_filled(metrics: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric: a layer a workload never enters did no work."""
    unknown = set(metrics) - {metric.name for metric in PER_LAYER}
    if unknown:
        raise KeyError(f"undeclared per-layer metrics: {sorted(unknown)}")
    return {metric.name: metrics.get(metric.name, 0.0) for metric in PER_LAYER}
