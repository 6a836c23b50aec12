"""The statistics rules of the benchmark, in one place.

A timing is reported as its median plus a tail percentile, and a tail
percentile is only meaningful with at least ``MIN_BEYOND`` samples beyond
it — the p99 of 120 samples is its second-largest value, i.e. noise.
"""

from __future__ import annotations

import math
from statistics import median, quantiles
from typing import Optional, Sequence

#: Samples that must lie beyond a percentile for it to be reported.
MIN_BEYOND = 10

#: Tail percentiles tried, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


def _rank(count: int, p: float) -> int:
    """1-based nearest rank of percentile ``p`` among ``count`` samples."""
    # The guard keeps 99.9 % of 10,000 at rank 9,990, not 9,991.
    return max(1, math.ceil(p * count / 100.0 - 1e-9))


def percentile(samples: Sequence[float], p: float) -> float:
    """Nearest-rank percentile ``p`` (0 < p <= 100) of ``samples``."""
    if not samples:
        raise ValueError("percentile of no samples")
    if not 0 < p <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {p}")
    return sorted(samples)[_rank(len(samples), p) - 1]


def center(samples: Sequence[float]) -> float:
    """Median, or 0 for a layer that recorded nothing."""
    return median(samples) if samples else 0.0


def tail(samples: Sequence[float], p: float) -> float:
    """Percentile ``p``, or 0 for a layer that recorded nothing."""
    return percentile(samples, p) if samples else 0.0


def samples_beyond(count: int, p: float) -> int:
    """How many of ``count`` samples lie beyond nearest-rank percentile ``p``."""
    return count - _rank(count, p)


def supported_tail(count: int) -> Optional[float]:
    """The highest tail percentile with >= ``MIN_BEYOND`` samples beyond it."""
    for p in TAIL_PERCENTILES:
        if samples_beyond(count, p) >= MIN_BEYOND:
            return p
    return None


def calm_tail(samples: Sequence[float], p: float) -> float:
    """Percentile ``p`` in the calmest stretch of a time-ordered series.

    The series is cut into as many consecutive windows as leave each one
    ``MIN_BEYOND`` samples beyond ``p``; the result is the lowest of the
    windows' percentiles (0 for no samples).  A disturbance of the host only
    ever adds latency, so the lowest window is the one it touched least; a
    change that slows the tail itself moves every window.
    """
    if not samples:
        return 0.0
    window = math.ceil(MIN_BEYOND * 100.0 / (100.0 - p))
    windows = max(1, len(samples) // window)
    size = len(samples) // windows
    return min(
        percentile(samples[index * size:(index + 1) * size], p)
        for index in range(windows)
    )


def summarize(samples: Sequence[float]) -> dict:
    """Median, sample count and the highest supported tail of a timing."""
    tail = supported_tail(len(samples))
    return {
        "count": len(samples),
        "p50": center(samples),
        "tail": tail,
        "tail_value": None if tail is None else percentile(samples, tail),
    }


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (the driver's rule)."""
    first, middle, third = quantiles(values, n=4)
    return (third - first) / middle
