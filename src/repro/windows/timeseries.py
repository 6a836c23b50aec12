"""A small timestamped series container.

Correlation histories, popularity curves and the Figure 1 reproduction all
need an ordered list of ``(timestamp, value)`` observations with a couple of
convenience operations (slicing by time, resampling onto a regular grid,
simple statistics).  Keeping this in one place avoids each consumer juggling
parallel lists.
"""

from __future__ import annotations

import bisect
import math
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple


class TimeSeries:
    """An append-only series of ``(timestamp, value)`` pairs.

    Timestamps must be appended in non-decreasing order; the stream sources
    in this library all emit time-ordered documents so the restriction never
    bites in practice and keeps lookups logarithmic.

    With ``maxlen`` set the series becomes a bounded ring buffer: appends
    beyond the bound drop the oldest point, so long-running streams (e.g.
    the per-pair correlation histories) hold at most ``maxlen`` points.
    """

    def __init__(
        self,
        points: Optional[Iterable[Tuple[float, float]]] = None,
        maxlen: Optional[int] = None,
    ) -> None:
        if maxlen is not None and maxlen < 1:
            raise ValueError("maxlen must be at least 1")
        self._maxlen = maxlen
        self._timestamps: List[float] = []
        self._values: List[float] = []
        if points is not None:
            for timestamp, value in points:
                self.append(timestamp, value)

    @property
    def maxlen(self) -> Optional[int]:
        """The bound of the ring buffer (None when unbounded)."""
        return self._maxlen

    @classmethod
    def from_points(
        cls,
        timestamps: List[float],
        values: List[float],
        maxlen: Optional[int] = None,
    ) -> "TimeSeries":
        """A series adopting two parallel, time-ordered lists of floats.

        The bulk constructor for callers that already hold a whole series
        (a snapshot, a columnar history row): the lists are adopted, not
        copied or re-validated point by point, so the caller must not
        keep mutating them.  Only the newest ``maxlen`` points are kept.
        """
        if len(timestamps) != len(values):
            raise ValueError("timestamps and values differ in length")
        series = cls(maxlen=maxlen)
        if maxlen is not None and len(timestamps) > maxlen:
            timestamps = timestamps[-maxlen:]
            values = values[-maxlen:]
        series._timestamps = timestamps
        series._values = values
        return series

    def __len__(self) -> int:
        return len(self._timestamps)

    def __bool__(self) -> bool:
        return bool(self._timestamps)

    def __iter__(self) -> Iterator[Tuple[float, float]]:
        return iter(zip(self._timestamps, self._values))

    def __getitem__(self, index: int) -> Tuple[float, float]:
        return self._timestamps[index], self._values[index]

    def append(self, timestamp: float, value: float) -> None:
        if self._timestamps and timestamp < self._timestamps[-1]:
            raise ValueError(
                f"out-of-order append: {timestamp} < {self._timestamps[-1]}"
            )
        self._timestamps.append(float(timestamp))
        self._values.append(float(value))
        # Ring-buffer bound: maxlen values are small (tens of points), so the
        # front drop stays cheap while keeping memory constant over the run.
        if self._maxlen is not None and len(self._timestamps) > self._maxlen:
            del self._timestamps[0]
            del self._values[0]

    @property
    def timestamps(self) -> Sequence[float]:
        return tuple(self._timestamps)

    @property
    def values(self) -> Sequence[float]:
        return tuple(self._values)

    def last(self) -> Tuple[float, float]:
        if not self._timestamps:
            raise IndexError("empty time series")
        return self._timestamps[-1], self._values[-1]

    def value_at(self, timestamp: float) -> float:
        """Most recent value at or before ``timestamp`` (step interpolation)."""
        if not self._timestamps:
            raise IndexError("empty time series")
        index = bisect.bisect_right(self._timestamps, timestamp) - 1
        if index < 0:
            raise KeyError(f"no observation at or before {timestamp}")
        return self._values[index]

    def between(self, start: float, end: float) -> "TimeSeries":
        """Sub-series with ``start <= timestamp <= end``."""
        if end < start:
            raise ValueError("end must not precede start")
        lo = bisect.bisect_left(self._timestamps, start)
        hi = bisect.bisect_right(self._timestamps, end)
        series = TimeSeries()
        series._timestamps = self._timestamps[lo:hi]
        series._values = self._values[lo:hi]
        return series

    def tail(self, n: int) -> List[float]:
        """The last ``n`` values (fewer if the series is shorter)."""
        if n <= 0:
            return []
        return list(self._values[-n:])

    def tail_points(self, n: int) -> Tuple[List[float], List[float]]:
        """The last ``n`` points as ``(timestamps, values)`` lists."""
        if n <= 0:
            return [], []
        return list(self._timestamps[-n:]), list(self._values[-n:])

    def previous_values(self) -> List[float]:
        """Every value except the most recent one (empty when len < 2).

        This is the history a one-step-ahead predictor may see after the
        current observation has been appended; a single slice instead of the
        tuple-copy-then-trim dance the callers would otherwise do.
        """
        return self._values[:-1]

    def resample(self, start: float, end: float, step: float) -> "TimeSeries":
        """Sample the series on a regular grid using step interpolation."""
        if step <= 0:
            raise ValueError("step must be positive")
        if end < start:
            raise ValueError("end must not precede start")
        series = TimeSeries()
        t = start
        while t <= end + 1e-9:
            try:
                value = self.value_at(t)
            except (KeyError, IndexError):
                value = 0.0
            series.append(t, value)
            t += step
        return series

    def mean(self) -> float:
        if not self._values:
            return 0.0
        return sum(self._values) / len(self._values)

    def std(self) -> float:
        if len(self._values) < 2:
            return 0.0
        mu = self.mean()
        variance = sum((v - mu) ** 2 for v in self._values) / (len(self._values) - 1)
        return math.sqrt(variance)

    def max(self) -> float:
        if not self._values:
            return 0.0
        return max(self._values)

    def min(self) -> float:
        if not self._values:
            return 0.0
        return min(self._values)

    def diff(self) -> "TimeSeries":
        """First differences: value[i] - value[i-1] stamped at timestamp[i]."""
        series = TimeSeries()
        for i in range(1, len(self._values)):
            series.append(self._timestamps[i], self._values[i] - self._values[i - 1])
        return series
