"""Time-based and count-based sliding windows.

Both window types store ``WindowEntry`` objects (a timestamp plus an
arbitrary value) in arrival order and evict expired entries lazily on
insertion or when the window is advanced explicitly.  They are the building
blocks for the windowed aggregates in :mod:`repro.windows.aggregates` and
for the per-pair statistics kept by the correlation tracker.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Iterator, List, Optional


@dataclass(frozen=True)
class WindowEntry:
    """A single timestamped observation held inside a sliding window."""

    timestamp: float
    value: Any = 1.0

    def __post_init__(self) -> None:
        if self.timestamp < 0:
            raise ValueError("timestamp must be non-negative")


def require_ordered(
    timestamp: float, latest: Optional[float], complaint: str
) -> None:
    """Reject a timestamp behind a window's clock, NaN included: negated
    >=, and a first timestamp held against itself, so NaN fails the check
    instead of passing it and switching it (and eviction) off for good."""
    if not timestamp >= (timestamp if latest is None else latest):
        raise ValueError(f"{complaint}: {timestamp} < {latest}")


class TimeSlidingWindow:
    """Sliding window holding all entries newer than ``horizon`` time units.

    The window is half-open: an entry with timestamp ``t`` is retained while
    ``now - t < horizon``.  Entries must be appended in non-decreasing
    timestamp order, which matches the push-based stream model of the paper
    (documents arrive ordered by publication time).
    """

    def __init__(self, horizon: float):
        if horizon <= 0:
            raise ValueError("window horizon must be positive")
        self.horizon = float(horizon)
        self._entries: Deque[WindowEntry] = deque()
        self._latest: Optional[float] = None

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[WindowEntry]:
        return iter(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)

    @property
    def latest_timestamp(self) -> Optional[float]:
        """Timestamp of the most recent insertion or explicit advance."""
        return self._latest

    def append(self, timestamp: float, value: Any = 1.0) -> None:
        """Insert a new observation and evict anything that has expired."""
        require_ordered(timestamp, self._latest, "out-of-order insertion")
        self._entries.append(WindowEntry(timestamp, value))
        self._latest = timestamp
        self._evict(timestamp)

    def advance_to(self, timestamp: float) -> None:
        """Move the window's notion of "now" forward without inserting."""
        require_ordered(timestamp, self._latest, "cannot advance backwards")
        self._latest = timestamp
        self._evict(timestamp)

    def values(self) -> List[Any]:
        """Return the values currently inside the window, oldest first."""
        return [entry.value for entry in self._entries]

    def timestamps(self) -> List[float]:
        """Return the timestamps currently inside the window, oldest first."""
        return [entry.timestamp for entry in self._entries]

    def count(self, predicate: Optional[Callable[[Any], bool]] = None) -> int:
        """Number of live entries, optionally filtered by ``predicate``."""
        if predicate is None:
            return len(self._entries)
        return sum(1 for entry in self._entries if predicate(entry.value))

    def clear(self) -> None:
        """Drop all entries but keep the current clock position."""
        self._entries.clear()

    def span(self) -> float:
        """Time covered by the live entries (0.0 when fewer than two)."""
        if len(self._entries) < 2:
            return 0.0
        return self._entries[-1].timestamp - self._entries[0].timestamp

    def _evict(self, now: float) -> None:
        cutoff = now - self.horizon
        while self._entries and self._entries[0].timestamp <= cutoff:
            self._entries.popleft()


class CountSlidingWindow:
    """Sliding window holding the most recent ``capacity`` entries."""

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ValueError("window capacity must be positive")
        self.capacity = int(capacity)
        self._entries: Deque[WindowEntry] = deque(maxlen=self.capacity)
        self._latest: Optional[float] = None

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[WindowEntry]:
        return iter(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)

    @property
    def latest_timestamp(self) -> Optional[float]:
        return self._latest

    @property
    def full(self) -> bool:
        """True once the window has reached its capacity."""
        return len(self._entries) == self.capacity

    def append(self, timestamp: float, value: Any = 1.0) -> None:
        require_ordered(timestamp, self._latest, "out-of-order insertion")
        self._entries.append(WindowEntry(timestamp, value))
        self._latest = timestamp

    def values(self) -> List[Any]:
        return [entry.value for entry in self._entries]

    def timestamps(self) -> List[float]:
        return [entry.timestamp for entry in self._entries]

    def clear(self) -> None:
        self._entries.clear()
