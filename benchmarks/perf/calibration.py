"""Speed normalisation: a frozen pure-Python kernel timed beside the work.

This VM's speed moves in waves (the same replay round swings by 1.6x and
more for tens of seconds), so a raw time says more about the minute it was
taken in than about the code.  The kernel below is timed in slices
interleaved with the measured work; every time metric is reported as
``raw * (CAL_REF_MS / observed kernel time)``, i.e. as the time the work
would have taken on a host on which the kernel takes ``CAL_REF_MS``.

The kernel is a miniature of the engine's hot path — sliding-window pair
counting: tuples allocated per document, a dict of pair counts, a deque of
events evicted from the other end — over a working set of some 20 MB.  A
cache-resident arithmetic loop was tried first and tracks the engine worse:
it slows *more* than the engine when the sibling core is busy and *less*
when a neighbour thrashes the cache (mis-corrections of -22 % to +30 %
against +12 % to +19 % for this kernel in the same disturbed phases).

A server in its own process is calibrated by the same kernel run beside it
(``python -m benchmarks.perf.calibration``, the *sidecar*): on the server's
core, at the lowest priority so the server pre-empts it at once, timed in
its own CPU time so that being pre-empted does not count.

The kernel is frozen: changing it, or a reference time, re-bases every time
metric and therefore needs the baseline re-recorded.
"""

from __future__ import annotations

import json
import os
import random
import signal
import time
from collections import deque
from statistics import median
from typing import Callable, List, Sequence

#: Kernel time (ms) all time metrics are normalised to: the calm-phase
#: median on the VM the baseline was recorded on.
CAL_REF_MS = 1.25

#: The same for the sidecar: CPU time of a slice that shares its core, and
#: so its cache, with a working server.
SIDECAR_REF_MS = 1.75

#: Pause between two sidecar slices (a 3-4 % claim on the core at most).
SIDECAR_PERIOD_S = 0.05

#: A slice slower than this multiple of the reference counts as disturbed.
DISTURBED_FACTOR = 1.15

_TAGS = 4000
_DOCUMENTS = 60000
_WINDOW = 20000
_SLICE = 400
_WARM_SLICES = 150


class Kernel:
    """The calibration workload; one instance per measuring process."""

    def __init__(self) -> None:
        rng = random.Random(5)
        tags = [f"tag{index}" for index in range(_TAGS)]
        self._documents = [
            tuple(sorted(rng.sample(tags, rng.randint(2, 4))))
            for _ in range(_DOCUMENTS)
        ]
        self._position = 0
        self._events: deque = deque()
        self._counts: dict = {}
        # Fill the window, so every timed slice evicts as much as it adds.
        for _ in range(_WARM_SLICES):
            self.run()

    def run(self) -> None:
        """One slice: ingest 400 documents into the sliding window (~1.2 ms)."""
        events = self._events
        counts = self._counts
        get = counts.get
        position = self._position
        for tags in self._documents[position:position + _SLICE]:
            pairs = [(a, b) for i, a in enumerate(tags) for b in tags[i + 1:]]
            for pair in pairs:
                counts[pair] = get(pair, 0) + 1
            events.append(pairs)
            if len(events) > _WINDOW:
                for pair in events.popleft():
                    count = counts[pair] - 1
                    if count:
                        counts[pair] = count
                    else:
                        del counts[pair]
        self._position = (position + _SLICE) % (_DOCUMENTS - _SLICE)

    def live_pairs(self) -> int:
        """Distinct pairs in the window (a fingerprint of the frozen state)."""
        return len(self._counts)

    def time_slice(self, clock: Callable[[], float] = time.perf_counter
                   ) -> float:
        """Seconds one slice takes right now."""
        start = clock()
        self.run()
        return clock() - start

    def sample(self, count: int) -> List[float]:
        """``count`` back-to-back slices (seconds each)."""
        return [self.time_slice() for _ in range(count)]


class Stopwatch:
    """Times a stretch of work that calls :meth:`pulse` now and then.

    Every pulse runs one kernel slice; the slices' own time is taken out of
    the elapsed time, and their median says how fast the host was *during*
    the work, which slices before and after it do not (a speed wave lasts
    seconds, a set-up too).
    """

    def __init__(self, kernel: Kernel,
                 clock: Callable[[], float] = time.perf_counter):
        self._kernel = kernel
        self._clock = clock
        self.slices: List[float] = []
        self._start = clock()
        self.pulse()

    def pulse(self) -> None:
        self.slices.append(self._kernel.time_slice(self._clock))

    def stop(self) -> float:
        """Seconds since construction, slices excluded, speed-normalised."""
        self.pulse()
        elapsed = self._clock() - self._start - sum(self.slices)
        return normalise(elapsed, observed_ms(self.slices))


def observed_ms(slices: Sequence[float]) -> float:
    """The kernel time (ms) a set of slices stands for: their median."""
    return median(slices) * 1e3


def normalise(raw: float, cal_observed_ms: float,
              cal_ref_ms: float = CAL_REF_MS) -> float:
    """``raw`` rescaled to the reference host speed."""
    return raw * (cal_ref_ms / cal_observed_ms)


def disturbed_share(observed: Sequence[float],
                    cal_ref_ms: float = CAL_REF_MS) -> float:
    """Share of kernel observations (ms) slower than 1.15 x the reference."""
    if not observed:
        return 0.0
    limit = DISTURBED_FACTOR * cal_ref_ms
    return sum(1 for value in observed if value > limit) / len(observed)


def sidecar() -> None:
    """Slices until SIGTERM, then every ``[start, cpu_seconds]`` as JSON.

    ``start`` is ``time.perf_counter()`` — ``CLOCK_MONOTONIC``, the time
    base the load generator stamps its requests with.
    """
    os.nice(19)
    kernel = Kernel()
    stopping: List[int] = []
    signal.signal(signal.SIGTERM, lambda *_: stopping.append(1))
    print("ready", flush=True)
    samples = []
    while not stopping:
        start = time.perf_counter()
        samples.append([start, kernel.time_slice(time.thread_time)])
        time.sleep(SIDECAR_PERIOD_S)
    print(json.dumps(samples), flush=True)


if __name__ == "__main__":
    sidecar()
