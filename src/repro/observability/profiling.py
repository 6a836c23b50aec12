"""A dependency-free wall-clock sampling profiler over the live process.

The :class:`SamplingProfiler` answers "*where* is the serving stack
spending its time right now" without cProfile's per-call overhead or
any third-party agent: a background daemon thread wakes at a fixed
interval (default 100 Hz), snapshots every thread's current Python
frame via ``sys._current_frames()``, folds each stack into the
flamegraph "collapsed" form (``root;caller;...;leaf``, outermost frame
first) and counts how often each folded stack was seen.

Sampling never touches the sampled threads — no signals, no sys
tracing hooks — so the engine's rankings stay bit-identical with the
profiler running; the only cost is the GIL time the sampler thread
itself takes (bounded by the interval, pinned by the <=5% profiling
gate in ``benchmarks/bench_overhead.py``).

``GET /profile?seconds=N`` serves a windowed diff of the counts in
collapsed text (pipe it straight into ``flamegraph.pl``) or JSON.  The
cumulative sample count rides :meth:`Observability.snapshot`, so a
resumed server's ``samples_total`` continues monotonically.
"""

from __future__ import annotations

import sys
import threading
from typing import Dict, Optional

#: Default sampling period: 100 Hz — coarse enough to be unmeasurable
#: on the replay workload, fine enough to attribute stage-level time.
DEFAULT_INTERVAL = 0.01

#: Hard cap on frames kept per stack; deeper frames (towards the root)
#: are folded into one ``...`` segment so a pathological recursion
#: cannot balloon the folded keys.
MAX_STACK_DEPTH = 64


def _fold(frame) -> str:
    """One thread's stack as a collapsed ``root;...;leaf`` string."""
    parts = []
    depth = 0
    while frame is not None and depth < MAX_STACK_DEPTH:
        code = frame.f_code
        parts.append(f"{code.co_name} ({code.co_filename}:{frame.f_lineno})")
        frame = frame.f_back
        depth += 1
    if frame is not None:
        parts.append("...")
    parts.reverse()
    return ";".join(parts)


class SamplingProfiler:
    """Folded-stack wall-clock sampler with a start/stop/snapshot API."""

    enabled = True

    def __init__(self, interval: float = DEFAULT_INTERVAL, registry=None):
        self.interval = float(interval)
        self._counts: Dict[str, int] = {}
        self._lock = threading.Lock()
        self._samples_total = 0
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._metric_samples = None
        if registry is not None and registry.enabled:
            self._metric_samples = registry.counter(
                "repro_profiling_samples_total",
                help="Stack samples captured by the wall-clock profiler.",
            )

    # -- lifecycle -------------------------------------------------------------

    @property
    def running(self) -> bool:
        thread = self._thread
        return thread is not None and thread.is_alive()

    def start(self, interval: Optional[float] = None) -> None:
        """Start the background sampler (idempotent while running)."""
        if self.running:
            return
        if interval is not None:
            if interval <= 0:
                raise ValueError("sampling interval must be positive")
            self.interval = float(interval)
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-profiler", daemon=True
        )
        self._thread.start()

    def ensure_running(self, interval: Optional[float] = None) -> bool:
        """Start if stopped; True when this call did the starting."""
        if self.running:
            return False
        self.start(interval)
        return True

    def stop(self) -> None:
        """Stop the sampler thread (counts are kept)."""
        thread = self._thread
        if thread is None:
            return
        self._stop.set()
        thread.join(timeout=5.0)
        self._thread = None

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self.sample_once()

    # -- sampling --------------------------------------------------------------

    def sample_once(self) -> int:
        """Take one sample of every thread now; returns stacks captured.

        Exposed for deterministic tests — the background loop calls the
        same method on its cadence.
        """
        me = threading.get_ident()
        frames = sys._current_frames()
        captured = 0
        with self._lock:
            for thread_id, frame in frames.items():
                if thread_id == me:
                    continue
                key = _fold(frame)
                self._counts[key] = self._counts.get(key, 0) + 1
                self._samples_total += 1
                captured += 1
        if self._metric_samples is not None and captured:
            self._metric_samples.inc(captured)
        return captured

    # -- export ----------------------------------------------------------------

    @property
    def samples_total(self) -> int:
        """Cumulative stacks captured across the process lifetime."""
        with self._lock:
            return self._samples_total

    def restore_samples(self, value: int) -> None:
        """Continue the cumulative count from a checkpoint (max-merge)."""
        with self._lock:
            self._samples_total = max(self._samples_total, int(value))

    def counts(self) -> Dict[str, int]:
        """A point-in-time copy of folded-stack → sample count."""
        with self._lock:
            return dict(self._counts)

    def counts_since(self, baseline: Dict[str, int]) -> Dict[str, int]:
        """Counts accumulated since ``baseline`` (a ``counts()`` copy)."""
        current = self.counts()
        return {
            stack: count - baseline.get(stack, 0)
            for stack, count in current.items()
            if count > baseline.get(stack, 0)
        }

    def clear(self) -> None:
        with self._lock:
            self._counts.clear()


def render_collapsed(counts: Dict[str, int]) -> str:
    """Folded counts in flamegraph collapsed format: ``stack count``.

    Stacks sort descending by count so the hottest path leads; the
    output pipes straight into Brendan Gregg's ``flamegraph.pl``.
    """
    lines = [
        f"{stack} {count}"
        for stack, count in sorted(
            counts.items(), key=lambda item: (-item[1], item[0])
        )
    ]
    return "\n".join(lines) + ("\n" if lines else "")


class NullProfiler:
    """The zero-cost default: never samples, readers are empty."""

    enabled = False
    running = False
    interval = DEFAULT_INTERVAL
    samples_total = 0

    def start(self, interval: Optional[float] = None) -> None:
        pass

    def ensure_running(self, interval: Optional[float] = None) -> bool:
        return False

    def stop(self) -> None:
        pass

    def sample_once(self) -> int:
        return 0

    def restore_samples(self, value: int) -> None:
        pass

    def counts(self) -> dict:
        return {}

    def counts_since(self, baseline) -> dict:
        return {}

    def clear(self) -> None:
        pass


NULL_PROFILER = NullProfiler()
