"""Sliding-window statistics substrate.

EnBlogue's seed-tag selection and correlation tracking both rely on
sliding-window statistics over the document stream (Section 3 of the paper:
"Popularity is easy to measure as it merely requires computing a
sliding-window average on the document stream").  This package provides the
window containers, windowed aggregates, exponential decay (used by the shift
scorer with a half-life of roughly two days) and a small time-series
container shared by the rest of the library.
"""

from repro.windows.sliding import CountSlidingWindow, TimeSlidingWindow, WindowEntry
from repro.windows.aggregates import (
    SlidingAverage,
    SlidingCounter,
    SlidingSum,
    TagFrequencyWindow,
)
from repro.windows.decay import ExponentialDecay, DecayedMaximum, half_life_to_lambda
from repro.windows.timeseries import TimeSeries

__all__ = [
    "CountSlidingWindow",
    "TimeSlidingWindow",
    "WindowEntry",
    "SlidingAverage",
    "SlidingCounter",
    "SlidingSum",
    "TagFrequencyWindow",
    "ExponentialDecay",
    "DecayedMaximum",
    "half_life_to_lambda",
    "TimeSeries",
]
