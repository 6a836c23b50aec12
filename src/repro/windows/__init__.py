"""Sliding-window statistics substrate.

EnBlogue's seed-tag selection and correlation tracking both rely on
sliding-window statistics over the document stream (Section 3 of the paper:
"Popularity is easy to measure as it merely requires computing a
sliding-window average on the document stream").  This package provides the
windowed per-tag document counts (:class:`TagFrequencyWindow`, the one
window the engines keep), exponential decay (used by the shift scorer with
a half-life of roughly two days) and the small time-series container behind
the correlation histories.
"""

from repro.windows.aggregates import TagFrequencyWindow
from repro.windows.decay import ExponentialDecay, DecayedMaximum, half_life_to_lambda
from repro.windows.timeseries import TimeSeries

__all__ = [
    "TagFrequencyWindow",
    "ExponentialDecay",
    "DecayedMaximum",
    "half_life_to_lambda",
    "TimeSeries",
]
