"""General time-series machinery used by the shift detector and baselines.

Section 2 of the paper notes that "dealing with time series in this general
sense is a sub-problem of our approach that arises in the second step of our
framework".  This package collects that machinery: one-step-ahead predictors
(the shift detector scores a tag pair by how far the observed correlation is
from the predicted one) and burst detection over single-tag frequency series
(the TwitterMonitor-style baseline).
"""

from repro.timeseries.predictors import (
    EwmaPredictor,
    HoltPredictor,
    LastValuePredictor,
    LinearTrendPredictor,
    MovingAveragePredictor,
    Predictor,
    make_predictor,
)
from repro.timeseries.bursts import BurstDetector, BurstEvent, MeanDeviationBurstModel

__all__ = [
    "Predictor",
    "LastValuePredictor",
    "MovingAveragePredictor",
    "EwmaPredictor",
    "LinearTrendPredictor",
    "HoltPredictor",
    "make_predictor",
    "BurstDetector",
    "BurstEvent",
    "MeanDeviationBurstModel",
]
