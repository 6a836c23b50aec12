"""Configuration of the enBlogue pipeline.

All tunables of the three stages live in one frozen dataclass so a complete
parameter setting can be named, compared and run side by side — the demo
"allows executing multiple query plans in parallel ... to compare emergent
topic rankings obtained from different parameter settings in real-time".
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, Optional

from repro.windows.decay import TWO_DAYS_SECONDS

#: Seconds per hour / day, for readable configuration values.
HOUR = 3600.0
DAY = 86400.0


@dataclass(frozen=True)
class EnBlogueConfig:
    """Parameters of the three-stage pipeline.

    Stage (i): ``seed_criterion`` ("popularity", "volatility" or "hybrid"),
    ``num_seeds`` and ``window_horizon`` (the sliding window from which tag
    popularity is measured).

    Stage (ii): ``correlation_measure`` ("jaccard", "overlap", "cosine",
    "pmi" or "kl") and ``min_pair_support`` (candidate pairs with fewer
    co-occurring documents in the window are ignored).

    Stage (iii): ``predictor`` ("last", "moving_average", "ewma", "linear",
    "holt"), ``history_length`` (number of past correlation values handed to
    the predictor), ``decay_half_life`` (the exponential decline of past
    prediction errors, "approximately 2 days" in the paper) and ``top_k``.

    ``evaluation_interval`` is the stream-time period between two
    re-evaluations of correlations and rankings (one hour by default).
    ``use_entities`` switches the pipeline between regular-tag mode and the
    combined tag/entity mode described in the Entity Tagging subsection.
    ``max_ranking_history`` bounds how many published rankings the engine
    retains (``None`` keeps every ranking, which suits replayed archives;
    long-running live streams should set a finite bound).
    """

    window_horizon: float = DAY
    evaluation_interval: float = HOUR
    seed_criterion: str = "popularity"
    num_seeds: int = 25
    min_seed_count: int = 3
    correlation_measure: str = "jaccard"
    min_pair_support: int = 2
    predictor: str = "moving_average"
    predictor_window: int = 6
    history_length: int = 24
    min_history: int = 3
    decay_half_life: float = TWO_DAYS_SECONDS
    top_k: int = 10
    use_entities: bool = True
    max_ranking_history: Optional[int] = None
    name: str = "default"

    def __post_init__(self) -> None:
        if self.window_horizon <= 0:
            raise ValueError("window_horizon must be positive")
        if self.evaluation_interval <= 0:
            raise ValueError("evaluation_interval must be positive")
        if self.evaluation_interval > self.window_horizon:
            raise ValueError(
                "evaluation_interval must not exceed window_horizon"
            )
        if self.num_seeds <= 0:
            raise ValueError("num_seeds must be positive")
        if self.min_seed_count < 1:
            raise ValueError("min_seed_count must be at least 1")
        if self.min_pair_support < 1:
            raise ValueError("min_pair_support must be at least 1")
        if self.history_length < 2:
            raise ValueError("history_length must be at least 2")
        if self.min_history < 1:
            raise ValueError("min_history must be at least 1")
        if self.decay_half_life <= 0:
            raise ValueError("decay_half_life must be positive")
        if self.top_k <= 0:
            raise ValueError("top_k must be positive")
        if self.predictor_window <= 0:
            raise ValueError("predictor_window must be positive")
        if self.max_ranking_history is not None and self.max_ranking_history < 1:
            raise ValueError("max_ranking_history must be at least 1 (or None)")
        if self.seed_criterion not in ("popularity", "volatility", "hybrid"):
            raise ValueError(
                "seed_criterion must be 'popularity', 'volatility' or 'hybrid'"
            )

    def with_overrides(self, **overrides: Any) -> "EnBlogueConfig":
        """A copy of this configuration with some fields replaced."""
        return replace(self, **overrides)

    def describe(self) -> Dict[str, Any]:
        """Flat dictionary of the parameters (for reports and benchmarks)."""
        return {
            "name": self.name,
            "window_horizon": self.window_horizon,
            "evaluation_interval": self.evaluation_interval,
            "seed_criterion": self.seed_criterion,
            "num_seeds": self.num_seeds,
            "correlation_measure": self.correlation_measure,
            "predictor": self.predictor,
            "history_length": self.history_length,
            "decay_half_life": self.decay_half_life,
            "top_k": self.top_k,
            "use_entities": self.use_entities,
            "max_ranking_history": self.max_ranking_history,
        }


def news_archive_config(name: str = "news-archive") -> EnBlogueConfig:
    """Configuration suited to the daily-granularity NYT-style archive."""
    return EnBlogueConfig(
        name=name,
        window_horizon=7 * DAY,
        evaluation_interval=DAY,
        num_seeds=20,
        predictor="moving_average",
        predictor_window=5,
        history_length=21,
        decay_half_life=2 * DAY,
        top_k=10,
    )


def live_stream_config(name: str = "live-stream") -> EnBlogueConfig:
    """Configuration suited to the hourly-granularity tweet/RSS streams."""
    return EnBlogueConfig(
        name=name,
        window_horizon=2 * DAY,
        evaluation_interval=HOUR,
        num_seeds=30,
        predictor="ewma",
        history_length=48,
        decay_half_life=2 * DAY,
        top_k=10,
        # A week of hourly rankings: live streams run indefinitely, so the
        # ranking history must not grow with stream length.
        max_ranking_history=7 * 24,
    )
