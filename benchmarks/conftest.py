"""Shared fixtures and helpers for the benchmark harness.

Every benchmark regenerates one artefact of the paper (Figure 1, one of the
three demonstration show cases, the related-work contrast, or an ablation
of a design choice) and prints the corresponding rows/series;
``bench_overhead.py`` gates the cost of the observability layer.  Run
with ``pytest benchmarks/ --benchmark-only``; add ``-s`` to see the
printed tables.
"""

from __future__ import annotations

import pytest

from repro.core.config import EnBlogueConfig
from repro.datasets.nyt import NytArchiveGenerator
from repro.datasets.twitter import TweetStreamGenerator

HOUR = 3600.0
DAY = 86400.0


def archive_config(**overrides) -> EnBlogueConfig:
    """Daily-granularity configuration used for the NYT-style archive."""
    defaults = dict(
        window_horizon=7 * DAY, evaluation_interval=DAY,
        num_seeds=20, min_seed_count=2, min_pair_support=2, min_history=3,
        predictor="moving_average", predictor_window=5,
        decay_half_life=2 * DAY, top_k=10, name="nyt-archive",
    )
    defaults.update(overrides)
    return EnBlogueConfig(**defaults)


def live_config(**overrides) -> EnBlogueConfig:
    """Hourly-granularity configuration used for tweet/RSS streams."""
    defaults = dict(
        window_horizon=24 * HOUR, evaluation_interval=HOUR,
        num_seeds=20, min_seed_count=1, min_pair_support=1, min_history=2,
        predictor="ewma", decay_half_life=2 * DAY, top_k=10, name="live",
    )
    defaults.update(overrides)
    return EnBlogueConfig(**defaults)


@pytest.fixture(scope="session")
def nyt_archive():
    """A compressed NYT-style archive shared by the archive benchmarks."""
    return NytArchiveGenerator(years=0.5, articles_per_day=16, seed=19).generate()


@pytest.fixture(scope="session")
def tweet_stream():
    """A three-day synthetic tweet stream shared by the live benchmarks."""
    return TweetStreamGenerator(hours=72, tweets_per_hour=40, seed=29).generate()
