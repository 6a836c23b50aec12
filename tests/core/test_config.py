"""Tests for the pipeline configuration."""

import pytest

from repro.core.config import (
    DAY,
    HOUR,
    EnBlogueConfig,
    live_stream_config,
    news_archive_config,
)
from repro.windows.decay import TWO_DAYS_SECONDS


class TestEnBlogueConfig:
    def test_defaults_match_the_paper(self):
        config = EnBlogueConfig()
        # Seeds are popular tags; decline half-life is roughly two days.
        assert config.seed_criterion == "popularity"
        assert config.decay_half_life == TWO_DAYS_SECONDS
        assert config.top_k == 10

    def test_validation(self):
        with pytest.raises(ValueError):
            EnBlogueConfig(window_horizon=0.0)
        with pytest.raises(ValueError):
            EnBlogueConfig(evaluation_interval=0.0)
        with pytest.raises(ValueError):
            EnBlogueConfig(window_horizon=HOUR, evaluation_interval=DAY)
        with pytest.raises(ValueError):
            EnBlogueConfig(num_seeds=0)
        with pytest.raises(ValueError):
            EnBlogueConfig(min_pair_support=0)
        with pytest.raises(ValueError):
            EnBlogueConfig(history_length=1)
        with pytest.raises(ValueError):
            EnBlogueConfig(decay_half_life=0.0)
        with pytest.raises(ValueError):
            EnBlogueConfig(top_k=0)
        with pytest.raises(ValueError):
            EnBlogueConfig(seed_criterion="magic")
        with pytest.raises(ValueError):
            EnBlogueConfig(min_seed_count=0)
        with pytest.raises(ValueError):
            EnBlogueConfig(min_history=0)
        with pytest.raises(ValueError):
            EnBlogueConfig(predictor_window=0)

    def test_with_overrides_returns_new_config(self):
        config = EnBlogueConfig()
        other = config.with_overrides(top_k=5, name="variant")
        assert other.top_k == 5
        assert other.name == "variant"
        assert config.top_k == 10

    def test_with_overrides_still_validates(self):
        with pytest.raises(ValueError):
            EnBlogueConfig().with_overrides(top_k=0)

    def test_describe_is_flat(self):
        described = EnBlogueConfig(name="x").describe()
        assert described["name"] == "x"
        assert described["correlation_measure"] == "jaccard"

    @pytest.mark.parametrize("field,value", [
        ("tracking", "tiered"), ("promote_support", 3),
        ("sketch_width", 8192), ("sketch_depth", 4),
    ])
    def test_the_sketch_tier_fields_are_gone(self, field, value):
        # Exact tracking is the only pair tracker: no option selects a tier.
        with pytest.raises(TypeError):
            EnBlogueConfig(**{field: value})
        with pytest.raises(TypeError):
            EnBlogueConfig().with_overrides(**{field: value})
        assert field not in EnBlogueConfig().describe()

    def test_config_is_hashable_and_frozen(self):
        config = EnBlogueConfig()
        with pytest.raises(AttributeError):
            config.top_k = 3
        assert hash(config) == hash(EnBlogueConfig())


class TestPresets:
    def test_news_archive_preset(self):
        config = news_archive_config()
        assert config.evaluation_interval == DAY
        assert config.window_horizon == 7 * DAY

    def test_live_stream_preset(self):
        config = live_stream_config()
        assert config.evaluation_interval == HOUR
        assert config.window_horizon == 2 * DAY
