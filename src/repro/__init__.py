"""repro — a reproduction of EnBlogue (SIGMOD 2011).

EnBlogue detects *emergent topics* in Web 2.0 streams: pairs of tags whose
correlation suddenly shifts in a way that cannot be predicted from their
history.  The library reproduces the complete system described in the
paper — the push-based stream engine, the three-stage detection pipeline
(seed selection, correlation tracking, shift detection), entity tagging,
personalization and the push-based front end — together with synthetic
stand-ins for the demo's data sources and a TwitterMonitor-style baseline.

Quickstart::

    from repro import EnBlogue, EnBlogueConfig
    from repro.datasets import TweetStreamGenerator

    corpus, events = TweetStreamGenerator(hours=48).generate()
    engine = EnBlogue(EnBlogueConfig(window_horizon=86400.0,
                                     evaluation_interval=3600.0))
    engine.process_many(corpus)
    print(engine.current_ranking().describe(k=5))
"""

from repro.core.config import EnBlogueConfig, live_stream_config, news_archive_config
from repro.core.engine import EnBlogue
from repro.core.personalization import PersonalizationEngine, UserProfile
from repro.core.types import EmergentTopic, Ranking, TagPair
from repro.persistence import load_engine
from repro.serving import DetectionService, RankingServer
from repro.sharding import ShardedEnBlogue
from repro.streams.item import StreamItem

__version__ = "1.3.0"

__all__ = [
    "EnBlogue",
    "ShardedEnBlogue",
    "DetectionService",
    "RankingServer",
    "load_engine",
    "EnBlogueConfig",
    "news_archive_config",
    "live_stream_config",
    "TagPair",
    "EmergentTopic",
    "Ranking",
    "UserProfile",
    "PersonalizationEngine",
    "StreamItem",
    "__version__",
]
