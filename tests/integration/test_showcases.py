"""Integration tests mirroring the paper's three demonstration show cases."""

import pytest

from repro.baselines.popularity import PopularityBaseline
from repro.baselines.twitter_monitor import TwitterMonitorBaseline
from repro.core.config import EnBlogueConfig
from repro.core.engine import EnBlogue
from repro.core.personalization import UserProfile
from repro.core.types import TagPair
from repro.datasets.nyt import DAY, NytArchiveGenerator, default_historic_events, nyt_vocabulary
from repro.datasets.twitter import TweetStreamGenerator
from repro.evaluation.ground_truth import GroundTruthMatcher
from repro.evaluation.harness import run_detector, run_experiment
from repro.evaluation.metrics import RankingComparison

from differential import HOUR


def archive_config(**overrides):
    defaults = dict(
        window_horizon=7 * DAY, evaluation_interval=DAY,
        num_seeds=20, min_seed_count=2, min_pair_support=2, min_history=3,
        predictor="moving_average", predictor_window=5,
        decay_half_life=2 * DAY, name="nyt",
    )
    defaults.update(overrides)
    return EnBlogueConfig(**defaults)


def live_config(**overrides):
    defaults = dict(
        window_horizon=24 * HOUR, evaluation_interval=HOUR,
        num_seeds=20, min_seed_count=1, min_pair_support=1, min_history=2,
        predictor="ewma", decay_half_life=2 * DAY, name="live",
    )
    defaults.update(overrides)
    return EnBlogueConfig(**defaults)


@pytest.fixture(scope="module")
def nyt_archive():
    generator = NytArchiveGenerator(years=0.5, articles_per_day=16, seed=19)
    return generator.generate()


@pytest.fixture(scope="module")
def nyt_run(nyt_archive):
    corpus, schedule = nyt_archive
    result = run_experiment(EnBlogue(archive_config()), corpus, schedule,
                            name="enblogue", k=10)
    return result, schedule


class TestShowCase1HistoricEvents(object):
    """Revisiting historic events on the (synthetic) NYT archive."""

    def test_majority_of_scripted_events_detected(self, nyt_run):
        result, _ = nyt_run
        assert result.recall >= 0.6

    def test_detection_latency_within_days(self, nyt_run):
        result, _ = nyt_run
        assert result.mean_latency is not None
        assert result.mean_latency <= 7 * DAY

    def test_category_rankings_contain_the_category_event(self, nyt_run):
        # Users browse by category: restricting the ranking to tags of one
        # category should surface that category's event.
        result, schedule = nyt_run
        vocabulary = nyt_vocabulary()
        hurricane_tags = set(vocabulary.tags("hurricanes"))
        hurricane_events = schedule.by_category("hurricanes")
        assert hurricane_events
        hits = 0
        for event in hurricane_events:
            pair = TagPair.from_tuple(event.pair)
            for ranking in result.run.rankings:
                position = ranking.position_of(pair)
                if position is not None and set(pair.as_tuple()) <= hurricane_tags:
                    hits += 1
                    break
        assert hits >= 1

    def test_time_range_changes_the_ranking(self, nyt_archive):
        """Show case 1 lets users pick their own time ranges."""
        corpus, schedule = nyt_archive
        start, end = corpus.time_range()
        midpoint = (start + end) / 2
        first_half = EnBlogue(archive_config(name="first-half"))
        first_half.process_many(corpus.between(start, midpoint))
        second_half = EnBlogue(archive_config(name="second-half"))
        second_half.process_many(corpus.between(midpoint + 1, end))
        first_ranking = first_half.evaluate_now()
        second_ranking = second_half.evaluate_now()
        comparison = RankingComparison.compare(first_ranking, second_ranking, k=10)
        assert comparison.overlap < 1.0


class TestShowCase2LiveData:
    """Live tweet/RSS monitoring with the audience-injected SIGMOD topic."""

    @pytest.fixture(scope="class")
    def live_run(self):
        corpus, schedule = TweetStreamGenerator(hours=72, tweets_per_hour=40,
                                                seed=29).generate()
        engine = EnBlogue(live_config())
        run = run_detector(engine, corpus, name="enblogue-live")
        return run, schedule

    def test_sigmod_athens_topic_reaches_top_positions(self, live_run):
        run, schedule = live_run
        event = next(e for e in schedule if e.name == "sigmod-athens")
        pair = TagPair.from_tuple(event.pair)
        positions = [
            ranking.position_of(pair)
            for ranking in run.rankings
            if ranking.timestamp >= event.start and ranking.position_of(pair) is not None
        ]
        assert positions
        assert min(positions) < 5

    def test_detection_happens_within_hours_of_onset(self, live_run):
        run, schedule = live_run
        matcher = GroundTruthMatcher(schedule, k=10)
        outcomes = {o.event.name: o for o in matcher.outcomes(run.rankings)}
        sigmod = outcomes["sigmod-athens"]
        assert sigmod.detected
        assert sigmod.latency <= 12 * HOUR

    def test_ranking_evolves_over_time(self, live_run):
        run, _ = live_run
        early = run.rankings[len(run.rankings) // 4]
        late = run.rankings[-1]
        comparison = RankingComparison.compare(early, late, k=10)
        assert comparison.overlap < 1.0


class TestShowCase3Personalization:
    """Different users see differently ordered (or different) topics."""

    @pytest.fixture(scope="class")
    def personalized_views(self):
        corpus, schedule = TweetStreamGenerator(hours=60, tweets_per_hour=30,
                                                seed=31).generate()
        engine = EnBlogue(live_config(top_k=15))
        engine.register_user(UserProfile(
            user_id="database-researcher", keywords=("sigmod", "databases", "athens"),
            boost=4.0))
        engine.register_user(UserProfile(
            user_id="traveller", keywords=("travel", "iceland", "europe"), boost=4.0))
        engine.register_user(UserProfile(
            user_id="sports-only", keywords=("sports", "football", "tennis"),
            boost=2.0, filter_only=True))
        engine.process_many(corpus)
        global_ranking = engine.current_ranking()
        views = {
            user: engine.ranking_for_user(user)
            for user in ("database-researcher", "traveller", "sports-only")
        }
        return global_ranking, views

    def test_profiles_reorder_or_change_the_list(self, personalized_views):
        global_ranking, views = personalized_views
        researcher = views["database-researcher"]
        traveller = views["traveller"]
        assert researcher.pairs() != traveller.pairs()

    def test_filter_only_profile_sees_only_matching_topics(self, personalized_views):
        _, views = personalized_views
        sports = views["sports-only"]
        allowed = ("sports", "football", "tennis")
        for topic in sports:
            assert any(
                any(keyword in tag for keyword in allowed)
                for tag in topic.pair.as_tuple()
            )

    def test_interest_boost_lifts_relevant_topics(self, personalized_views):
        global_ranking, views = personalized_views
        traveller = views["traveller"]
        if traveller.pairs():
            top_pair = traveller[0].pair
            global_position = global_ranking.position_of(top_pair)
            personal_position = traveller.position_of(top_pair)
            if global_position is not None:
                assert personal_position <= global_position


class TestBaselineContrast:
    """The related-work contrast: shifts vs. bursts vs. popularity."""

    def test_enblogue_finds_non_bursty_shifts_the_baselines_miss(self):
        """Figure 1's point: a correlation shift with constant per-tag
        frequencies is invisible to burst detection and to popularity
        ranking, but enBlogue detects it."""
        from repro.datasets.synthetic import correlation_shift_stream

        corpus, schedule = correlation_shift_stream(num_events=3, num_steps=60,
                                                    shift_start=36, seed=41)
        enblogue = run_experiment(
            EnBlogue(live_config(min_pair_support=2, min_history=3,
                                 predictor="moving_average", predictor_window=5)),
            corpus, schedule, name="enblogue", k=10)
        monitor = run_experiment(
            TwitterMonitorBaseline(window_horizon=24 * HOUR, evaluation_interval=HOUR,
                                   top_k=10),
            corpus, schedule, name="twitter-monitor", k=10)
        popularity = run_experiment(
            PopularityBaseline(window_horizon=24 * HOUR, evaluation_interval=HOUR,
                               top_k=10),
            corpus, schedule, name="popularity", k=10)
        assert enblogue.recall >= 2 / 3
        assert monitor.recall < enblogue.recall
        assert popularity.recall < enblogue.recall

    def test_all_detectors_find_genuinely_bursty_events(self, nyt_archive):
        """On the NYT archive the scripted events are bursty as well as
        correlated, so the burst baseline also finds them — the advantage of
        enBlogue is specific to non-bursty shifts, not a blanket win."""
        corpus, schedule = nyt_archive
        enblogue = run_experiment(EnBlogue(archive_config()), corpus, schedule,
                                  name="enblogue", k=10)
        monitor = run_experiment(
            TwitterMonitorBaseline(window_horizon=7 * DAY, evaluation_interval=DAY,
                                   top_k=10),
            corpus, schedule, name="twitter-monitor", k=10)
        assert enblogue.recall >= 0.75
        assert monitor.recall >= 0.5
