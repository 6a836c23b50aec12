"""Property-based round-trip and consistency tests (hypothesis)."""

from hypothesis import given, settings, strategies as st

from repro.core.types import EmergentTopic, Ranking, TagPair
from repro.core.correlation import JaccardCorrelation
from repro.core.tracker import CorrelationTracker
from repro.portal.serialization import ranking_from_json, ranking_to_json
from repro.storage.time_index import TimePartitionedIndex
from repro.streams.item import StreamItem

tag_names = st.text(alphabet="abcdef", min_size=1, max_size=4)

scores = st.floats(min_value=0.0, max_value=10.0, allow_nan=False)


def _distinct_pair(names):
    a, b = names
    return TagPair(a, b)


tag_pairs = st.tuples(tag_names, tag_names).filter(lambda t: t[0] != t[1]).map(_distinct_pair)

topics = st.builds(
    EmergentTopic,
    pair=tag_pairs,
    score=scores,
    correlation=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    predicted_correlation=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    prediction_error=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    timestamp=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
)

rankings = st.builds(
    Ranking,
    timestamp=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    topics=st.lists(topics, max_size=10),
    label=st.text(alphabet="xyz-", max_size=8),
)


class TestSerializationRoundTrip:
    @settings(max_examples=50)
    @given(ranking=rankings)
    def test_json_round_trip_preserves_content(self, ranking):
        restored = ranking_from_json(ranking_to_json(ranking))
        assert restored.timestamp == ranking.timestamp
        assert restored.label == ranking.label
        assert restored.pairs() == ranking.pairs()
        for original, copy in zip(ranking, restored):
            assert copy.score == original.score
            assert copy.correlation == original.correlation

    @settings(max_examples=50)
    @given(ranking=rankings)
    def test_round_trip_preserves_ranking_order(self, ranking):
        restored = ranking_from_json(ranking_to_json(ranking))
        assert [t.pair for t in restored] == [t.pair for t in ranking]
        # The restored ranking is still sorted by decreasing score.
        restored_scores = [t.score for t in restored]
        assert restored_scores == sorted(restored_scores, reverse=True)


documents = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=1000.0, allow_nan=False),
        st.lists(tag_names, min_size=1, max_size=4, unique=True),
    ),
    min_size=1,
    max_size=40,
)


class TestCountingConsistency:
    @settings(max_examples=30)
    @given(docs=documents)
    def test_time_index_totals_match_tracker_with_unbounded_window(self, docs):
        """With a window covering everything, the streaming tracker and the
        batch time-partitioned index agree on counts and correlations."""
        ordered = sorted(docs, key=lambda d: d[0])
        tracker = CorrelationTracker(window_horizon=10_000.0, min_pair_support=1)
        index = TimePartitionedIndex(partition_length=50.0)
        for position, (timestamp, tags) in enumerate(ordered):
            tracker.observe(timestamp, tags)
            index.index(StreamItem(timestamp=timestamp, doc_id=f"d{position}",
                                   tags=frozenset(tags)))
        start, end = 0.0, 1000.0
        assert index.document_count(start, end) == tracker.document_count()
        measure = JaccardCorrelation()
        for pair in tracker.candidate_pairs(
                [tag for tag, _ in tracker.tag_window.top_tags(10)]):
            tag_pair = pair[0]
            first, second = tag_pair
            assert index.tag_count(first, start, end) == tracker.tag_count(first)
            assert index.pair_count(first, second, start, end) == \
                tracker.pair_count(tag_pair)

    @settings(max_examples=30)
    @given(docs=documents)
    def test_pair_counts_never_exceed_tag_counts(self, docs):
        index = TimePartitionedIndex(partition_length=100.0)
        seen_tags = set()
        for position, (timestamp, tags) in enumerate(sorted(docs, key=lambda d: d[0])):
            index.index(StreamItem(timestamp=timestamp, doc_id=f"d{position}",
                                   tags=frozenset(tags)))
            seen_tags.update(tags)
        tags = sorted(seen_tags)
        for i in range(len(tags)):
            for j in range(i + 1, len(tags)):
                pair_count = index.pair_count(tags[i], tags[j], 0.0, 1000.0)
                assert pair_count <= index.tag_count(tags[i], 0.0, 1000.0)
                assert pair_count <= index.tag_count(tags[j], 0.0, 1000.0)
