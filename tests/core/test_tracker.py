"""Tests for the correlation tracker."""

import pytest

from repro.core.correlation import OverlapCorrelation
from repro.core.tracker import CorrelationTracker
from repro.core.types import TagPair


class TestIngestion:
    def test_counts_tags_and_pairs_in_window(self):
        tracker = CorrelationTracker(window_horizon=100.0)
        tracker.observe(1.0, ["a", "b"])
        tracker.observe(2.0, ["a", "c"])
        assert tracker.tag_count("a") == 2
        assert tracker.tag_count("b") == 1
        assert tracker.pair_count(TagPair("a", "b")) == 1
        assert tracker.document_count() == 2

    def test_entities_merged_when_enabled(self):
        tracker = CorrelationTracker(window_horizon=100.0, use_entities=True)
        tracker.observe(1.0, ["news"], entities=["Athens"])
        assert tracker.tag_count("athens") == 1
        assert tracker.pair_count(TagPair("athens", "news")) == 1

    def test_entities_ignored_when_disabled(self):
        tracker = CorrelationTracker(window_horizon=100.0, use_entities=False)
        tracker.observe(1.0, ["news"], entities=["Athens"])
        assert tracker.tag_count("athens") == 0

    def test_window_eviction(self):
        tracker = CorrelationTracker(window_horizon=10.0)
        tracker.observe(0.0, ["a", "b"])
        tracker.observe(20.0, ["a"])
        assert tracker.tag_count("b") == 0
        assert tracker.pair_count(TagPair("a", "b")) == 0
        assert tracker.document_count() == 1

    def test_out_of_order_documents_rejected(self):
        tracker = CorrelationTracker(window_horizon=10.0)
        tracker.observe(5.0, ["a"])
        with pytest.raises(ValueError):
            tracker.observe(1.0, ["b"])

    def test_documents_seen_counts_everything(self):
        tracker = CorrelationTracker(window_horizon=1.0)
        tracker.observe(0.0, ["a"])
        tracker.observe(100.0, ["b"])
        assert tracker.documents_seen == 2

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            CorrelationTracker(window_horizon=0.0)
        with pytest.raises(ValueError):
            CorrelationTracker(window_horizon=1.0, min_pair_support=0)
        with pytest.raises(ValueError):
            CorrelationTracker(window_horizon=1.0, history_length=1)


class TestCandidatePairs:
    def test_only_pairs_with_a_seed_are_candidates(self):
        tracker = CorrelationTracker(window_horizon=100.0, min_pair_support=1)
        tracker.observe(1.0, ["seed", "x"])
        tracker.observe(2.0, ["y", "z"])
        candidates = tracker.candidate_pairs(["seed"])
        assert [pair for pair, _ in candidates] == [TagPair("seed", "x")]
        assert candidates[0][1] == "seed"

    def test_min_pair_support_filters_weak_pairs(self):
        tracker = CorrelationTracker(window_horizon=100.0, min_pair_support=2)
        tracker.observe(1.0, ["seed", "x"])
        tracker.observe(2.0, ["seed", "y"])
        tracker.observe(3.0, ["seed", "y"])
        candidates = tracker.candidate_pairs(["seed"])
        assert [pair for pair, _ in candidates] == [TagPair("seed", "y")]

    def test_no_seeds_means_no_candidates(self):
        tracker = CorrelationTracker(window_horizon=100.0)
        tracker.observe(1.0, ["a", "b"])
        assert tracker.candidate_pairs([]) == []

    def test_seed_tag_reported_for_double_seed_pair(self):
        tracker = CorrelationTracker(window_horizon=100.0, min_pair_support=1)
        tracker.observe(1.0, ["a", "b"])
        candidates = tracker.candidate_pairs(["a", "b"])
        assert candidates == [(TagPair("a", "b"), "a")]

    def test_min_pair_support_is_mutable_between_evaluations(self):
        tracker = CorrelationTracker(window_horizon=100.0, min_pair_support=1)
        tracker.observe(1.0, ["seed", "x"])
        tracker.observe(2.0, ["seed", "y"])
        tracker.observe(3.0, ["seed", "y"])
        assert len(tracker.candidate_pairs(["seed"])) == 2
        tracker.min_pair_support = 2
        assert tracker.min_pair_support == 2
        assert [p for p, _ in tracker.candidate_pairs(["seed"])] \
            == [TagPair("seed", "y")]
        with pytest.raises(ValueError):
            tracker.min_pair_support = 0


class TestCorrelation:
    def test_jaccard_by_default(self):
        tracker = CorrelationTracker(window_horizon=100.0)
        tracker.observe(1.0, ["a", "b"])
        tracker.observe(2.0, ["a"])
        # |a∩b| = 1, |a∪b| = 2
        assert tracker.correlation(TagPair("a", "b")) == pytest.approx(0.5)

    def test_custom_measure(self):
        tracker = CorrelationTracker(window_horizon=100.0, measure=OverlapCorrelation())
        tracker.observe(1.0, ["a", "b"])
        tracker.observe(2.0, ["a"])
        assert tracker.correlation(TagPair("a", "b")) == pytest.approx(1.0)

    def test_pair_counts_snapshot(self):
        tracker = CorrelationTracker(window_horizon=100.0)
        tracker.observe(1.0, ["a", "b"])
        tracker.observe(2.0, ["a"])
        counts = tracker.pair_counts_for(TagPair("a", "b"))
        assert (counts.count_a, counts.count_b, counts.count_both) == (2, 1, 1)
        assert counts.total_documents == 2


class TestEvaluation:
    def test_evaluate_appends_to_history(self):
        tracker = CorrelationTracker(window_horizon=100.0, min_pair_support=1)
        tracker.observe(1.0, ["s", "x"])
        observations = tracker.evaluate(10.0, ["s"])
        assert len(observations) == 1
        history = tracker.history(TagPair("s", "x"))
        assert len(history) == 1
        assert history.values[0] == observations[0].correlation

    def test_history_is_trimmed_to_length(self):
        tracker = CorrelationTracker(window_horizon=1000.0, min_pair_support=1,
                                     history_length=3)
        tracker.observe(0.0, ["s", "x"])
        for step in range(1, 8):
            tracker.evaluate(float(step), ["s"])
        assert len(tracker.history(TagPair("s", "x"))) == 3

    def test_unknown_pair_history_is_empty(self):
        tracker = CorrelationTracker(window_horizon=10.0)
        assert len(tracker.history(TagPair("a", "b"))) == 0

    def test_count_history_recorded_per_evaluation(self):
        tracker = CorrelationTracker(window_horizon=100.0, min_pair_support=1)
        tracker.observe(1.0, ["s", "x"])
        tracker.evaluate(2.0, ["s"])
        tracker.evaluate(3.0, ["s"])
        history = tracker.count_history()
        assert history["s"] == [1, 1]

    def test_usage_tracking_for_kl_measure(self):
        tracker = CorrelationTracker(window_horizon=100.0, track_usage=True,
                                     min_pair_support=1)
        tracker.observe(1.0, ["a", "b", "c"])
        tracker.observe(2.0, ["a", "b"])
        # usage distributions exist internally; evaluate should not fail and
        # correlations stay bounded.
        observations = tracker.evaluate(3.0, ["a"])
        assert all(0.0 <= obs.correlation <= 1.0 for obs in observations)

    def test_tracked_pairs_listed_sorted(self):
        tracker = CorrelationTracker(window_horizon=100.0, min_pair_support=1)
        tracker.observe(1.0, ["s", "x"])
        tracker.observe(2.0, ["s", "a"])
        tracker.evaluate(3.0, ["s"])
        assert tracker.tracked_pairs() == [TagPair("a", "s"), TagPair("s", "x")]


class TestNormalization:
    def test_tags_lowercased_and_stripped_in_tracker(self):
        tracker = CorrelationTracker(window_horizon=100.0)
        tracker.observe(1.0, ["Politics", "  VOLCANO "])
        assert tracker.tag_count("politics") == 1
        assert tracker.tag_count("volcano") == 1
        assert tracker.pair_count(TagPair("politics", "volcano")) == 1
        assert tracker.tag_count("Politics") == 0

    def test_mixed_case_spellings_collapse_to_one_tag(self):
        tracker = CorrelationTracker(window_horizon=100.0)
        tracker.observe(1.0, ["News"])
        tracker.observe(2.0, ["news"])
        tracker.observe(3.0, ["NEWS"])
        assert tracker.tag_count("news") == 3

    def test_whitespace_only_tags_dropped(self):
        tracker = CorrelationTracker(window_horizon=100.0)
        tracker.observe(1.0, ["a", "   ", ""])
        assert tracker.tag_window.tags() == ["a"]

    def test_direct_tracker_and_engine_agree_on_identity(self):
        # The satellite fix: direct callers used to bypass the engine's
        # lowercasing; normalisation now lives in the tracker itself.
        tracker = CorrelationTracker(window_horizon=100.0)
        tracker.observe(1.0, ["Athens"], entities=["SIGMOD"])
        assert tracker.pair_count(TagPair("athens", "sigmod")) == 1

    def test_engine_query_surface_normalises_like_the_tracker(self):
        from repro.core.config import EnBlogueConfig
        from repro.core.engine import EnBlogue
        engine = EnBlogue(EnBlogueConfig(
            min_seed_count=1, min_pair_support=1, min_history=2))
        engine.tracker.observe(0.0, ["Athens ", "sigmod"])
        engine.evaluate_now(3600.0)
        # Whitespace- and case-variant queries reach the same history.
        assert len(engine.correlation_history("Athens ", "SIGMOD")) == 1
        assert len(engine.correlation_history("athens", "sigmod")) == 1

    def test_rejected_malformed_batch_leaves_tracker_unchanged(self):
        tracker = CorrelationTracker(window_horizon=10.0)
        tracker.observe(1.0, ["a", "b"])
        with pytest.raises(TypeError):
            tracker.observe_many([(2.0, ["c", "d"], ()), (3.0, None, ())])
        # The valid prefix of the malformed chunk must not have left
        # phantom pair events behind (their eviction would corrupt counts).
        assert tracker.documents_seen == 1
        assert len(tracker._pair_events) == 1
        tracker.observe(3.0, ["c", "d"])
        tracker.advance_to(11.5)
        assert tracker.pair_count(TagPair("c", "d")) == 1


class TestEvictionBoundary:
    """``timestamp <= cutoff`` must agree across every windowed structure."""

    def test_document_exactly_at_cutoff_evicted_everywhere(self):
        tracker = CorrelationTracker(window_horizon=10.0, track_usage=True,
                                     min_pair_support=1)
        tracker.observe(0.0, ["a", "b", "c"])
        # cutoff = 10 - 10 = 0; the document at t=0 satisfies t <= cutoff.
        tracker.observe(10.0, ["x"])
        assert tracker.document_count() == 1
        assert tracker.tag_count("a") == 0
        assert tracker.pair_count(TagPair("a", "b")) == 0
        assert len(tracker.candidate_index) == 0
        # Only the live document's tag remains in the usage distributions.
        assert set(tracker._usage) <= {"x"}
        assert not any(tracker._usage.get(tag) for tag in ("a", "b", "c"))

    def test_document_just_inside_window_survives_everywhere(self):
        tracker = CorrelationTracker(window_horizon=10.0, track_usage=True,
                                     min_pair_support=1)
        tracker.observe(0.1, ["a", "b"])
        tracker.observe(10.0, ["x"])
        assert tracker.document_count() == 2
        assert tracker.tag_count("a") == 1
        assert tracker.pair_count(TagPair("a", "b")) == 1
        assert "a" in tracker._usage

    def test_advance_to_evicts_like_observe(self):
        tracker = CorrelationTracker(window_horizon=10.0, track_usage=True,
                                     min_pair_support=1)
        tracker.observe(0.0, ["a", "b"])
        tracker.advance_to(10.0)
        assert tracker.document_count() == 0
        assert tracker.pair_count(TagPair("a", "b")) == 0
        assert tracker._usage == {}

    def test_batch_eviction_matches_sequential_eviction(self):
        sequential = CorrelationTracker(window_horizon=5.0, track_usage=True,
                                        min_pair_support=1)
        batched = CorrelationTracker(window_horizon=5.0, track_usage=True,
                                     min_pair_support=1)
        observations = [(float(t), ["a", "b"] if t % 2 else ["b", "c"], ())
                        for t in range(12)]
        for timestamp, tags, entities in observations:
            sequential.observe(timestamp, tags, entities)
        batched.observe_many(observations)
        assert sequential.tag_window.snapshot() == batched.tag_window.snapshot()
        assert dict(sequential.candidate_index.items()) \
            == dict(batched.candidate_index.items())
        assert sequential._usage == batched._usage
        assert sequential.document_count() == batched.document_count()


class TestMinPairSupportPropagation:
    """Regression: updating the threshold must reach the candidate index."""

    def _tracker_with_mixed_support(self):
        tracker = CorrelationTracker(window_horizon=100.0, min_pair_support=1)
        # (a, b) co-occurs three times, (a, c) once.
        tracker.observe(0.0, ["a", "b"])
        tracker.observe(1.0, ["a", "b"])
        tracker.observe(2.0, ["a", "b"])
        tracker.observe(3.0, ["a", "c"])
        return tracker

    def test_raising_support_hides_weak_candidates(self):
        tracker = self._tracker_with_mixed_support()
        assert [p for p, _ in tracker.candidate_pairs(["a"])] \
            == [TagPair("a", "b"), TagPair("a", "c")]
        tracker.min_pair_support = 2
        assert tracker.min_pair_support == 2
        assert tracker.candidate_index.min_support == 2
        assert [p for p, _ in tracker.candidate_pairs(["a"])] == [TagPair("a", "b")]

    def test_lowering_support_restores_retained_postings(self):
        # Sub-threshold pairs stay in the counts, so lowering the threshold
        # rebuilds their postings without any re-ingestion.
        tracker = self._tracker_with_mixed_support()
        tracker.min_pair_support = 3
        assert [p for p, _ in tracker.candidate_pairs(["a"])] == [TagPair("a", "b")]
        tracker.min_pair_support = 1
        assert [p for p, _ in tracker.candidate_pairs(["a"])] \
            == [TagPair("a", "b"), TagPair("a", "c")]
        assert tracker.pair_count(TagPair("a", "c")) == 1

    def test_threshold_validated_on_every_write_path(self):
        tracker = self._tracker_with_mixed_support()
        with pytest.raises(ValueError):
            tracker.min_pair_support = 0
        with pytest.raises(ValueError):
            tracker.candidate_index.min_support = 0
        assert tracker.min_pair_support == 1


class TestCheckInvariants:
    def build(self):
        tracker = CorrelationTracker(window_horizon=10.0, min_pair_support=1,
                                     track_usage=True)
        tracker.observe(0.0, ["a", "b"])
        tracker.observe(5.0, ["a", "c"])
        tracker.check_invariants()
        return tracker

    def test_names_a_count_the_pair_events_do_not_explain(self):
        tracker = self.build()
        tracker.candidate_index.add(TagPair("a", "b"))
        with pytest.raises(AssertionError, match=r"'a'.*'b'.*1 time.*count 2"):
            tracker.check_invariants()

    def test_names_an_event_no_live_tracker_would_still_hold(self):
        # What a restore can do and an ingest cannot: move the clock past
        # an event's expiry without evicting it.
        tracker = self.build()
        tracker._latest = 10.0
        with pytest.raises(AssertionError, match=r"pair event .* at 0.0"):
            tracker.check_invariants()
        tracker._pair_events.popleft()
        tracker.candidate_index.discard(TagPair("a", "b"))
        with pytest.raises(AssertionError, match=r"usage event .* at 0.0"):
            tracker.check_invariants()

    def test_runs_the_index_check(self):
        tracker = self.build()
        del tracker.candidate_index._supported[TagPair("a", "c")]
        with pytest.raises(AssertionError, match="missing from"):
            tracker.check_invariants()


class TestCountHistoryBound:
    def test_series_bounded_without_rescan(self):
        # Bounded deques replace the per-evaluation rescan-and-slice; the
        # observable contract is unchanged: last history_length points.
        tracker = CorrelationTracker(window_horizon=1000.0,
                                     min_pair_support=1, history_length=3)
        tracker.observe(1.0, ["s", "x"])
        for step in range(2, 10):
            tracker.evaluate(float(step), ["s"])
        history = tracker.count_history()
        assert history["s"] == [1, 1, 1]
        assert all(len(series) <= 3 for series in history.values())

    def test_disappeared_tag_records_explicit_zeros(self):
        tracker = CorrelationTracker(window_horizon=5.0,
                                     min_pair_support=1, history_length=4)
        tracker.observe(1.0, ["s", "x"])
        tracker.evaluate(2.0, ["s"])
        tracker.evaluate(20.0, ["s"])  # window expired: counts drop to zero
        history = tracker.count_history()
        assert history["s"] == [1, 0]
        assert history["x"] == [1, 0]

    def test_tracker_told_not_to_keeps_no_count_history(self):
        recording = CorrelationTracker(window_horizon=100.0,
                                       min_pair_support=1)
        silent = CorrelationTracker(window_horizon=100.0, min_pair_support=1,
                                    track_count_history=False)
        for tracker in (recording, silent):
            tracker.observe(1.0, ["s", "x"])
            tracker.begin_delta_tracking()
            tracker.evaluate(2.0, ["s"])
            tracker.advance_to(3.0)
            tracker.record_count_history_row()
        assert recording.count_history() == {"s": [1, 1], "x": [1, 1]}
        assert silent.count_history() == {} == silent.count_history_map
        assert silent.snapshot()["count_history"] == {}
        assert silent.delta_since(1)["count_rows"] == []
        assert len(recording.delta_since(1)["count_rows"]) == 2
        # Not a structural parameter: a state that carries a history
        # restores, and the history is dropped rather than kept stale.
        silent.restore(recording.snapshot())
        assert silent.count_history() == {}
        assert silent.history(TagPair("s", "x")).values \
            == recording.history(TagPair("s", "x")).values
        recording.restore(silent.snapshot())
        assert recording.count_history() == {}

    def test_count_history_returns_plain_lists(self):
        # Consumers (seed selectors, JSON snapshots) slice and serialise
        # the series; the public copy stays a list whatever the internal
        # container is.
        tracker = CorrelationTracker(window_horizon=100.0,
                                     min_pair_support=1)
        tracker.observe(1.0, ["s", "x"])
        tracker.evaluate(2.0, ["s"])
        assert all(type(series) is list
                   for series in tracker.count_history().values())


class TestDecomposerMissPath:
    def test_pairs_are_the_validated_constructors_pairs(self):
        # The miss path builds its pairs without canonical_pair's
        # validation; what it builds must be what the validating
        # constructors would have built, as plain tuples.
        from repro.core.tracker import DocumentDecomposer
        from repro.core.types import TagPair, canonical_pair

        decomposer = DocumentDecomposer()
        cases = [
            (frozenset(), frozenset()),
            (frozenset({"solo"}), frozenset()),
            (frozenset({" B", "a ", "A", ""}), frozenset({"c", "b"})),
            (["z", "y", "z", "x"], ("w",)),  # not frozensets: never memoised
            (frozenset({"é", "e", "E", "10", "9"}), frozenset()),
        ]
        for tags, entities in cases:
            ordered, pairs = decomposer.decompose(tags, entities)
            assert list(ordered) == sorted(set(ordered))
            assert "" not in ordered
            expected = tuple(
                TagPair(ordered[i], ordered[j])
                for i in range(len(ordered))
                for j in range(i + 1, len(ordered))
            )
            assert pairs == expected
            assert all(type(pair) is tuple for pair in pairs)
            assert all(type(tag) is str for pair in pairs for tag in pair)
            assert [(pair.first, pair.second) for pair in expected] \
                == list(pairs)
            assert list(pairs) == [
                canonical_pair(second, first) for first, second in pairs
            ]


    def test_every_member_is_normalised_as_normalize_tag_would(self):
        # The miss path normalises a whole collection in one call; tag
        # identity is still normalize_tag's, whatever the members are.
        from repro.core.tracker import DocumentDecomposer
        from repro.core.types import normalize_tag

        class Subclassed(str):
            pass

        class Renamed(str):
            def __str__(self):
                return " Renamed "

        cases = [
            (["  Padded ", "\tTabbed\n", "plain"], ()),
            (["MiXeD", "mixed", "MIXED ", "Straße"], ()),
            ([7, 2.5, None, b"Bytes", ("tu", "ple")], ()),
            ([Subclassed(" Sub "), Renamed("ignored")], ()),
            (["a", 7, Subclassed("A "), "", "   "], ()),
            (["tag"], [" Entity", 3, Subclassed("TAG")]),
        ]
        for use_entities in (True, False):
            decomposer = DocumentDecomposer(use_entities=use_entities)
            for tags, entities in cases:
                for shape in (list, frozenset):
                    ordered, _ = decomposer.decompose(
                        shape(tags), shape(entities))
                    members = list(tags) + (
                        list(entities) if use_entities else [])
                    expected = {normalize_tag(member) for member in members}
                    expected.discard("")
                    assert list(ordered) == sorted(expected)
                    assert all(type(tag) is str for tag in ordered)


class TestDecomposerEviction:
    def test_a_set_is_kept_on_its_second_sighting(self):
        from repro.core.tracker import DocumentDecomposer

        decomposer = DocumentDecomposer()
        tags = frozenset({"b", "a", "c"})
        first = decomposer.decompose(tags)
        assert tags not in decomposer._cache
        assert decomposer._probation[tags] is first
        second = decomposer.decompose(tags)
        assert second is first
        assert decomposer._cache == {tags: first}
        assert decomposer._probation == {}
        assert decomposer.decompose(tags) is first
        # With entities the key is the (tags, entities) pair.
        entities = frozenset({"d"})
        with_entities = decomposer.decompose(tags, entities)
        assert decomposer.decompose(tags, entities) is with_entities
        assert (tags, entities) in decomposer._cache
        assert with_entities[0] == ("a", "b", "c", "d")
        decomposer.check_invariants()

    def test_memo_never_exceeds_the_limit(self):
        from repro.core.tracker import (
            _DECOMPOSE_CACHE_LIMIT,
            _DECOMPOSE_EVICT_BATCH,
            DocumentDecomposer,
        )

        decomposer = DocumentDecomposer()
        for index in range(_DECOMPOSE_CACHE_LIMIT + 100):
            tags = frozenset({f"tag-{index}", "anchor"})
            decomposer.decompose(tags)
            decomposer.decompose(tags)
            assert len(decomposer._cache) <= _DECOMPOSE_CACHE_LIMIT
            assert len(decomposer._probation) <= _DECOMPOSE_EVICT_BATCH
        # Partial eviction: a churn spike drops one batch, not the memo.
        assert len(decomposer._cache) \
            >= _DECOMPOSE_CACHE_LIMIT - _DECOMPOSE_EVICT_BATCH
        decomposer.check_invariants()

    def test_probation_never_exceeds_its_bound(self):
        from repro.core.tracker import (
            _DECOMPOSE_EVICT_BATCH,
            DocumentDecomposer,
        )

        decomposer = DocumentDecomposer()
        # One-off tag sets: none is ever admitted, and probation is
        # cleared whole each time it fills.
        for index in range(2 * _DECOMPOSE_EVICT_BATCH + 5):
            decomposer.decompose(frozenset({f"once-{index}", "anchor"}))
            assert len(decomposer._probation) <= _DECOMPOSE_EVICT_BATCH
        assert decomposer._cache == {}
        assert len(decomposer._probation) == 5
        decomposer.check_invariants()

    def test_eviction_is_fifo_and_keeps_recent_entries(self):
        from repro.core.tracker import (
            _DECOMPOSE_CACHE_LIMIT,
            DocumentDecomposer,
        )

        decomposer = DocumentDecomposer()
        oldest = frozenset({"tag-0", "anchor"})
        newest = frozenset({f"tag-{_DECOMPOSE_CACHE_LIMIT}", "anchor"})
        for index in range(_DECOMPOSE_CACHE_LIMIT + 1):
            tags = frozenset({f"tag-{index}", "anchor"})
            decomposer.decompose(tags)
            decomposer.decompose(tags)
        cache = decomposer._cache
        assert oldest not in cache
        assert newest in cache

    def test_wide_tag_sets_are_decomposed_but_not_kept(self):
        from repro.core.tracker import (
            _DECOMPOSE_CACHE_WIDTH,
            DocumentDecomposer,
        )

        decomposer = DocumentDecomposer()
        at_limit = frozenset(f"t{i:02d}" for i in range(_DECOMPOSE_CACHE_WIDTH))
        too_wide = at_limit | {"one-more"}
        for tags in (at_limit, too_wide, frozenset(f"w{i}" for i in range(400))):
            for _ in range(2):
                ordered, pairs = decomposer.decompose(tags)
                assert (ordered, pairs) == decomposer.decompose(sorted(tags))
                assert len(pairs) == len(tags) * (len(tags) - 1) // 2
        assert list(decomposer._cache) == [at_limit]
        assert decomposer._probation == {}
        decomposer.check_invariants()

    def test_route_runs_on_a_miss_only_and_replaces_the_pairs(self):
        from repro.core.tracker import DocumentDecomposer

        calls = []

        def route(pairs):
            calls.append(pairs)
            return (pairs[::2], pairs[1::2])

        decomposer = DocumentDecomposer(route=route)
        tags = frozenset({"a", "b", "c"})
        first = decomposer.decompose(tags)
        assert first == (("a", "b", "c"),
                         ((("a", "b"), ("b", "c")), (("a", "c"),)))
        # The second sighting promotes what the first routed; the third
        # is a memo hit.
        assert decomposer.decompose(tags) is first
        assert decomposer.decompose(tags) is first
        assert tags in decomposer._cache
        assert len(calls) == 1
        decomposer.check_invariants()
        # An unmemoised shape is routed every time.
        decomposer.decompose(["a", "b"])
        decomposer.decompose(["a", "b"])
        assert len(calls) == 3

    def test_eviction_does_not_change_results(self, monkeypatch):
        import repro.core.tracker as tracker_module
        from repro.core.tracker import DocumentDecomposer

        # Shrink both bounds so eviction and probation clears fire in a
        # short loop.
        monkeypatch.setattr(tracker_module, "_DECOMPOSE_CACHE_LIMIT", 16)
        monkeypatch.setattr(tracker_module, "_DECOMPOSE_EVICT_BATCH", 4)
        decomposer = DocumentDecomposer()
        # 40 recurring sets, each twice in a row, three rounds, with a
        # one-off set after every pair of sightings.
        tag_sets = [
            tags
            for round_ in range(3)
            for index in range(40)
            for tags in (frozenset({f"t{index}", f"u{index % 7}", "z"}),) * 2
            + (frozenset({f"once-{round_}-{index}", "z"}),)
        ]
        for tags in tag_sets:
            result = decomposer.decompose(tags)
            assert result == DocumentDecomposer().decompose(tags)
            assert len(decomposer._cache) <= 16
            assert len(decomposer._probation) <= 4
            decomposer.check_invariants()
        assert decomposer._cache, "recurring sets were admitted"
