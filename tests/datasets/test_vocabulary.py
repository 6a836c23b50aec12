"""Tests for tag vocabularies and Zipf sampling."""

import math
import random
from collections import Counter

import pytest

from repro.datasets.vocabulary import TagVocabulary, ZipfSampler, news_vocabulary


class TestZipfSampler:
    def test_rejects_empty_items_and_bad_exponent(self):
        with pytest.raises(ValueError):
            ZipfSampler([])
        with pytest.raises(ValueError):
            ZipfSampler(["a"], exponent=0.0)

    def test_samples_come_from_vocabulary(self):
        sampler = ZipfSampler(["a", "b", "c"], rng=random.Random(1))
        for _ in range(50):
            assert sampler.sample() in {"a", "b", "c"}

    def test_head_items_sampled_more_often(self):
        sampler = ZipfSampler([f"t{i}" for i in range(20)], exponent=1.2,
                              rng=random.Random(3))
        counts = Counter(sampler.sample() for _ in range(3000))
        assert counts["t0"] > counts["t10"]
        assert counts["t0"] > counts["t19"]

    def test_sample_distinct_returns_unique_items(self):
        sampler = ZipfSampler(["a", "b", "c", "d"], rng=random.Random(2))
        distinct = sampler.sample_distinct(3)
        assert len(distinct) == 3
        assert len(set(distinct)) == 3

    def test_sample_distinct_bounded_by_vocabulary_size(self):
        sampler = ZipfSampler(["a", "b"], rng=random.Random(2))
        assert len(sampler.sample_distinct(10)) == 2

    def test_sample_distinct_zero(self):
        sampler = ZipfSampler(["a"])
        assert sampler.sample_distinct(0) == []

    def test_probability_sums_to_one(self):
        items = ["a", "b", "c", "d"]
        sampler = ZipfSampler(items)
        total = sum(sampler.probability(item) for item in items)
        assert total == pytest.approx(1.0)

    def test_probability_of_unknown_item_is_zero(self):
        assert ZipfSampler(["a"]).probability("zzz") == 0.0

    def test_deterministic_with_seeded_rng(self):
        first = ZipfSampler(["a", "b", "c"], rng=random.Random(7))
        second = ZipfSampler(["a", "b", "c"], rng=random.Random(7))
        assert [first.sample() for _ in range(20)] == [second.sample() for _ in range(20)]

    @pytest.mark.parametrize("size", [1, 7, 5000])
    def test_draws_equal_a_linear_scan_oracle(self, size):
        items = [f"t{i}" for i in range(size)]
        sampler = ZipfSampler(items, rng=random.Random(11))
        oracle_rng = random.Random(11)
        weights = [1.0 / rank ** 1.1 for rank in range(1, size + 1)]
        total = sum(weights)
        cumulative, running = [], 0.0
        for weight in weights:
            running += weight / total
            cumulative.append(running)

        def oracle_draw(u):
            for index, bound in enumerate(cumulative):
                if u <= bound:
                    return items[index]
            return items[-1]

        assert [sampler.sample() for _ in range(2000)] \
            == [oracle_draw(oracle_rng.random()) for _ in range(2000)]

    def test_draws_on_and_past_the_cumulative_bounds(self):
        items = [f"t{i}" for i in range(7)]
        bounds = ZipfSampler(items)._cumulative
        # A u equal to a bound maps to that bound's item; a u past the
        # last bound (which rounding can leave below 1.0) maps to the last.
        draws = iter([bounds[3], bounds[-1], math.nextafter(bounds[-1], 2.0), 0.0])

        class ScriptedRng:
            def random(self):
                return next(draws)

        sampler = ZipfSampler(items, rng=ScriptedRng())
        assert [sampler.sample() for _ in range(4)] == ["t3", "t6", "t6", "t0"]


class TestTagVocabulary:
    def test_add_and_query_categories(self):
        vocabulary = TagVocabulary({"sports": ["tennis", "golf"]})
        assert vocabulary.categories() == ["sports"]
        assert vocabulary.tags("sports") == ["tennis", "golf"]

    def test_all_tags_deduplicated(self):
        vocabulary = TagVocabulary({
            "a": ["x", "shared"],
            "b": ["y", "shared"],
        })
        assert vocabulary.tags() == ["x", "shared", "y"]
        assert len(vocabulary) == 3

    def test_category_of(self):
        vocabulary = TagVocabulary({"sports": ["tennis"]})
        assert vocabulary.category_of("tennis") == "sports"
        assert vocabulary.category_of("unknown") is None

    def test_contains(self):
        vocabulary = TagVocabulary({"sports": ["tennis"]})
        assert "tennis" in vocabulary
        assert "golf" not in vocabulary

    def test_unknown_category_raises(self):
        with pytest.raises(KeyError):
            TagVocabulary({"a": ["x"]}).tags("b")

    def test_validation(self):
        vocabulary = TagVocabulary()
        with pytest.raises(ValueError):
            vocabulary.add_category("", ["x"])
        with pytest.raises(ValueError):
            vocabulary.add_category("empty", [])


class TestNewsVocabulary:
    def test_has_expected_categories(self):
        vocabulary = news_vocabulary()
        assert "politics" in vocabulary.categories()
        assert "weather" in vocabulary.categories()
        assert "volcano" in vocabulary.tags("world")
        assert len(vocabulary) > 30
