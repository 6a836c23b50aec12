"""Tests for the deterministic hash family."""

import pytest

from repro.sketches.hashing import HashFamily


class TestHashFamily:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            HashFamily(0)
        with pytest.raises(ValueError):
            HashFamily(2, seed=-1)

    def test_hash_is_deterministic(self):
        family = HashFamily(3, seed=5)
        assert family.hash("key", 0) == family.hash("key", 0)

    def test_different_functions_differ(self):
        family = HashFamily(4)
        values = {family.hash("key", i) for i in range(4)}
        assert len(values) == 4

    def test_different_seeds_differ(self):
        assert HashFamily(1, seed=1).hash("key", 0) != HashFamily(1, seed=2).hash("key", 0)

    def test_different_keys_differ(self):
        family = HashFamily(1)
        assert family.hash("a", 0) != family.hash("b", 0)

    def test_hashes_returns_one_value_per_function(self):
        family = HashFamily(5)
        assert len(family.hashes("key")) == 5

    def test_index_out_of_range(self):
        family = HashFamily(2)
        with pytest.raises(IndexError):
            family.hash("key", 2)

    def test_values_are_non_negative_integers(self):
        family = HashFamily(3)
        for value in family.hashes("anything"):
            assert isinstance(value, int)
            assert value >= 0

    def test_hashes_agree_with_hash(self):
        family = HashFamily(4, seed=3)
        assert family.hashes("key") == [family.hash("key", i) for i in range(4)]

    def test_values_do_not_depend_on_the_process(self):
        # Pinned: a filter's bits must mean the same in every process and
        # run, whatever PYTHONHASHSEED says.
        assert HashFamily(2, seed=7).hashes("enblogue") == [
            5114627486970204667, 4978008481468829250,
        ]
