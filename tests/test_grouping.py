"""Unit and property tests for the group-by helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.grouping import (first_occurrence_mask, group_counts,
                                 last_occurrence_mask, rank_within_group)


class TestRankWithinGroup:
    def test_simple(self):
        ranks, unique, inverse = rank_within_group(np.array([5, 3, 5, 5, 3]))
        assert ranks.tolist() == [0, 0, 1, 2, 1]
        assert unique.tolist() == [3, 5]
        assert np.array_equal(unique[inverse], np.array([5, 3, 5, 5, 3]))

    def test_all_same_group(self):
        ranks, unique, _ = rank_within_group(np.zeros(6, dtype=np.int64))
        assert ranks.tolist() == [0, 1, 2, 3, 4, 5]
        assert unique.tolist() == [0]

    def test_all_distinct(self):
        ranks, _, _ = rank_within_group(np.arange(10))
        assert ranks.tolist() == [0] * 10

    def test_empty(self):
        ranks, unique, inverse = rank_within_group(np.array([], dtype=np.int64))
        assert len(ranks) == 0
        assert len(unique) == 0
        assert len(inverse) == 0

    @given(st.lists(st.integers(min_value=0, max_value=20), max_size=200))
    @settings(max_examples=100)
    def test_ranks_are_stable_positions(self, group_list):
        groups = np.asarray(group_list, dtype=np.int64)
        ranks, _, _ = rank_within_group(groups)
        # Brute-force reference: rank = occurrences of this id before i.
        for i, g in enumerate(group_list):
            assert ranks[i] == group_list[:i].count(g)


def _two_sort_rank(group_ids):
    """The former ``np.unique`` + stable-argsort implementation."""
    group_ids = np.asarray(group_ids)
    unique_groups, inverse = np.unique(group_ids, return_inverse=True)
    order = np.argsort(inverse, kind="stable")
    inverse_sorted = inverse[order]
    group_start = np.searchsorted(inverse_sorted,
                                  np.arange(len(unique_groups)))
    ranks = np.empty(len(group_ids), dtype=np.int64)
    ranks[order] = np.arange(len(group_ids)) - group_start[inverse_sorted]
    return ranks, unique_groups, inverse


_I64 = np.iinfo(np.int64)


class TestRankMatchesTwoSortOracle:
    @pytest.mark.parametrize("groups", [
        np.array([], dtype=np.int64),
        np.array([7], dtype=np.int64),
        np.full(9, 3, dtype=np.int64),
        np.arange(12, dtype=np.int64)[::-1],
        np.array([_I64.max, _I64.min, 0, _I64.min, _I64.max, -1],
                 dtype=np.int64),
        np.array([2 ** 64 - 1, 0, 2 ** 63, 0], dtype=np.uint64),
    ], ids=["empty", "singleton", "all-equal", "descending", "int64-extremes",
            "uint64"])
    def test_edge_inputs(self, groups):
        self._assert_same(groups)

    @given(st.lists(st.integers(min_value=_I64.min, max_value=_I64.max),
                    max_size=120))
    @settings(max_examples=100)
    def test_random_inputs(self, group_list):
        self._assert_same(np.asarray(group_list, dtype=np.int64))

    @given(st.lists(st.integers(min_value=-3, max_value=3), max_size=120))
    @settings(max_examples=100)
    def test_dense_repeats(self, group_list):
        self._assert_same(np.asarray(group_list, dtype=np.int64))

    @staticmethod
    def _assert_same(groups):
        for got, want in zip(rank_within_group(groups),
                             _two_sort_rank(groups)):
            assert got.dtype == want.dtype
            assert got.shape == want.shape
            assert np.array_equal(got, want)


class TestGroupCounts:
    def test_counts(self):
        counts = group_counts(np.array([0, 2, 2, 4]), num_groups=5)
        assert counts.tolist() == [1, 0, 2, 0, 1]

    def test_empty(self):
        assert group_counts(np.array([], dtype=np.int64), 3).tolist() == [0, 0, 0]


class TestOccurrenceMasks:
    def test_first_occurrence(self):
        mask = first_occurrence_mask(np.array([7, 7, 3, 7, 3]))
        assert mask.tolist() == [True, False, True, False, False]

    def test_last_occurrence(self):
        mask = last_occurrence_mask(np.array([7, 7, 3, 7, 3]))
        assert mask.tolist() == [False, False, False, True, True]

    def test_all_unique(self):
        keys = np.array([1, 2, 3])
        assert first_occurrence_mask(keys).all()
        assert last_occurrence_mask(keys).all()

    @given(st.lists(st.integers(min_value=0, max_value=10), max_size=100))
    @settings(max_examples=100)
    def test_masks_select_each_key_once(self, key_list):
        keys = np.asarray(key_list, dtype=np.uint64)
        for mask_fn in (first_occurrence_mask, last_occurrence_mask):
            mask = mask_fn(keys)
            selected = keys[mask]
            assert len(selected) == len(np.unique(keys))
            assert set(selected.tolist()) == set(key_list)
