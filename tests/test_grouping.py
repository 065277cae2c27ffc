"""Unit and property tests for the group-by helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.grouping import (SORT_CUTOFF, first_occurrence_mask,
                                 group_counts, last_occurrence_mask,
                                 rank_within_group, stable_order)


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


def _assert_same_arrays(got, want):
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert np.array_equal(got, want)


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
            _assert_same_arrays(got, want)


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


_SIZES = (SORT_CUTOFF - 1, SORT_CUTOFF, 3 * SORT_CUTOFF + 1)


def _large_inputs():
    """``(id, ids)`` cases at, around and far above the cutoff."""
    rng = np.random.default_rng(27)
    cases = []
    for n in _SIZES:
        cases += [
            (f"dense-{n}", rng.integers(0, 40, n).astype(np.int64)),
            (f"wide-{n}", rng.integers(0, 1 << 50, n).astype(np.int64)),
            (f"negative-{n}", rng.integers(-50, 50, n).astype(np.int64)),
            (f"uint64-high-{n}",
             rng.integers(0, 8, n).astype(np.uint64) + np.uint64(2 ** 63)),
            (f"all-equal-{n}", np.full(n, 9, dtype=np.int64)),
            # The insert path's (subtable << 40) | bucket round ids.
            (f"target-bucket-{n}",
             (rng.integers(0, 4, n) << 40) | rng.integers(0, 1 << 12, n)),
        ]
    return cases


_LARGE = _large_inputs()


class TestStableOrderAboveCutoff:
    """The packed sort and its fallbacks equal the stable argsort and
    the two-sort oracle, on inputs long enough to take the packed
    path."""

    @pytest.mark.parametrize("groups", [ids for _, ids in _LARGE],
                             ids=[name for name, _ in _LARGE])
    def test_matches_stable_argsort_and_oracle(self, groups):
        _assert_same_arrays(stable_order(groups),
                            np.argsort(groups, kind="stable"))
        TestRankMatchesTwoSortOracle._assert_same(groups)

    @pytest.mark.parametrize("id_bits, packed", [(54, True), (55, False)],
                             ids=["64-bits-packed", "65-bits-fallback"])
    def test_packing_edge(self, monkeypatch, id_bits, packed):
        """``SORT_CUTOFF`` indices take 10 bits, so 54-bit ids pack into
        exactly 64 bits and 55-bit ids fall back to the argsort."""
        n = SORT_CUTOFF
        assert (n - 1).bit_length() + id_bits == (64 if packed else 65)
        rng = np.random.default_rng(id_bits)
        groups = rng.integers(0, 4, n).astype(np.int64) << (id_bits - 3)
        groups[rng.integers(0, n)] = (1 << id_bits) - 1
        want_order = np.argsort(groups, kind="stable")
        want_ranks = _two_sort_rank(groups)
        calls = []
        argsort = np.argsort

        def counting_argsort(*args, **kwargs):
            calls.append(1)
            return argsort(*args, **kwargs)

        monkeypatch.setattr(np, "argsort", counting_argsort)
        _assert_same_arrays(stable_order(groups), want_order)
        for got, want in zip(rank_within_group(groups), want_ranks):
            _assert_same_arrays(got, want)
        assert len(calls) == (0 if packed else 2)


def _unique_first_mask(keys):
    """The ``np.unique`` first-occurrence oracle."""
    _, first_idx = np.unique(keys, return_index=True)
    mask = np.zeros(len(keys), dtype=bool)
    mask[first_idx] = True
    return mask


def _unique_last_mask(keys):
    """The ``np.unique`` last-occurrence oracle."""
    _, first_idx_rev = np.unique(keys[::-1], return_index=True)
    mask = np.zeros(len(keys), dtype=bool)
    mask[len(keys) - 1 - first_idx_rev] = True
    return mask


def _mask_inputs():
    rng = np.random.default_rng(31)
    cases = []
    for n in _SIZES:
        distinct = rng.permutation(n).astype(np.uint64) * np.uint64(7919)
        pair = distinct.copy()
        pair[n - 1] = pair[0]
        cases += [
            (f"no-duplicate-{n}", distinct),
            (f"end-pair-{n}", pair),
            (f"many-duplicates-{n}",
             rng.integers(0, n // 8, n).astype(np.uint64)),
            (f"int64-negative-{n}",
             rng.integers(-n, n, n).astype(np.int64)),
        ]
    return cases


_MASKS = _mask_inputs()


class TestOccurrenceMasksAboveCutoff:
    @pytest.mark.parametrize("keys", [keys for _, keys in _MASKS],
                             ids=[name for name, _ in _MASKS])
    def test_masks_match_unique_oracle(self, keys):
        _assert_same_arrays(first_occurrence_mask(keys),
                            _unique_first_mask(keys))
        _assert_same_arrays(last_occurrence_mask(keys),
                            _unique_last_mask(keys))

    @pytest.mark.parametrize("n", [SORT_CUTOFF - 1, SORT_CUTOFF],
                             ids=["below-cutoff", "at-cutoff"])
    def test_distinct_keys_skip_unique(self, monkeypatch, n):
        """No mask calls ``np.unique``: below the cutoff a stable sort
        and a neighbour compare build it, at the cutoff and above an
        all-distinct check returns it at once."""
        keys = np.arange(n, dtype=np.uint64)[::-1].copy()
        calls = []
        unique = np.unique

        def counting_unique(*args, **kwargs):
            calls.append(1)
            return unique(*args, **kwargs)

        monkeypatch.setattr(np, "unique", counting_unique)
        assert first_occurrence_mask(keys).all()
        assert last_occurrence_mask(keys).all()
        keys[-1] = keys[0]
        assert np.count_nonzero(first_occurrence_mask(keys)) == n - 1
        assert not last_occurrence_mask(keys)[0]
        assert calls == []


def _below_cutoff_inputs():
    """Every length below the cutoff, each in four key shapes."""
    rng = np.random.default_rng(43)
    for n in range(SORT_CUTOFF):
        yield np.arange(n, dtype=np.uint64)[rng.permutation(n)]
        yield rng.integers(0, max(1, n // 3), n).astype(np.uint64)
        yield rng.integers(-n - 1, n + 1, n).astype(np.int64)
        yield (rng.integers(0, max(1, n // 2), n).astype(np.uint64)
               + np.uint64(2 ** 63))


def test_masks_below_cutoff_match_unique_oracle():
    """Below :data:`SORT_CUTOFF` the stable-sort masks equal the
    ``np.unique`` oracle at every length: distinct keys, repeats,
    negative ids and uint64 ids at or above ``2**63``."""
    for keys in _below_cutoff_inputs():
        _assert_same_arrays(first_occurrence_mask(keys),
                            _unique_first_mask(keys))
        _assert_same_arrays(last_occurrence_mask(keys),
                            _unique_last_mask(keys))
