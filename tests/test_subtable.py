"""Tests for the bucketized subtable storage."""

import numpy as np
import pytest

from repro.core.subtable import Subtable
from repro.errors import InvalidConfigError


def make_filled(n_buckets=8, capacity=4):
    st = Subtable(n_buckets, capacity)
    return st


class TestConstruction:
    def test_rejects_non_power_of_two(self):
        with pytest.raises(InvalidConfigError):
            Subtable(10, 4)

    def test_rejects_zero_capacity(self):
        with pytest.raises(InvalidConfigError):
            Subtable(8, 0)

    def test_initially_empty(self):
        st = Subtable(8, 4)
        assert st.size == 0
        assert st.total_slots == 32
        assert st.filled_factor == 0.0


class TestPlaceRound:
    def test_simple_placement(self):
        st = make_filled()
        buckets = np.array([0, 1, 2])
        codes = np.array([10, 20, 30], dtype=np.uint64)
        vals = np.array([1, 2, 3], dtype=np.uint64)
        placed, full = st.place_round(buckets, codes, vals)
        assert placed.all()
        assert not full.any()
        assert st.size == 3

    def test_update_existing(self):
        # Placement never probes for stored codes; callers overwrite
        # live keys with update_existing before their first round.
        st = make_filled()
        st.place_round(np.array([0]), np.array([10], dtype=np.uint64),
                       np.array([1], dtype=np.uint64))
        updated = st.update_existing(
            np.array([0, 0]), np.array([10, 11], dtype=np.uint64),
            np.array([99, 5], dtype=np.uint64))
        assert updated.tolist() == [True, False]
        assert st.size == 1
        found, values = st.lookup(np.array([0]), np.array([10], dtype=np.uint64))
        assert found[0] and values[0] == 99

    def test_same_bucket_claims_distinct_slots(self):
        st = make_filled(capacity=4)
        buckets = np.zeros(4, dtype=np.int64)
        codes = np.arange(1, 5, dtype=np.uint64)
        vals = codes * 10
        placed, full = st.place_round(buckets, codes, vals)
        assert placed.all()
        assert not full.any()
        assert st.size == 4
        assert sorted(st.keys[0].tolist()) == [1, 2, 3, 4]

    def test_overflow_marks_single_leader(self):
        st = make_filled(capacity=2)
        buckets = np.zeros(4, dtype=np.int64)
        codes = np.arange(1, 5, dtype=np.uint64)
        placed, full = st.place_round(buckets, codes, codes)
        assert placed.sum() == 2       # capacity
        assert full.sum() == 0         # bucket had free slots this round
        # Second round on the now-full bucket: exactly one leader.
        codes2 = np.array([8, 9], dtype=np.uint64)
        placed, full = st.place_round(np.zeros(2, dtype=np.int64),
                                      codes2, codes2)
        assert not placed.any()
        assert full.sum() == 1

    def test_empty_input(self):
        st = make_filled()
        placed, full = st.place_round(
            np.array([], dtype=np.int64), np.array([], dtype=np.uint64),
            np.array([], dtype=np.uint64))
        assert len(placed) == len(full) == 0


class TestLookupEraseSwap:
    def test_lookup_miss(self):
        st = make_filled()
        found, _ = st.lookup(np.array([3]), np.array([42], dtype=np.uint64))
        assert not found[0]

    def test_contains(self):
        st = make_filled()
        st.place_round(np.array([1]), np.array([5], dtype=np.uint64),
                       np.array([50], dtype=np.uint64))
        assert st.contains(np.array([1]), np.array([5], dtype=np.uint64))[0]
        assert not st.contains(np.array([1]), np.array([6], dtype=np.uint64))[0]

    def test_erase(self):
        st = make_filled()
        st.place_round(np.array([2]), np.array([7], dtype=np.uint64),
                       np.array([70], dtype=np.uint64))
        erased = st.erase(np.array([2]), np.array([7], dtype=np.uint64))
        assert erased[0]
        assert st.size == 0
        found, _ = st.lookup(np.array([2]), np.array([7], dtype=np.uint64))
        assert not found[0]

    def test_erase_miss(self):
        st = make_filled()
        erased = st.erase(np.array([2]), np.array([7], dtype=np.uint64))
        assert not erased[0]
        assert st.size == 0

    def test_swap_slot_returns_old(self):
        st = make_filled()
        st.place_round(np.array([0]), np.array([11], dtype=np.uint64),
                       np.array([110], dtype=np.uint64))
        slot = int(np.flatnonzero(st.keys[0] == 11)[0])
        old_codes, old_values = st.swap_slot(
            np.array([0]), np.array([slot]),
            np.array([22], dtype=np.uint64), np.array([220], dtype=np.uint64))
        assert old_codes[0] == 11 and old_values[0] == 110
        assert st.size == 1  # net unchanged
        assert st.contains(np.array([0]), np.array([22], dtype=np.uint64))[0]


class TestRebuildAndExport:
    def test_export_round_trip(self):
        st = make_filled(n_buckets=4, capacity=4)
        buckets = np.array([0, 1, 1, 3])
        codes = np.array([1, 2, 3, 4], dtype=np.uint64)
        vals = codes * 10
        st.place_round(buckets, codes, vals)
        out_codes, out_values, out_buckets = st.export_entries()
        order = np.argsort(out_codes)
        assert out_codes[order].tolist() == [1, 2, 3, 4]
        assert out_values[order].tolist() == [10, 20, 30, 40]
        assert out_buckets[order].tolist() == [0, 1, 1, 3]

    def test_rebuild_packs_buckets(self):
        st = make_filled(n_buckets=4, capacity=4)
        codes = np.array([5, 6, 7], dtype=np.uint64)
        vals = codes * 2
        st.rebuild(8, codes, vals, np.array([7, 7, 0]))
        assert st.n_buckets == 8
        assert st.size == 3
        assert sorted(st.keys[7][:2].tolist()) == [5, 6]
        assert st.keys[0][0] == 7
        st.validate()

    def test_rebuild_rejects_overflow(self):
        st = make_filled(n_buckets=4, capacity=2)
        codes = np.arange(1, 4, dtype=np.uint64)
        with pytest.raises(InvalidConfigError):
            st.rebuild(4, codes, codes, np.zeros(3, dtype=np.int64))

    def test_validate_catches_bad_counter(self):
        st = make_filled()
        st.size = 5
        with pytest.raises(AssertionError):
            st.validate()
