"""Property tests for the storage and resize layers.

These target the vectorized machinery underneath the table: slot
claiming under arbitrary bucket collision patterns, rebuild round-trips,
and content preservation across resize sequences.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import DyCuckooConfig
from repro.core.subtable import Subtable
from repro.core.table import DyCuckooTable


class TestPlaceRoundProperties:
    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=7),
                              st.integers(min_value=1, max_value=10 ** 6)),
                    min_size=1, max_size=60, unique_by=lambda t: t[1]))
    @settings(max_examples=80, deadline=None)
    def test_place_round_conserves_entries(self, ops):
        """One round never loses or duplicates entries.

        Every op is either placed, flagged full-leader, or left for
        retry; placed ops are physically present; the live counter
        matches physical occupancy.
        """
        st_ = Subtable(8, 4)
        buckets = np.array([b for b, _k in ops], dtype=np.int64)
        codes = np.array([k for _b, k in ops], dtype=np.uint64)
        values = codes * np.uint64(2)
        placed, full = st_.place_round(buckets, codes, values)
        # Disjoint outcomes.
        assert not np.any(placed & full)
        assert st_.size == int(placed.sum())
        # Placed ops are findable in their bucket.
        for i in np.flatnonzero(placed):
            assert st_.contains(buckets[i:i + 1], codes[i:i + 1])[0]
        st_.validate()

    @given(st.integers(min_value=1, max_value=4),
           st.integers(min_value=1, max_value=32))
    @settings(max_examples=50, deadline=None)
    def test_full_bucket_has_one_leader(self, capacity, extra):
        """A full bucket elects exactly one eviction leader per round."""
        st_ = Subtable(4, capacity)
        fillers = np.arange(1, capacity + 1, dtype=np.uint64)
        st_.place_round(np.zeros(capacity, dtype=np.int64), fillers,
                        fillers)
        newcomers = np.arange(100, 100 + extra, dtype=np.uint64)
        placed, full = st_.place_round(
            np.zeros(extra, dtype=np.int64), newcomers, newcomers)
        assert not placed.any()
        assert full.sum() == 1


class TestRebuildProperties:
    @given(st.lists(st.tuples(st.integers(min_value=1, max_value=10 ** 9),
                              st.integers(min_value=0, max_value=10 ** 9)),
                    min_size=0, max_size=48,
                    unique_by=lambda t: t[0]))
    @settings(max_examples=60, deadline=None)
    def test_rebuild_round_trip(self, entries):
        """Exported entries rebuild into an equivalent subtable."""
        st_ = Subtable(16, 4)
        codes = np.array([k for k, _v in entries], dtype=np.uint64)
        values = np.array([v for _k, v in entries], dtype=np.uint64)
        buckets = (codes % np.uint64(16)).astype(np.int64)
        # Cap at capacity per bucket for a valid rebuild.
        keep = np.zeros(len(codes), dtype=bool)
        counts: dict = {}
        for i, b in enumerate(buckets):
            if counts.get(int(b), 0) < 4:
                keep[i] = True
                counts[int(b)] = counts.get(int(b), 0) + 1
        st_.rebuild(16, codes[keep], values[keep], buckets[keep])
        st_.validate()
        out_codes, out_values, out_buckets = st_.export_entries()
        order_in = np.argsort(codes[keep])
        order_out = np.argsort(out_codes)
        assert np.array_equal(out_codes[order_out], codes[keep][order_in])
        assert np.array_equal(out_values[order_out], values[keep][order_in])
        assert np.array_equal(out_buckets[order_out],
                              buckets[keep][order_in])


class TestResizeSequences:
    @given(st.lists(st.sampled_from(["up", "down"]), min_size=1,
                    max_size=6),
           st.integers(min_value=50, max_value=400))
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_arbitrary_resize_sequences_preserve_contents(self, moves,
                                                          n_keys):
        """Any feasible up/down sequence keeps every entry findable."""
        from repro.errors import ResizeError

        table = DyCuckooTable(DyCuckooConfig(initial_buckets=16,
                                             bucket_capacity=8,
                                             min_buckets=8,
                                             auto_resize=False))
        rng = np.random.default_rng(n_keys)
        keys = np.unique(rng.integers(1, 1 << 62, n_keys * 2
                                      ).astype(np.uint64))[:n_keys]
        table.insert(keys, keys)
        for move in moves:
            try:
                if move == "up":
                    table.upsize()
                else:
                    table.downsize()
            except ResizeError:
                continue  # at minimum size or unresolvable spill
            table.validate()
            sizes = [s.n_buckets for s in table.subtables]
            assert max(sizes) <= 2 * min(sizes)
        values, found = table.find(keys)
        assert found.all()
        assert np.array_equal(values, keys)
