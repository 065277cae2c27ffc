"""Property tests for the storage and resize layers.

These target the vectorized machinery underneath the table: slot
claiming under arbitrary bucket collision patterns, rebuild round-trips,
and content preservation across resize sequences.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import DyCuckooConfig
from repro.core.grouping import rank_within_group
from repro.core.subtable import Subtable, claim_slots
from repro.core.table import DyCuckooTable


def cumsum_slot_search(free: np.ndarray, ranks: np.ndarray,
                       inverse: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The per-claimant slot search :func:`claim_slots` replaced.

    Each claimant copies its row of the free mask; the rank-th free
    slot is where the row's running count of free slots first reaches
    rank + 1.
    """
    fits = ranks < free.sum(axis=1)[inverse]
    items = np.flatnonzero(fits)
    running = free[inverse[items]].cumsum(axis=1)
    slots = (running == (ranks[items] + 1)[:, None]).argmax(axis=1)
    return fits, slots


@st.composite
def claim_rounds(draw):
    """A free mask (rows all free, all full or mixed) and claimants."""
    capacity = draw(st.sampled_from([1, 8, 32]))
    n_rows = draw(st.integers(min_value=0, max_value=12))
    free = np.zeros((n_rows, capacity), dtype=bool)
    for g in range(n_rows):
        kind = draw(st.sampled_from(["free", "full", "mixed"]))
        if kind == "free":
            free[g] = True
        elif kind == "mixed":
            free[g] = draw(st.lists(st.booleans(), min_size=capacity,
                                    max_size=capacity))
    # Up to three claimants per slot, so some rows are over-claimed.
    claimed = draw(st.lists(st.integers(min_value=0,
                                        max_value=max(n_rows - 1, 0)),
                            max_size=3 * capacity * n_rows))
    return free, np.array(claimed, dtype=np.intp)


class TestClaimSlots:
    @given(claim_rounds())
    @settings(max_examples=150, deadline=None)
    def test_matches_cumsum_search(self, round_):
        """The flat scan gives each claimant the slot the per-claimant
        cumsum search gives: same values, dtypes and shapes."""
        free, inverse = round_
        ranks = rank_within_group(inverse)[0]
        fits, slots = claim_slots(free, ranks, inverse)
        want_fits, want_slots = cumsum_slot_search(free, ranks, inverse)
        for got, want in ((fits, want_fits), (slots, want_slots)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want)
        assert free[inverse[fits], slots].all()


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
