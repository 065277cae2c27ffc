"""Stash (overflow error table) semantics and lifecycle regressions.

The stash absorbs inserts whose eviction chain is exhausted while the
insert-failure upsize itself fails — reachable only under injected
resize aborts.  These tests pin down the unit behaviour of
:class:`repro.core.stash.Stash` and the table-level guarantees: stash
contents survive ``copy()``, ``merge_from()`` and persistence, every
reader is stash-aware, and drain-back after a successful resize empties
the stash losslessly.
"""

import numpy as np

from .conftest import unique_keys
from repro.core.config import DyCuckooConfig
from repro.core.instruments import Instruments
from repro.core.persistence import load_table, save_table
from repro.core.stash import Stash
from repro.core.table import DyCuckooTable
from repro.faults import NO_FAULTS, FaultPlan


def make_stashed_table(n_keys: int = 24, stash_capacity: int = 256):
    """A table with ``n_keys`` entries parked in the stash.

    Every eviction chain is declared exhausted and every upsize aborts,
    so each fresh insert lands in the stash; the plan is then detached
    so follow-up operations run fault-free.
    """
    table = DyCuckooTable(DyCuckooConfig(
        initial_buckets=16, bucket_capacity=8, min_buckets=8,
        stash_capacity=stash_capacity))
    table.attach(Instruments(faults=FaultPlan(seed=0, rates={
        "insert.evict": 1.0, "resize.abort.trigger": 1.0})))
    keys = unique_keys(n_keys, seed=7)
    table.insert(keys, keys + np.uint64(100))
    assert len(table.stash) == n_keys
    table.attach(None)
    return table, keys


class TestStashUnit:
    def test_push_lookup_erase(self):
        stash = Stash(8)
        codes = np.array([3, 5, 9], dtype=np.uint64)
        values = np.array([30, 50, 90], dtype=np.uint64)
        absorbed = stash.push(codes, values)
        assert bool(absorbed.all()) and len(stash) == 3
        found_values, found = stash.lookup(
            np.array([5, 6], dtype=np.uint64))
        assert bool(found[0]) and not bool(found[1])
        assert int(found_values[0]) == 50
        erased = stash.erase(np.array([5, 5, 7], dtype=np.uint64))
        assert erased.tolist() == [True, False, False]
        assert len(stash) == 2 and 5 not in stash

    def test_push_overflow_mask(self):
        stash = Stash(2)
        codes = np.arange(1, 5, dtype=np.uint64)
        absorbed = stash.push(codes, codes)
        assert int(absorbed.sum()) == 2
        assert len(stash) == 2
        stash.validate()

    def test_update_in_place_does_not_consume_capacity(self):
        stash = Stash(2)
        codes = np.array([1, 2], dtype=np.uint64)
        stash.push(codes, codes)
        # Re-pushing an already-stashed key updates it without needing
        # a free slot.
        absorbed = stash.push(np.array([1], dtype=np.uint64),
                              np.array([11], dtype=np.uint64))
        assert bool(absorbed.all()) and len(stash) == 2
        values, found = stash.lookup(np.array([1], dtype=np.uint64))
        assert bool(found[0]) and int(values[0]) == 11

    def test_high_water_and_copy_independence(self):
        stash = Stash(8)
        stash.push(np.arange(1, 6, dtype=np.uint64),
                   np.arange(1, 6, dtype=np.uint64))
        assert stash.high_water == 5
        clone = stash.copy()
        stash.pop_all()
        assert len(stash) == 0 and len(clone) == 5
        assert stash.high_water == 5  # high-water survives pop
        clone.validate()

    def test_zero_capacity_stash(self):
        stash = Stash(0)
        absorbed = stash.push(np.array([1], dtype=np.uint64),
                              np.array([1], dtype=np.uint64))
        assert not bool(absorbed.any())
        assert len(stash) == 0


class TestTableReadersAreStashAware:
    def test_len_items_keys_to_dict_include_stash(self):
        table, keys = make_stashed_table()
        assert len(table) == len(keys)
        out_keys, out_values = table.items()
        assert len(out_keys) == len(keys)
        assert set(table.keys().tolist()) == set(keys.tolist())
        expected = {int(k): int(k) + 100 for k in keys}
        assert table.to_dict() == expected

    def test_clear_resets_stash(self):
        table, _keys = make_stashed_table()
        table.clear()
        assert len(table.stash) == 0 and len(table) == 0
        table.validate()


class TestLifecyclePreservesStash:
    def test_copy_preserves_stash_and_detaches_faults(self):
        table, keys = make_stashed_table()
        table.attach(Instruments(faults=FaultPlan(seed=1, rates={})))
        clone = table.copy()
        assert clone.faults is NO_FAULTS
        assert len(clone.stash) == len(keys)
        assert clone.to_dict() == table.to_dict()
        # Independence: mutating the clone's stash leaves the original.
        clone.delete(keys[:4])
        assert len(clone) == len(keys) - 4
        assert len(table) == len(keys)

    def test_merge_from_transfers_stashed_keys(self):
        table, keys = make_stashed_table()
        dest = DyCuckooTable(DyCuckooConfig(
            initial_buckets=16, bucket_capacity=8, min_buckets=8))
        extra = unique_keys(10, seed=99)
        dest.insert(extra, extra)
        dest.merge_from(table)
        assert len(dest) == len(keys) + len(extra)
        values, found = dest.find(keys)
        assert bool(found.all())
        assert np.array_equal(values, keys + np.uint64(100))
        dest.validate()

    def test_persistence_round_trip_preserves_stash(self, tmp_path):
        table, keys = make_stashed_table()
        path = tmp_path / "stashed.npz"
        save_table(table, path)
        loaded = load_table(path)
        assert len(loaded) == len(table)
        assert loaded.to_dict() == table.to_dict()
        values, found = loaded.find(keys)
        assert bool(found.all())
        assert np.array_equal(values, keys + np.uint64(100))
        loaded.validate()

    def test_persistence_of_stashless_table_unchanged(self, tmp_path):
        table = DyCuckooTable(DyCuckooConfig(
            initial_buckets=16, bucket_capacity=8, min_buckets=8))
        keys = unique_keys(50, seed=3)
        table.insert(keys, keys)
        path = tmp_path / "plain.npz"
        save_table(table, path)
        loaded = load_table(path)
        assert len(loaded.stash) == 0
        assert loaded.to_dict() == table.to_dict()


class TestDrainBack:
    def test_manual_upsize_drains_stash(self):
        table, keys = make_stashed_table()
        table.upsize()
        assert len(table.stash) == 0
        assert table.stats.stash_drained == len(keys)
        values, found = table.find(keys)
        assert bool(found.all())
        assert np.array_equal(values, keys + np.uint64(100))
        table.validate()

    def test_next_mutating_batch_drains_after_resize_epoch(self):
        table, keys = make_stashed_table()
        # A fresh insert heavy enough to push theta over beta triggers a
        # real upsize inside the batch, after which the stash drains.
        fresh = unique_keys(600, seed=42, low=1 << 32)
        table.insert(fresh, fresh)
        assert table.stats.upsizes >= 1
        assert len(table.stash) == 0
        values, found = table.find(keys)
        assert bool(found.all())
        table.validate()

    def test_drain_is_idempotent_per_epoch(self):
        table, keys = make_stashed_table()
        table.upsize()
        drained_after_first = table.stats.stash_drained
        assert drained_after_first == len(keys)
        # Further batches in the same epoch must not re-drain.
        probe = unique_keys(5, seed=5, low=1 << 40)
        table.insert(probe, probe)
        table.delete(probe)
        assert table.stats.stash_drained == drained_after_first

    def test_drain_that_finalizes_a_downsize_counts_only_its_keys(self):
        # The drain's stall upsize finalizes an open downsize epoch whose
        # spill stashes other keys: the stash ends up larger than the
        # drain found it, yet the drain still moved its own keys out.
        from repro.telemetry import Telemetry
        table = DyCuckooTable(DyCuckooConfig(
            num_tables=4, initial_buckets=8, bucket_capacity=1,
            min_buckets=8, seed=1))
        table.attach(Instruments(telemetry=Telemetry()))
        rng = np.random.default_rng(1)

        def draw(n):
            return rng.integers(1, 1 << 62, n,
                                dtype=np.int64).astype(np.uint64)

        keys = draw(387)
        table.insert(keys, draw(387))
        live = np.setdiff1d(keys, rng.choice(np.sort(keys), 278,
                                             replace=False))
        table.delete(np.setdiff1d(keys, live))
        batch = np.concatenate((draw(118), rng.choice(live, 14)))
        table.insert(batch, draw(len(batch)))
        stats = table.stats
        assert stats.downsizes >= 1 and len(table.stash) == 3
        assert stats.stash_drained == 2
        assert stats.stash_pushes - stats.stash_drained == len(table.stash)
        assert (table.telemetry.metrics.counter("stash.drained").value
                == table.stats.stash_drained)
        table.validate()
