"""Regression tests for three historical accounting/upsert bugs.

Each test failed before its fix and pins the exact failure mode:

1. the warp insert kernel balloted "existing key" and "EMPTY slot" as
   one predicate, so a delete hole below a stored key's slot captured
   the upsert and duplicated the key (and the kernel never probed the
   pair's other subtable at all — the cross-subtable variant of the
   same duplication);
2. :meth:`Subtable.erase` decremented ``size`` once per matching input
   row, so duplicate ``(bucket, code)`` rows drove the counter negative
   (erase now requires distinct codes, and both tables' deletes dedupe);
3. a rolled-back downsize restored storage but only the ``downsizes``
   counter, leaving ``rehashed_entries``/``residuals``/``bucket_reads``/
   ``bucket_writes`` inflated by undone work.
"""

import numpy as np
import pytest

from repro.baselines.megakv import MegaKVTable
from repro.core.config import DyCuckooConfig
from repro.core.instruments import Instruments
from repro.core.subtable import EMPTY
from repro.core.table import DyCuckooTable, decode_keys
from repro.errors import ResizeError
from repro.faults import FaultPlan
from repro.kernels import run_spin_insert_kernel, run_voter_insert_kernel
from repro.oracle import DictModel

from .conftest import launch_insert, unique_keys


def fresh_table(buckets=16, capacity=8, **kw):
    defaults = dict(initial_buckets=buckets, bucket_capacity=capacity,
                    auto_resize=False)
    defaults.update(kw)
    return DyCuckooTable(DyCuckooConfig(**defaults))


class TestKernelUpsertDuplication:
    """Bug 1: warp upsert wrote a second copy of an existing key."""

    def _bucket_with_two_entries(self, table):
        """Locate (subtable idx, bucket, lower slot, higher slot)."""
        for t_idx, st in enumerate(table.subtables):
            occupancy = (st.keys != EMPTY).sum(axis=1)
            for bucket in np.flatnonzero(occupancy >= 2):
                slots = np.flatnonzero(st.keys[bucket] != EMPTY)
                return t_idx, int(bucket), int(slots[0]), int(slots[1])
        raise AssertionError("workload left no bucket with two entries")

    @pytest.mark.parametrize("kernel", [run_voter_insert_kernel,
                                        run_spin_insert_kernel])
    def test_hole_below_stored_key_updates_in_place(self, kernel):
        """A delete hole below the stored slot must not win the upsert."""
        table = fresh_table()
        keys = unique_keys(300, seed=40)
        kernel(table, keys, keys)
        t_idx, bucket, low_slot, high_slot = \
            self._bucket_with_two_entries(table)
        st = table.subtables[t_idx]
        low_key = decode_keys(st.keys[bucket, low_slot:low_slot + 1])
        high_key = decode_keys(st.keys[bucket, high_slot:high_slot + 1])

        assert bool(table.delete(low_key)[0])  # hole below high_key
        # Pin the router so the kernel re-inspects exactly this bucket.
        table._router.choose = (
            lambda codes, first, second, sizes, loads, draw=None:
            np.full(len(codes), t_idx, dtype=np.int64))
        kernel(table, high_key, high_key + np.uint64(7))

        table.validate()  # used to raise: duplicate key across slots
        assert len(table) == 299
        values, found = table.find(high_key)
        assert bool(found[0])
        assert int(values[0]) == int(high_key[0]) + 7

    @pytest.mark.parametrize("kernel", [run_voter_insert_kernel,
                                        run_spin_insert_kernel])
    def test_key_resident_in_alternate_subtable(self, kernel):
        """Upsert must probe the pair's other subtable, not duplicate."""
        table = fresh_table()
        keys = unique_keys(50, seed=41)
        # Place every key in the *first* subtable of its pair...
        table._router.choose = (
            lambda codes, first, second, sizes, loads, draw=None: first)
        table.insert(keys, keys)
        # ...then drive the kernel at the *second*.
        table._router.choose = (
            lambda codes, first, second, sizes, loads, draw=None: second)
        kernel(table, keys, keys + np.uint64(3))

        table.validate()  # used to raise: duplicate key across subtables
        assert len(table) == 50
        values, found = table.find(keys)
        assert bool(found.all())
        assert np.array_equal(values, keys + np.uint64(3))


class TestEraseDuplicateRows:
    """Bug 2: duplicate (bucket, code) rows double-decremented size.

    :meth:`Subtable.erase` now requires distinct codes; both tables
    dedupe a delete batch to its first occurrences before probing, so
    duplicate keys reach storage once.
    """

    @staticmethod
    def _tables():
        return (DyCuckooTable(DyCuckooConfig(initial_buckets=8,
                                             bucket_capacity=4, seed=5)),
                MegaKVTable(initial_buckets=8, bucket_capacity=4))

    def test_duplicate_rows_count_slot_once(self):
        for table in self._tables():
            table.insert(np.array([42], dtype=np.uint64),
                         np.array([1], dtype=np.uint64))
            removed = table.delete(np.array([42, 42], dtype=np.uint64))
            assert removed.tolist() == [True, False]
            assert len(table) == 0  # used to go to -1
            table.validate()

    def test_mixed_duplicate_and_fresh_rows(self):
        for table in self._tables():
            keys = np.array([10, 11, 12], dtype=np.uint64)
            table.insert(keys, keys)
            removed = table.delete(
                np.array([10, 10, 12, 11, 10, 13], dtype=np.uint64))
            assert removed.tolist() == [True, False, True, True, False,
                                        False]
            assert len(table) == 0
            table.validate()


class TestDownsizeRollbackAccounting:
    """Bug 3: rollback restored storage but not the event counters.

    ``test_faults`` pins the plan/rehash rollbacks; a spill abort parks
    the residuals instead, so only the work that stuck is counted.
    """

    def test_spill_abort_charges_no_spill_traffic(self):
        """A spill abort parks the residuals instead of rolling back;
        the parked keys are pushed to the stash, never spilled."""
        table = fresh_table(buckets=8, capacity=2, min_buckets=4)
        model = DictModel()
        keys = unique_keys(40, seed=42)
        assert model.apply(table, "insert", keys, keys) == []
        plan = FaultPlan(seed=0, rates={"resize.abort.spill": 1.0})
        table.attach(Instruments(faults=plan))
        before = table.stats.snapshot()
        table._resizer.downsize()
        assert plan.fired_by_site() == {"resize.abort.spill": 1}
        delta = table.stats.delta(before)
        assert delta["resize_aborts"] == 1
        assert delta["stash_pushes"] == delta["residuals"] > 0
        # The parked residuals ran no eviction round and took no lock.
        assert delta["eviction_rounds"] == delta["lock_acquisitions"] == 0
        assert model.divergence(table) == []
        table.validate()


class TestUnwindReleasesLocks:
    """Release-on-exception: a kernel abort must not wedge the lock
    table or leak bucket locks (audited by the SIMT sanitizer)."""

    def _contended_batch(self, table, lanes=128):
        """Four warps, every lane the same key: one lock, all contend."""
        from repro.core.batch_ops import EncodedBatch
        keys = np.full(lanes, 12345, dtype=np.uint64)
        batch = EncodedBatch(table, keys)
        targets = table._router.choose(batch.codes, batch.first,
                                       batch.second, table.subtable_sizes(),
                                       table.subtable_loads())
        return batch, keys, targets

    def test_warp_engine_unwinds_on_stall_exhaustion(self):
        from repro.errors import CapacityError
        from repro.sanitizer import Sanitizer

        table = fresh_table()
        san = Sanitizer()
        table.attach(Instruments(sanitizer=san))
        batch, values, targets = self._contended_batch(table)
        with pytest.raises(CapacityError):
            launch_insert(table, "warp", batch, values, targets,
                          max_rounds_per_op=1)
        assert san.ok, [str(v) for v in san.violations]
        assert san.stats["unwind_releases"] >= 1
        # The lock table is usable again: a fresh batch completes.
        fresh = unique_keys(64, seed=77)
        run_voter_insert_kernel(table, fresh, fresh)
        assert san.ok, [str(v) for v in san.violations]

    def test_cohort_engine_unwinds_on_stall_exhaustion(self):
        from repro.errors import CapacityError
        from repro.sanitizer import Sanitizer

        table = fresh_table()
        san = Sanitizer()
        table.attach(Instruments(sanitizer=san))
        batch, keys, targets = self._contended_batch(table)
        with pytest.raises(CapacityError):
            launch_insert(table, "cohort", batch, keys, targets,
                          max_rounds_per_op=1)
        assert san.ok, [str(v) for v in san.violations]
        assert san.stats["unwind_releases"] >= 1
        run_voter_insert_kernel(table, unique_keys(64, seed=78),
                                unique_keys(64, seed=78),
                                engine="cohort")
        assert san.ok, [str(v) for v in san.violations]

    def test_resize_abort_releases_subtable_lock(self):
        from repro.sanitizer import Sanitizer

        san = Sanitizer()
        for stage in ("rehash", "spill"):
            table = fresh_table(buckets=16, capacity=4, min_buckets=8)
            keys = unique_keys(140, seed=3)
            table.insert(keys, keys)
            plan = FaultPlan(seed=0, rates={f"resize.abort.{stage}": 1.0})
            table.attach(Instruments(sanitizer=san, faults=plan))
            if stage == "rehash":
                with pytest.raises(ResizeError):
                    table._resizer.downsize()
            else:  # the residuals are parked and the downsize completes
                table._resizer.downsize()
            assert plan.fired_by_site() == {f"resize.abort.{stage}": 1}
            table.attach(Instruments(sanitizer=san))
            report = san.report()
            assert report["subtable_locks_held"] == 0, stage
            assert san.ok, [str(v) for v in san.violations]
            table.validate()
