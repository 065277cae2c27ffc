"""Tests for the lane-level kernels against the vectorized fast path."""

import numpy as np

from repro.core.config import DyCuckooConfig
from repro.core.hashing import unhashed
from repro.core.table import DyCuckooTable
from repro.kernels import (run_delete_kernel, run_downsize_kernel,
                           run_find_kernel, run_spin_insert_kernel,
                           run_upsize_kernel, run_voter_insert_kernel)

from .conftest import unique_keys


def fresh_table(buckets=64, capacity=8, **kw):
    defaults = dict(initial_buckets=buckets, bucket_capacity=capacity,
                    auto_resize=False)
    defaults.update(kw)
    return DyCuckooTable(DyCuckooConfig(**defaults))


class TestVoterInsert:
    def test_insert_then_find(self):
        table = fresh_table()
        keys = unique_keys(700, seed=1)
        result = run_voter_insert_kernel(table, keys, keys * 3)
        assert result.completed_ops == 700
        table.validate()
        values, found = table.find(keys)
        assert found.all()
        assert np.array_equal(values, keys * np.uint64(3))

    def test_matches_vectorized_membership(self):
        """Kernel and vectorized inserts produce equivalent tables.

        Slot placement may differ (scheduling), but the key set, values
        and invariants must match.
        """
        keys = unique_keys(500, seed=2)
        vals = keys + np.uint64(7)
        kernel_table = fresh_table()
        run_voter_insert_kernel(kernel_table, keys, vals)
        vector_table = fresh_table()
        vector_table.insert(keys, vals)
        for table in (kernel_table, vector_table):
            table.validate()
            values, found = table.find(keys)
            assert found.all()
            assert np.array_equal(values, vals)
        assert len(kernel_table) == len(vector_table) == 500

    def test_counts_lock_traffic(self):
        table = fresh_table(buckets=8, capacity=32)
        keys = unique_keys(600, seed=3)
        result = run_voter_insert_kernel(table, keys, keys)
        assert result.lock_acquisitions >= 600
        assert result.rounds > 0
        assert result.memory_transactions > 0

    def test_evictions_happen_when_dense(self):
        table = fresh_table(buckets=8, capacity=8)
        keys = unique_keys(200, seed=4)
        result = run_voter_insert_kernel(table, keys, keys)
        table.validate()
        assert result.evictions > 0
        _, found = table.find(keys)
        assert found.all()

    def test_spin_variant_equivalent_result(self):
        table = fresh_table()
        keys = unique_keys(400, seed=5)
        result = run_spin_insert_kernel(table, keys, keys)
        assert result.completed_ops == 400
        table.validate()
        _, found = table.find(keys)
        assert found.all()

    def test_voter_wastes_fewer_rounds_under_skew(self):
        """The voter scheme's claim: under hot buckets it beats spinning.

        Averaged over several seeds to smooth scheduling noise; we
        require the voter variant to be at least as good on conflicts.
        """
        voter_conflicts = spin_conflicts = 0
        for seed in range(4):
            rng = np.random.default_rng(seed)
            hot = rng.choice(np.arange(1, 16, dtype=np.uint64), 300)
            cold = unique_keys(300, seed=100 + seed, low=1 << 33)
            keys = np.concatenate([hot, cold])
            rng.shuffle(keys)
            ta = fresh_table(buckets=256, capacity=16)
            tb = fresh_table(buckets=256, capacity=16)
            voter_conflicts += run_voter_insert_kernel(ta, keys, keys).lock_conflicts
            spin_conflicts += run_spin_insert_kernel(tb, keys, keys).lock_conflicts
        assert voter_conflicts <= spin_conflicts


class TestFindDeleteKernels:
    def test_find_matches_vectorized(self):
        table = fresh_table()
        keys = unique_keys(300, seed=6)
        table.insert(keys, keys * 2)
        probe = np.concatenate([keys[:150], unique_keys(50, seed=7,
                                                        low=1 << 40)])
        kv, kf, result = run_find_kernel(table, probe)
        vv, vf = table.find(probe)
        assert np.array_equal(kf, vf)
        assert np.array_equal(kv[kf], vv[vf])
        assert result.memory_transactions <= 2 * len(probe)

    def test_delete_matches_vectorized(self):
        keys = unique_keys(300, seed=8)
        kernel_table = fresh_table()
        kernel_table.insert(keys, keys)
        removed, result = run_delete_kernel(kernel_table, keys[:100])
        assert removed.all()
        kernel_table.validate()
        _, found = kernel_table.find(keys)
        assert not found[:100].any()
        assert found[100:].all()
        assert result.memory_transactions <= 2 * 100 + 100

    def test_delete_miss(self):
        table = fresh_table()
        removed, _ = run_delete_kernel(table, unique_keys(10, seed=9))
        assert not removed.any()


class TestResizeKernels:
    def test_upsize_kernel_matches_controller(self):
        keys = unique_keys(600, seed=10)
        kernel_table = fresh_table(buckets=32, capacity=8)
        kernel_table.insert(keys, keys)
        control_table = fresh_table(buckets=32, capacity=8)
        control_table.insert(keys, keys)

        # Both upsize subtable 0.
        run_upsize_kernel(kernel_table, 0)
        control_table._resizer._pick_upsize_target = lambda: 0
        control_table.upsize()

        for table in (kernel_table, control_table):
            table.validate()
            _, found = table.find(keys)
            assert found.all()
        assert (kernel_table.subtables[0].n_buckets
                == control_table.subtables[0].n_buckets)
        # Same entries in subtable 0 (layout may pack differently).
        k_codes = np.sort(kernel_table.subtables[0].export_entries()[0])
        c_codes = np.sort(control_table.subtables[0].export_entries()[0])
        assert np.array_equal(k_codes, c_codes)

    def test_downsize_kernel_returns_residuals(self):
        table = fresh_table(buckets=32, capacity=4)
        keys = unique_keys(300, seed=11)
        table.insert(keys, keys)
        st = table.subtables[0]
        size_before = st.size
        res_codes, res_values, result = run_downsize_kernel(table, 0)
        assert st.n_buckets == 16
        assert st.size + len(res_codes) == size_before
        assert result.completed_ops == size_before

    def test_downsize_then_reinsert_residuals(self):
        table = fresh_table(buckets=32, capacity=4)
        keys = unique_keys(300, seed=12)
        table.insert(keys, keys * 5)
        res_codes, res_values, _ = run_downsize_kernel(table, 1)
        if len(res_codes):
            current = np.full(len(res_codes), 1, dtype=np.int64)
            alternates = table.pair_hash.alternate_table(res_codes, current)
            table._insert_pending(res_codes, res_values, alternates,
                                  unhashed(len(res_codes)), excluded=1)
        table.validate()
        values, found = table.find(keys)
        assert found.all()
        assert np.array_equal(values, keys * np.uint64(5))


class TestMegaKVKernel:
    def test_insert_then_find(self):
        from repro.baselines.megakv import MegaKVTable
        from repro.kernels import run_megakv_insert_kernel

        table = MegaKVTable(initial_buckets=64, bucket_capacity=8,
                            auto_resize=False)
        keys = unique_keys(700, seed=20)
        result = run_megakv_insert_kernel(table, keys, keys * 3)
        assert result.completed_ops == 700
        table.validate()
        values, found = table.find(keys)
        assert found.all()
        assert np.array_equal(values, keys * np.uint64(3))

    def test_matches_vectorized_membership(self):
        from repro.baselines.megakv import MegaKVTable
        from repro.kernels import run_megakv_insert_kernel

        keys = unique_keys(400, seed=21)
        kernel_table = MegaKVTable(initial_buckets=64, bucket_capacity=8,
                                   auto_resize=False)
        run_megakv_insert_kernel(kernel_table, keys, keys)
        vector_table = MegaKVTable(initial_buckets=64, bucket_capacity=8,
                                   auto_resize=False)
        vector_table.insert(keys, keys)
        for table in (kernel_table, vector_table):
            table.validate()
            _, found = table.find(keys)
            assert found.all()
        assert len(kernel_table) == len(vector_table) == 400

    def test_evictions_under_density(self):
        from repro.baselines.megakv import MegaKVTable
        from repro.kernels import run_megakv_insert_kernel

        table = MegaKVTable(initial_buckets=8, bucket_capacity=8,
                            auto_resize=False)
        keys = unique_keys(100, seed=22)
        result = run_megakv_insert_kernel(table, keys, keys)
        table.validate()
        assert result.evictions > 0
        _, found = table.find(keys)
        assert found.all()

    def test_no_lock_traffic(self):
        """MegaKV's kernel is lock-free: exchanges, not CAS locks."""
        from repro.baselines.megakv import MegaKVTable
        from repro.kernels import run_megakv_insert_kernel

        table = MegaKVTable(initial_buckets=64, bucket_capacity=8,
                            auto_resize=False)
        keys = unique_keys(300, seed=23)
        result = run_megakv_insert_kernel(table, keys, keys)
        assert result.lock_acquisitions == 0
        assert result.lock_conflicts == 0


class TestConflictEstimateSanity:
    def test_estimator_tracks_kernel_measurement(self):
        """The occupancy estimate and the lane-level ground truth agree
        within an order of magnitude under matched concurrency."""
        from repro.gpusim.kernel import estimate_lock_conflicts

        table = fresh_table(buckets=32, capacity=8)
        keys = unique_keys(800, seed=24)
        result = run_voter_insert_kernel(table, keys, keys)
        num_warps = (800 + 31) // 32
        # In the kernel every warp is resident; one op per warp per round.
        estimated = estimate_lock_conflicts(
            800, 32 * 4, resident_warps=num_warps)
        measured = result.lock_conflicts
        assert measured > 0
        assert estimated / 10 <= measured <= estimated * 10
