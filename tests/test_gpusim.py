"""Tests for the SIMT simulator substrate."""

import numpy as np
import pytest

from repro.errors import InvalidConfigError
from repro.gpusim import (GTX_1080, CostModel, DeviceSpec,
                          LockArbiter, Occupancy, RoundScheduler, V100,
                          WarpContext, atomic_batch_seconds,
                          atomic_throughput_mops,
                          coalesced_io_throughput_mops, mops)
from repro.gpusim.kernel import (ORDER_BLOCK_ENTRIES, ORDER_BLOCK_ROUNDS,
                                 order_block_rounds, round_orders)


class TestDeviceSpec:
    def test_gtx_1080_matches_paper(self):
        assert GTX_1080.num_sms == 20
        assert GTX_1080.cores_per_sm == 128
        assert GTX_1080.warp_size == 32
        assert GTX_1080.device_memory_bytes == 8 * 1024 ** 3

    def test_derived_quantities(self):
        assert GTX_1080.total_cores == 2560
        assert GTX_1080.max_resident_warps == 20 * 64
        assert GTX_1080.effective_bandwidth_bytes_per_s == pytest.approx(
            320e9 * 0.75)

    def test_validation(self):
        with pytest.raises(InvalidConfigError):
            DeviceSpec(warp_size=0)
        with pytest.raises(InvalidConfigError):
            DeviceSpec(mem_efficiency=1.5)


class TestWarpContext:
    def test_ballot_and_ffs(self):
        ctx = WarpContext(0)
        pred = np.zeros(32, dtype=bool)
        pred[[3, 7, 31]] = True
        mask = ctx.ballot(pred)
        assert mask == (1 << 3) | (1 << 7) | (1 << 31)
        assert ctx.ffs(mask) == 3
        assert ctx.ffs(0) == -1

    def test_ballot_shape_checked(self):
        ctx = WarpContext(0)
        with pytest.raises(InvalidConfigError):
            ctx.ballot(np.zeros(16, dtype=bool))

    def test_shfl(self):
        ctx = WarpContext(0)
        values = np.arange(32)
        assert ctx.shfl(values, 5) == 5
        with pytest.raises(InvalidConfigError):
            ctx.shfl(values, 32)


class TestAtomics:
    def test_throughput_degrades_with_conflicts(self):
        """The Figure-5 shape: more same-address atomics, lower Mops."""
        t1 = atomic_throughput_mops(1 << 16, conflicts_per_address=1)
        t32 = atomic_throughput_mops(1 << 16, conflicts_per_address=32)
        t1024 = atomic_throughput_mops(1 << 16, conflicts_per_address=1024)
        assert t1 > t32 > t1024
        assert t1 / t1024 > 50  # severe degradation, as profiled

    def test_cas_slower_than_exch(self):
        cas = atomic_throughput_mops(1 << 16, 64, cas=True)
        exch = atomic_throughput_mops(1 << 16, 64, cas=False)
        assert exch > cas

    def test_coalesced_io_flat(self):
        """The coalesced-IO baseline does not depend on conflicts."""
        io = coalesced_io_throughput_mops(1 << 16)
        assert io > atomic_throughput_mops(1 << 16, 1024)

    def test_empty_batch(self):
        assert atomic_batch_seconds(np.array([])) == 0.0


class TestScheduler:
    class CountdownWarp:
        def __init__(self, n):
            self.remaining = n
            self.steps_seen = []

        def finished(self):
            return self.remaining == 0

        def step(self, round_index):
            self.steps_seen.append(round_index)
            self.remaining -= 1

    def test_runs_to_completion(self):
        warps = [self.CountdownWarp(3), self.CountdownWarp(5)]
        scheduler = RoundScheduler(warps)
        rounds = scheduler.run()
        assert rounds == 5
        assert warps[0].remaining == 0 and warps[1].remaining == 0

    def test_round_limit(self):
        warps = [self.CountdownWarp(100)]
        scheduler = RoundScheduler(warps, max_rounds=10)
        with pytest.raises(RuntimeError):
            scheduler.run()

    def test_callbacks_fire_in_order(self):
        events = []
        scheduler = RoundScheduler([self.CountdownWarp(2)])
        scheduler.run(before_round=lambda i: events.append(("b", i)),
                      after_round=lambda i: events.append(("a", i)))
        assert events == [("b", 0), ("a", 0), ("b", 1), ("a", 1)]


class TestRoundOrders:
    """Scheduler orders drawn a block of rounds at a time."""

    @pytest.mark.parametrize("num_warps", [1, 2, 3, 10, 33, 1250])
    def test_blocks_equal_successive_permutations(self, num_warps):
        blocks = 3
        rounds = blocks * order_block_rounds(num_warps) + 1
        orders = round_orders(np.random.default_rng(11), num_warps)
        reference = np.random.default_rng(11)
        for _ in range(rounds):
            order, position = next(orders)
            expected = reference.permutation(num_warps)
            np.testing.assert_array_equal(order, expected)
            np.testing.assert_array_equal(position[expected],
                                          np.arange(num_warps))

    def test_block_size_is_capped_for_wide_launches(self):
        assert order_block_rounds(10) == ORDER_BLOCK_ROUNDS
        assert order_block_rounds(1250) * 1250 <= ORDER_BLOCK_ENTRIES
        assert order_block_rounds(10 ** 7) == 1

    @pytest.mark.parametrize("engine", ["warp", "cohort"])
    def test_both_insert_engines_schedule_through_it(self, engine,
                                                     monkeypatch):
        from repro.core.config import DyCuckooConfig
        from repro.core.table import DyCuckooTable
        from repro.gpusim import cohort, kernel
        from repro.kernels import run_voter_insert_kernel

        calls = []

        def spy(rng, num_warps):
            calls.append(num_warps)
            return round_orders(rng, num_warps)

        monkeypatch.setattr(kernel, "round_orders", spy)
        monkeypatch.setattr(cohort, "round_orders", spy)
        table = DyCuckooTable(DyCuckooConfig(initial_buckets=64,
                                             auto_resize=False))
        keys = np.arange(1, 101, dtype=np.uint64)
        run_voter_insert_kernel(table, keys, keys, engine=engine)
        assert calls == [4]


class TestLockArbiter:
    def test_mutual_exclusion(self):
        arb = LockArbiter()
        assert arb.try_acquire(5)
        assert not arb.try_acquire(5)
        assert arb.try_acquire(6)
        assert arb.acquisitions == 2
        assert arb.conflicts == 1

    def test_lock_held_until_release(self):
        arb = LockArbiter()
        assert arb.try_acquire(1)
        assert not arb.try_acquire(1)
        arb.release(1)
        assert arb.try_acquire(1)


class TestOccupancy:
    def test_default_high_occupancy(self):
        occ = Occupancy()
        assert occ.warps_per_sm() == 64  # lean kernels hit the arch limit
        assert occ.resident_warps() == 64 * 20

    def test_register_pressure_reduces_occupancy(self):
        occ = Occupancy(registers_per_thread=128)
        assert occ.warps_per_sm() < 64

    def test_shared_memory_pressure(self):
        occ = Occupancy(shared_bytes_per_block=49152, threads_per_block=256)
        assert occ.warps_per_sm() <= 16

    def test_threads_must_be_warp_multiple(self):
        with pytest.raises(InvalidConfigError):
            Occupancy(threads_per_block=100).warps_per_sm()

    def test_v100_has_more_warps(self):
        assert (Occupancy(device=V100).resident_warps()
                > Occupancy(device=GTX_1080).resident_warps())


class TestCostModel:
    def test_more_transactions_cost_more(self):
        model = CostModel()
        cheap = model.batch_seconds({"bucket_reads": 1000}, 1000)
        pricey = model.batch_seconds({"bucket_reads": 10_000}, 1000)
        assert pricey > cheap

    def test_conflicts_cost_more_than_clean_locks(self):
        model = CostModel()
        clean = model.batch_seconds({"lock_acquisitions": 10_000}, 10_000)
        contended = model.batch_seconds(
            {"lock_acquisitions": 10_000, "lock_conflicts": 10_000}, 10_000)
        assert contended > clean

    def test_full_rehash_overhead(self):
        model = CostModel()
        without = model.batch_seconds({"bucket_reads": 100}, 100)
        with_rehash = model.batch_seconds(
            {"bucket_reads": 100, "full_rehashes": 1}, 100)
        assert with_rehash > without + 1e-5

    def test_overhead_scale(self):
        """Scaled experiments shrink fixed costs proportionally."""
        full = CostModel(overhead_scale=1.0)
        scaled = CostModel(overhead_scale=0.01)
        delta = {"full_rehashes": 2, "upsizes": 3, "eviction_rounds": 10}
        assert scaled.overhead_seconds(delta) == pytest.approx(
            full.overhead_seconds(delta) * 0.01)
        # Traffic costs are NOT scaled — they already shrank with the data.
        traffic = {"bucket_reads": 1000}
        assert scaled.memory_seconds(traffic) == full.memory_seconds(traffic)

    def test_mops_helper(self):
        assert mops(1_000_000, 1.0) == pytest.approx(1.0)
        assert mops(1_000_000, 0.0) == float("inf")

    def test_find_throughput_plausible(self):
        """1M two-bucket finds should land in the GPU hash-table regime
        (hundreds to a few thousand Mops), not orders off."""
        model = CostModel()
        rate = model.mops({"bucket_reads": 1_100_000}, 1_000_000)
        assert 200 < rate < 5000
