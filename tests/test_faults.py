"""Fault-injection layer: determinism, replay, recovery, and schedules.

Covers the :mod:`repro.faults` plan mechanics, every injection site's
behaviour (resize aborts with rollback, stash degradation, lock stalls,
allocation failures), the bit-identical guarantee with
faults disabled, and a schedule-exploration sweep of the voter protocol
under injected lock interleavings.
"""

import numpy as np
import pytest

from .conftest import unique_keys
from repro.core.analysis import check_invariants
from repro.core.config import DyCuckooConfig
from repro.core.instruments import Instruments
from repro.core.table import DyCuckooTable
from repro.errors import (CapacityError, InvalidConfigError, ResizeError,
                          StashOverflowError)
from repro.faults import (DEFAULT_CHAOS_RATES, FAULT_SITES, NO_FAULTS,
                          FaultPlan, default_chaos_plan)
from repro.gpusim.kernel import LockArbiter
from repro.gpusim.memory_manager import DeviceMemoryManager
from repro.kernels.insert import run_voter_insert_kernel
from repro.oracle import DictModel
from repro.sanitizer import Sanitizer


def full_state(table: DyCuckooTable):
    """Bit-exact observable state of a table (for identity assertions)."""
    stash_codes, stash_values = table.stash.export_entries()
    return (
        len(table),
        [(st.n_buckets, st.size, st.keys.tobytes(), st.values.tobytes())
         for st in table.subtables],
        table.stats.snapshot(),
        sorted(zip(stash_codes.tolist(), stash_values.tolist())),
    )


def run_mixed_workload(table: DyCuckooTable, seed: int = 5,
                       batches: int = 12, batch: int = 120) -> None:
    rng = np.random.default_rng(seed)
    for _ in range(batches):
        keys = rng.integers(0, 800, batch).astype(np.uint64)
        table.insert(keys, keys * np.uint64(3))
        table.find(rng.integers(0, 800, batch // 2).astype(np.uint64))
        table.delete(rng.integers(0, 800, batch // 3).astype(np.uint64))


class TestFaultPlanMechanics:
    def test_same_seed_fires_identically(self):
        decisions = []
        for _ in range(2):
            plan = FaultPlan(seed=7, rates={"memory.alloc": 0.3})
            fired = [plan.fire("memory.alloc") is not None
                     for _ in range(200)]
            decisions.append(fired)
        assert decisions[0] == decisions[1]
        assert any(decisions[0]) and not all(decisions[0])

    def test_interleaving_independence(self):
        # Decisions depend on (seed, site, index) only, not on how other
        # sites' invocations interleave.
        solo = FaultPlan(seed=3, rates={"lock.acquire": 0.5})
        solo_fires = [solo.fire("lock.acquire") is not None
                      for _ in range(50)]
        mixed = FaultPlan(seed=3, rates={"lock.acquire": 0.5})
        mixed_fires = []
        for _ in range(50):
            mixed.fire("memory.alloc")
            mixed_fires.append(mixed.fire("lock.acquire") is not None)
            mixed.fire("insert.evict")
        assert solo_fires == mixed_fires

    def test_script_round_trip(self):
        plan = FaultPlan(seed=11, rates={site: 0.2 for site in FAULT_SITES})
        for i in range(100):
            plan.fire(FAULT_SITES[i % len(FAULT_SITES)])
        assert plan.fired
        replay = FaultPlan.from_script(plan.script_json())
        for i in range(100):
            replay.fire(FAULT_SITES[i % len(FAULT_SITES)])
        assert replay.fired == plan.fired

    def test_storm_arms_consecutive_failures(self):
        plan = FaultPlan(seed=0, rates={"memory.alloc": 0.05},
                         storms={"memory.alloc": 4})
        fired = [plan.fire("memory.alloc") is not None for _ in range(400)]
        # Every probabilistic fire must be followed by 3 forced fires.
        i = 0
        storms_seen = 0
        while i < len(fired):
            if fired[i]:
                assert all(fired[i:i + 4][:max(0, len(fired) - i)][:4]) or \
                    i + 4 > len(fired)
                storms_seen += 1
                i += 4
            else:
                i += 1
        assert storms_seen >= 1

    def test_validation(self):
        with pytest.raises(InvalidConfigError):
            FaultPlan(rates={"no.such.site": 0.1})
        with pytest.raises(InvalidConfigError):
            FaultPlan(rates={"memory.alloc": 1.5})
        with pytest.raises(InvalidConfigError):
            FaultPlan(storms={"memory.alloc": 0})
        with pytest.raises(InvalidConfigError):
            FaultPlan.from_script({"fired": [["no.such.site", 0, 1]]})
        with pytest.raises(InvalidConfigError):
            default_chaos_plan(intensity=-1.0)

    def test_no_faults_is_inert(self):
        assert NO_FAULTS.enabled is False
        assert NO_FAULTS.fire("memory.alloc") is None
        assert NO_FAULTS.fired == []

    def test_default_chaos_plan_covers_every_rate_site(self):
        plan = default_chaos_plan(seed=1, intensity=2.0)
        assert set(plan.rates) == set(DEFAULT_CHAOS_RATES)
        assert all(0.0 <= r <= 1.0 for r in plan.rates.values())

    def test_splitmix_array_matches_scalar(self):
        """The vectorized hash is bit-identical to the scalar draw the
        per-invocation path uses — the invariant the fault-window fast
        path rests on."""
        from repro.faults import _splitmix, _splitmix_array

        xs = np.concatenate([
            np.arange(0, 512, dtype=np.uint64),
            np.array([2**64 - 1, 2**63, 0x9E3779B97F4A7C15],
                     dtype=np.uint64),
        ])
        vec = _splitmix_array(xs)
        with np.errstate(over="ignore"):
            scalar = np.array([_splitmix(int(x)) for x in xs],
                              dtype=np.uint64)
        assert np.array_equal(vec, scalar)

    def test_window_may_fire_is_exact(self):
        """``False`` from the window check guarantees every decision in
        the window is a no-fire: walking the window with fire() must
        produce no faults and leave identical counters to advance()."""
        site = "lock.acquire"
        for seed in range(20):
            probe = FaultPlan(seed=seed, rates={site: 0.1})
            walked = FaultPlan(seed=seed, rates={site: 0.1})
            jumped = FaultPlan(seed=seed, rates={site: 0.1})
            for _ in range(40):
                window = 7
                may = probe.window_may_fire(site, window)
                fired_in_window = False
                for _ in range(window):
                    if walked.fire(site) is not None:
                        fired_in_window = True
                if not may:
                    assert not fired_in_window
                    jumped.advance(site, window)
                else:
                    for _ in range(window):
                        jumped.fire(site)
                probe.advance(site, window)
                assert jumped.invocations() == walked.invocations()
            assert jumped.fired == walked.fired

    def test_window_may_fire_respects_armed_storms(self):
        site = "memory.alloc"
        plan = FaultPlan(seed=0, rates={site: 0.0}, storms={site: 3})
        assert plan.window_may_fire(site, 8) is False
        plan._armed[site] = 2  # a storm mid-flight forces the slow path
        assert plan.window_may_fire(site, 8) is True

    def test_window_edge_cases(self):
        plan = FaultPlan(seed=4, rates={"lock.stall": 0.5})
        assert plan.window_may_fire("lock.stall", 0) is False
        before = dict(plan.invocations())
        plan.advance("lock.stall", 0)
        assert plan.invocations() == before
        # A scripted plan windows on exact indices.
        scripted = FaultPlan.from_script(
            {"seed": 0, "fired": [["lock.stall", 5, 2]]})
        assert scripted.window_may_fire("lock.stall", 5) is False
        scripted.advance("lock.stall", 5)
        assert scripted.window_may_fire("lock.stall", 1) is True
        fault = scripted.fire("lock.stall")
        assert fault is not None and fault.index == 5 and fault.param == 2


class TestSiteReachability:
    def test_every_site_is_consulted(self):
        """Each declared site is one the library really consults: a plan
        without rates never fires but counts every consult."""
        plan = FaultPlan(seed=0)
        table = DyCuckooTable(DyCuckooConfig(
            initial_buckets=256, bucket_capacity=4, min_buckets=8,
            migration_budget=4))
        table.attach(Instruments(faults=plan))
        keys = unique_keys(12 * 300, seed=40)
        for batch in np.split(keys, 12):
            table.insert(batch, batch)
        for batch in np.split(keys[:8 * 400], 8):
            table.delete(batch)
        assert table.stats.upsizes and table.stats.downsizes

        kernel_table = DyCuckooTable(DyCuckooConfig(
            initial_buckets=64, bucket_capacity=8, auto_resize=False))
        kernel_table.attach(Instruments(faults=plan))
        kernel_keys = unique_keys(256, seed=41)
        run_voter_insert_kernel(kernel_table, kernel_keys, kernel_keys)

        DeviceMemoryManager(faults=plan).set_allocation("table", 1 << 20)

        assert plan.fired == []
        invocations = plan.invocations()
        assert set(invocations) == set(FAULT_SITES)
        assert all(count > 0 for count in invocations.values())

    def test_removed_cas_site_is_rejected(self):
        with pytest.raises(InvalidConfigError):
            FaultPlan(rates={"atomics.cas": 0.1})
        with pytest.raises(InvalidConfigError):
            FaultPlan.from_script({"fired": [["atomics.cas", 0, 1]]})


class TestResizeAborts:
    @pytest.mark.parametrize("stage", ["trigger", "plan", "rehash"])
    def test_upsize_abort_leaves_state_unchanged(self, small_table, stage):
        keys = unique_keys(200, seed=1)
        small_table.insert(keys, keys)
        before = full_state(small_table)
        small_table.attach(Instruments(faults=FaultPlan.from_script(
            {"fired": [[f"resize.abort.{stage}", 0, 1]]})))
        with pytest.raises(ResizeError, match="injected resize abort"):
            small_table._resizer.upsize()
        small_table.attach(None)
        after = full_state(small_table)
        # Storage identical; only the abort counter moved.
        assert after[0] == before[0] and after[1] == before[1]
        assert small_table.stats.resize_aborts == 1
        small_table.validate()
        # The next, un-faulted upsize works normally.
        small_table.upsize()
        assert small_table.stats.upsizes >= 1

    @pytest.mark.parametrize("stage", ["trigger", "plan", "rehash"])
    def test_downsize_abort_rolls_back(self, stage):
        # auto_resize=False so the deletes leave shrink headroom for a
        # manual downsize to reach the injected stage.
        table = DyCuckooTable(DyCuckooConfig(
            initial_buckets=32, bucket_capacity=8, min_buckets=8,
            auto_resize=False))
        keys = unique_keys(120, seed=2)
        table.insert(keys, keys)
        table.delete(keys[:100])
        before = full_state(table)
        downsizes_before = table.stats.downsizes
        table.attach(Instruments(faults=FaultPlan.from_script(
            {"fired": [[f"resize.abort.{stage}", 0, 1]]})))
        with pytest.raises(ResizeError, match="injected resize abort"):
            table._resizer.downsize()
        table.attach(None)
        after = full_state(table)
        assert after[0] == before[0] and after[1] == before[1]
        assert table.stats.downsizes == downsizes_before
        table.validate()
        # The next, un-faulted downsize works normally.
        table.downsize()
        assert table.stats.downsizes == downsizes_before + 1

    def test_spill_abort_parks_residuals_in_stash(self):
        """An injected spill abort parks a slice's residuals in the stash
        and the downsize completes — the contract every automatic
        downsize already has; nothing is rolled back."""
        table = DyCuckooTable(DyCuckooConfig(
            initial_buckets=16, bucket_capacity=4, min_buckets=8,
            auto_resize=False))
        model = DictModel()
        keys = unique_keys(140, seed=3)
        assert model.apply(table, "insert", keys, keys + np.uint64(1)) == []
        plan = FaultPlan(seed=0, rates={"resize.abort.spill": 1.0})
        san = Sanitizer()
        table.attach(Instruments(faults=plan, sanitizer=san))
        before = table.stats.snapshot()
        table._resizer.downsize()
        assert plan.invocations()["resize.abort.spill"] == 1
        assert plan.fired_by_site() == {"resize.abort.spill": 1}
        delta = table.stats.delta(before)
        assert delta["downsizes"] == 1
        assert delta["resize_aborts"] == 1
        assert delta["residuals"] > 0
        assert delta["stash_pushes"] == delta["residuals"] == len(table.stash)
        assert model.divergence(table) == []
        assert san.report()["subtable_locks_held"] == 0
        assert san.ok, [str(v) for v in san.violations]
        table.validate()

    @pytest.mark.parametrize("stage", ["plan", "rehash"])
    def test_aborted_downsize_rolls_back_all_counters(self, stage):
        """An aborted downsize must leave *every* counter untouched.

        Regression: the rollback used to decrement only ``downsizes``,
        leaving ``rehashed_entries``/``residuals``/``bucket_reads``/
        ``bucket_writes`` inflated by work that was undone — the cost
        model would then charge simulated time for traffic that never
        stuck.  The delta across an aborted downsize must be exactly
        one ``resize_aborts`` tick.
        """
        config = DyCuckooConfig(initial_buckets=8, bucket_capacity=2,
                                min_buckets=4, auto_resize=False)
        table = DyCuckooTable(config)
        keys = unique_keys(40, seed=4)
        table.insert(keys, keys)
        plan = FaultPlan(seed=0, rates={f"resize.abort.{stage}": 1.0})
        table.attach(Instruments(faults=plan))
        before = table.stats.snapshot()
        aborted = False
        for _ in range(4):
            try:
                table._resizer.downsize()
            except ResizeError:
                aborted = True
                break
            before = table.stats.snapshot()
        assert aborted, "fault plan never aborted a downsize"
        delta = {name: count for name, count
                 in table.stats.delta(before).items() if count}
        assert delta == {"resize_aborts": 1}

    def test_spill_abort_counts_only_the_merge(self):
        """A spill-aborted downsize counts the merge of an un-faulted
        twin downsize, one ``resize_aborts`` tick and one stash push per
        parked residual — and none of the spill's own traffic."""
        spill_work = {"evictions", "eviction_rounds", "lock_acquisitions",
                      "bucket_reads", "bucket_writes"}

        def downsize_delta(plan):
            table = DyCuckooTable(DyCuckooConfig(
                initial_buckets=8, bucket_capacity=2, min_buckets=4,
                auto_resize=False))
            keys = unique_keys(40, seed=4)
            table.insert(keys, keys)
            table.attach(Instruments(faults=plan))
            before = table.stats.snapshot()
            table._resizer.downsize()
            table.validate()
            return {name: count for name, count
                    in table.stats.delta(before).items() if count}

        clean = downsize_delta(NO_FAULTS)
        plan = FaultPlan(seed=0, rates={"resize.abort.spill": 1.0})
        faulted = downsize_delta(plan)
        assert plan.fired_by_site() == {"resize.abort.spill": 1}
        assert clean["residuals"] > 0 and clean["eviction_rounds"] > 0
        merge = {n: c for n, c in clean.items() if n not in spill_work}
        assert {n: c for n, c in faulted.items() if n not in spill_work} \
            == {**merge, "resize_aborts": 1,
                "stash_pushes": clean["residuals"]}
        assert not {"evictions", "eviction_rounds",
                    "lock_acquisitions"} & faulted.keys()
        assert 0 < faulted["bucket_reads"] < clean["bucket_reads"]
        assert 0 < faulted["bucket_writes"] < clean["bucket_writes"]

    def test_enforce_bounds_survives_persistent_aborts(self, small_config):
        # Every resize aborts; batches must still complete and stay
        # differential-correct, just with theta temporarily off-bounds.
        table = DyCuckooTable(small_config)
        table.attach(Instruments(faults=FaultPlan(seed=0, rates={
            "resize.abort.trigger": 1.0})))
        keys = unique_keys(150, seed=6)
        table.insert(keys, keys + np.uint64(9))
        _values, found = table.find(keys)
        assert bool(found.all())
        assert table.stats.resize_aborts > 0
        check_invariants(table)


class TestStashDegradation:
    def make_stashed_table(self, capacity: int = 256):
        table = DyCuckooTable(DyCuckooConfig(
            initial_buckets=16, bucket_capacity=8, min_buckets=8,
            stash_capacity=capacity))
        table.attach(Instruments(faults=FaultPlan(seed=0, rates={
            "insert.evict": 1.0, "resize.abort.trigger": 1.0})))
        keys = unique_keys(32, seed=3)
        table.insert(keys, keys + np.uint64(1))
        return table, keys

    def test_exhausted_chain_with_aborted_upsize_stashes(self):
        table, keys = self.make_stashed_table()
        assert len(table.stash) == len(keys)
        assert table.stats.stash_pushes >= len(keys)
        assert len(table) == len(keys)
        check_invariants(table)

    def test_stashed_keys_findable_and_counted(self):
        table, keys = self.make_stashed_table()
        values, found = table.find(keys)
        assert bool(found.all())
        assert np.array_equal(values, keys + np.uint64(1))
        assert table.stats.stash_hits == len(keys)

    def test_stashed_keys_updatable_and_deletable(self):
        table, keys = self.make_stashed_table()
        table.insert(keys[:5], np.full(5, 77, dtype=np.uint64))
        values, found = table.find(keys[:5])
        assert bool(found.all()) and bool((values == 77).all())
        removed = table.delete(keys[:10])
        assert bool(removed.all())
        assert len(table) == len(keys) - 10

    def test_drain_back_after_successful_resize(self):
        table, keys = self.make_stashed_table()
        table.attach(None)          # recovery: faults stop
        table.upsize()              # completes, then drains the stash
        assert len(table.stash) == 0
        assert table.stats.stash_drained == len(keys)
        values, found = table.find(keys)
        assert bool(found.all())
        assert np.array_equal(values, keys + np.uint64(1))
        table.validate()

    def test_stash_overflow_raises(self):
        table = DyCuckooTable(DyCuckooConfig(
            initial_buckets=16, bucket_capacity=8, min_buckets=8,
            stash_capacity=4))
        table.attach(Instruments(faults=FaultPlan(seed=0, rates={
            "insert.evict": 1.0, "resize.abort.trigger": 1.0})))
        keys = unique_keys(32, seed=3)
        with pytest.raises(StashOverflowError, match="stash_capacity=4"):
            table.insert(keys, keys)
        assert isinstance(StashOverflowError("x"), CapacityError)

    def test_genuine_capacity_errors_unchanged(self):
        # auto_resize=False stalls and ceiling hits must NOT be absorbed
        # by the stash even with a fault plan attached.
        static = DyCuckooTable(DyCuckooConfig(
            initial_buckets=8, bucket_capacity=2, auto_resize=False,
            min_buckets=8, max_eviction_rounds=8))
        static.attach(Instruments(faults=FaultPlan(seed=0, rates={})))
        with pytest.raises(CapacityError, match="auto_resize disabled"):
            static.insert(unique_keys(200, seed=8),
                          np.zeros(200, dtype=np.uint64))
        assert len(static.stash) == 0

        capped = DyCuckooTable(DyCuckooConfig(
            initial_buckets=8, bucket_capacity=4, min_buckets=8,
            max_total_slots=4 * 8 * 4))
        capped.attach(Instruments(faults=FaultPlan(seed=0, rates={})))
        with pytest.raises(CapacityError, match="max_total_slots"):
            capped.insert(unique_keys(400, seed=9),
                          np.zeros(400, dtype=np.uint64))


class TestBitIdenticalWhenDisabled:
    def test_full_state_identical_across_mixed_workload(self, small_config):
        plain = DyCuckooTable(small_config)
        gated = DyCuckooTable(small_config)
        # An *enabled* plan whose rates never fire: every hook runs, no
        # fault fires — state must still be bit-identical to a table
        # that never saw the fault layer.
        gated.attach(Instruments(faults=FaultPlan(seed=123, rates={})))
        run_mixed_workload(plain)
        run_mixed_workload(gated)
        assert full_state(plain) == full_state(gated)

    def test_zero_intensity_chaos_plan_is_identity(self, small_config):
        plain = DyCuckooTable(small_config)
        gated = DyCuckooTable(small_config)
        gated.attach(Instruments(
            faults=default_chaos_plan(seed=5, intensity=0.0)))
        run_mixed_workload(plain, seed=21)
        run_mixed_workload(gated, seed=21)
        assert full_state(plain) == full_state(gated)
        assert gated.faults.fired == []


class TestGpusimFaultSites:
    def test_lock_arbiter_stall_accounting(self):
        plan = FaultPlan.from_script({"fired": [["lock.stall", 0, 2]]})
        arbiter = LockArbiter(faults=plan)
        assert not arbiter.try_acquire(7)    # phantom holder installed
        assert arbiter.injected_stalls == 1
        assert not arbiter.try_acquire(7)    # still stalled
        arbiter.tick()
        assert not arbiter.try_acquire(7)    # one round left
        arbiter.tick()
        assert arbiter.try_acquire(7)        # stall expired
        assert arbiter.acquisitions == 1
        assert arbiter.conflicts == 3

    def test_lock_arbiter_injected_acquire_failure(self):
        plan = FaultPlan.from_script({"fired": [["lock.acquire", 0, 1]]})
        arbiter = LockArbiter(faults=plan)
        assert not arbiter.try_acquire(3)
        assert arbiter.injected_failures == 1
        assert arbiter.try_acquire(3)        # free again next attempt

    def test_memory_manager_injected_alloc_failure(self):
        manager = DeviceMemoryManager(faults=FaultPlan.from_script(
            {"fired": [["memory.alloc", 0, 1]]}))
        with pytest.raises(CapacityError, match="injected allocation"):
            manager.set_allocation("table", 1_000_000)
        assert manager.resident_bytes == 0   # nothing mutated
        assert manager.injected_failures == 1
        manager.set_allocation("table", 1_000_000)
        assert manager.resident_bytes == 1_000_000

    def test_memory_manager_shrink_never_faults(self):
        manager = DeviceMemoryManager(faults=FaultPlan(seed=0, rates={
            "memory.alloc": 1.0}))
        with pytest.raises(CapacityError):
            manager.set_allocation("table", 500)
        manager.faults = NO_FAULTS
        manager.set_allocation("table", 500)
        manager.faults = FaultPlan(seed=0, rates={"memory.alloc": 1.0})
        manager.set_allocation("table", 100)  # shrink: no fault consulted
        assert manager.resident_bytes == 100


class TestVoterScheduleExploration:
    """Enumerate injected lock interleavings over a 3-warp insert kernel.

    For every schedule: no insert may be lost, the kernel must converge
    (no deadlock), and the revote accounting must surface the injected
    conflicts in the kernel metrics.
    """

    KEYS = 96  # three full warps

    def _fresh_table(self):
        return DyCuckooTable(DyCuckooConfig(
            initial_buckets=64, bucket_capacity=8, min_buckets=8,
            auto_resize=False))

    @pytest.mark.parametrize("site", ["lock.stall", "lock.acquire"])
    def test_single_fault_schedules(self, site):
        keys = unique_keys(self.KEYS, seed=11)
        for index in range(10):
            table = self._fresh_table()
            plan = FaultPlan.from_script(
                {"fired": [[site, index, 3]]})
            table.attach(Instruments(faults=plan))
            result = run_voter_insert_kernel(table, keys,
                                             keys * np.uint64(2))
            assert result.completed_ops == self.KEYS, \
                f"lost inserts with {site}@{index}"
            _values, found = table.find(keys)
            assert bool(found.all())
            fired = plan.fired_by_site().get(site, 0)
            assert result.lock_conflicts >= fired

    def test_stall_storm_schedule(self):
        keys = unique_keys(self.KEYS, seed=12)
        table = self._fresh_table()
        plan = FaultPlan(seed=9, rates={"lock.stall": 0.2},
                         params={"lock.stall": 5})
        table.attach(Instruments(faults=plan))
        result = run_voter_insert_kernel(table, keys, keys)
        assert result.completed_ops == self.KEYS
        _values, found = table.find(keys)
        assert bool(found.all())
        stalls = plan.fired_by_site().get("lock.stall", 0)
        assert stalls > 0, "storm never fired — raise the rate"
        # Each 5-round stall forces at least one extra revote round.
        assert result.lock_conflicts >= stalls

    def test_voter_vs_spin_both_survive_stalls(self):
        from repro.kernels.insert import run_spin_insert_kernel

        keys = unique_keys(64, seed=13)
        for runner in (run_voter_insert_kernel, run_spin_insert_kernel):
            table = self._fresh_table()
            table.attach(Instruments(faults=FaultPlan(seed=4, rates={
                "lock.stall": 0.1, "lock.acquire": 0.2})))
            result = runner(table, keys, keys)
            assert result.completed_ops == len(keys)
            _values, found = table.find(keys)
            assert bool(found.all())
