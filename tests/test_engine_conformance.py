"""Warp-vs-cohort engine conformance (the contract of PR 4).

The cohort engine (:mod:`repro.gpusim.cohort`) must be *bit-for-bit*
equivalent to the per-warp reference interpreter: identical results,
identical storage mutations, identical aggregate cost counters
(transactions, lock acquisitions/conflicts, rounds, evictions), and an
identical telemetry stream.  These tests drive both engines over twin
tables — deterministic trouble-spot scenarios first, then a Hypothesis
property test over random mixed batches with resize storms and fault
plans.

``REPRO_FUZZ_EXAMPLES`` scales the property-test example budget.
"""

import dataclasses
import os
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.batch_ops import (OP_DELETE, OP_FIND, OP_INSERT,
                                  EncodedBatch, execute_mixed, op_runs,
                                  plan_runs)
from repro.core.config import DyCuckooConfig
from repro.core.instruments import Instruments
from repro.core.subtable import EMPTY
from repro.core.table import DyCuckooTable
from repro.errors import InvalidConfigError
from repro.faults import default_chaos_plan
from repro.kernels import (run_delete_kernel, run_find_kernel,
                           run_spin_insert_kernel, run_voter_insert_kernel)
from repro.oracle import DictModel, twin_divergence
from repro.sanitizer import Sanitizer
from repro.shard import ShardedDyCuckoo
from repro.telemetry import Telemetry

from .conftest import launch_insert, unique_keys

MAX_EXAMPLES = int(os.environ.get("REPRO_FUZZ_EXAMPLES", "25"))


def twin_tables(buckets=64, capacity=8, seed=3, **kw):
    """Two identically configured, identically seeded tables.

    Both carry a live :class:`~repro.sanitizer.Sanitizer`, so every
    conformance scenario doubles as a race/lock-discipline audit of
    both engines.
    """
    def make():
        table = DyCuckooTable(DyCuckooConfig(
            initial_buckets=buckets, bucket_capacity=capacity,
            auto_resize=False, seed=seed, **kw))
        table.attach(Instruments(sanitizer=Sanitizer()))
        return table
    return make(), make()


def add_instruments(table: DyCuckooTable, **handles) -> Instruments:
    """Attach ``handles`` on top of the ones ``table`` already carries."""
    table.attach(dataclasses.replace(table.instruments, **handles))
    return table.instruments


def assert_tables_identical(tw: DyCuckooTable, tc: DyCuckooTable,
                            rw=None, rc=None) -> None:
    """Storage (and results, when given) bit-equal per
    :func:`repro.oracle.twin_divergence`; sanitizers clean."""
    assert twin_divergence(tw, rw, tc, rc) == []
    for table in (tw, tc):
        san = table.sanitizer
        if san.enabled:
            assert san.ok, [str(v) for v in san.violations]
            assert not san.report()["subtable_locks_held"]


def run_twins(kernel, tw: DyCuckooTable, tc: DyCuckooTable, *args):
    """Run a kernel entry point on the warp twin and the cohort twin.

    Outputs and storage must be bit-equal and the sanitizers clean;
    returns the warp twin's output.
    """
    out = kernel(tw, *args)
    assert_tables_identical(tw, tc, out, kernel(tc, *args, engine="cohort"))
    return out


class TestKernelEntryPoints:
    def test_insert_find_delete_identical(self):
        tw, tc = twin_tables()
        keys = unique_keys(1200, seed=21)
        run_twins(run_voter_insert_kernel, tw, tc, keys, keys * np.uint64(7))
        run_twins(run_find_kernel, tw, tc, keys)
        run_twins(run_delete_kernel, tw, tc, keys[::3])

    def test_spin_variant_identical(self):
        tw, tc = twin_tables(buckets=16)
        keys = unique_keys(400, seed=22)
        run_twins(run_spin_insert_kernel, tw, tc, keys, keys)

    def test_high_fill_eviction_chains_identical(self):
        """~97% fill maximizes eviction chains and lock contention."""
        tw, tc = twin_tables(buckets=8, capacity=8)
        keys = unique_keys(248, seed=23)
        rw = run_twins(run_voter_insert_kernel, tw, tc, keys, keys)
        assert rw.evictions > 0  # the scenario must exercise eviction

    def test_duplicate_heavy_batch_identical(self):
        """Duplicates inside a batch hit the scalar-replay hazard path."""
        base = unique_keys(60, seed=24)
        keys = np.concatenate([base, base[:30], base[:15]])
        values = np.arange(len(keys), dtype=np.uint64)
        tw, tc = twin_tables(buckets=8, capacity=8)
        run_twins(run_voter_insert_kernel, tw, tc, keys, values)

    def test_empty_launches_identical(self):
        """An empty insert, find and delete is still one kernel launch
        per op on either engine: same sanitizer scopes and exits, same
        profiler records."""
        from repro.telemetry import Profiler

        tw, tc = twin_tables()
        for table in (tw, tc):
            add_instruments(table, profiler=Profiler())
        empty = np.zeros(0, dtype=np.uint64)
        run_twins(run_voter_insert_kernel, tw, tc, empty, empty)
        run_twins(run_find_kernel, tw, tc, empty)
        run_twins(run_delete_kernel, tw, tc, empty)
        assert tw.sanitizer.stats["kernels"] == 3
        assert tw.sanitizer.stats == tc.sanitizer.stats
        assert [k["op"] for k in tw.profiler.kernels] == [
            "insert", "find", "delete"]
        assert tw.profiler.snapshot() == tc.profiler.snapshot()

    def test_unknown_engine_rejected(self):
        table, _ = twin_tables()
        with pytest.raises(InvalidConfigError):
            run_find_kernel(table, unique_keys(4), engine="simd")
        with pytest.raises(InvalidConfigError):
            execute_mixed(table, [OP_FIND], [1], engine="simd")

    def test_fault_plans_native_soa_conformance(self):
        """Fault-bearing inserts run natively in the SoA path.

        The cohort engine no longer delegates to the warp interpreter
        when a fault plan is armed — it consults the same (seed, site,
        index) decisions through the vectorized window check — so the
        result, the plan's invocation counters, the exact fired-fault
        sequence, storage, and sanitizer stats must all be
        bit-identical to the reference.
        """
        tw, tc = twin_tables()
        pw = add_instruments(tw, faults=default_chaos_plan(seed=5)).faults
        pc = add_instruments(tc, faults=default_chaos_plan(seed=5)).faults
        keys = unique_keys(300, seed=25)
        run_twins(run_voter_insert_kernel, tw, tc, keys, keys)
        assert pw.fired, "the chaos plan must actually inject faults"
        assert pw.fired == pc.fired
        assert pw.invocations() == pc.invocations()
        assert tw.sanitizer.stats == tc.sanitizer.stats

    def test_scripted_fault_plans_conform(self):
        """Scripted (exact-index) plans replay identically on both
        engines, including multi-round stalls."""
        from repro.faults import FaultPlan

        fired = ([["lock.acquire", i, 1] for i in (0, 3, 7, 11, 40)]
                 + [["lock.stall", i, 3] for i in (2, 9, 25)])
        tw, tc = twin_tables(buckets=16)
        pw = add_instruments(tw, faults=FaultPlan.from_script(
            {"seed": 1, "fired": fired})).faults
        pc = add_instruments(tc, faults=FaultPlan.from_script(
            {"seed": 1, "fired": fired})).faults
        keys = unique_keys(200, seed=26)
        run_twins(run_voter_insert_kernel, tw, tc, keys, keys)
        assert [(f.site, f.index, f.param) for f in pw.fired] \
            == [(f.site, f.index, f.param) for f in pc.fired]
        assert pw.invocations() == pc.invocations()
        assert tw.sanitizer.stats == tc.sanitizer.stats


class _AccessLog(Sanitizer):
    """A sanitizer that also keeps every storage access and lock event
    as ``(round, warp, event, address)``, so two engines' streams can be
    compared round by round."""

    def __init__(self) -> None:
        super().__init__()
        self.round = -1
        self.events: list[tuple] = []

    def begin_round(self, index: int) -> None:
        super().begin_round(index)
        self.round = index

    def record_access(self, warp: int, kind: str, space: str,
                      address: int, site: str = "") -> None:
        self.events.append((self.round, warp, f"{kind}:{space}", address))
        super().record_access(warp, kind, space, address, site=site)

    def on_lock_acquire(self, warp: int, resource: int,
                        site: str = "") -> None:
        self.events.append((self.round, warp, "acquire", resource))
        super().on_lock_acquire(warp, resource, site=site)

    def on_lock_release(self, warp: int, resource: int,
                        site: str = "") -> None:
        self.events.append((self.round, warp, "release", resource))
        super().on_lock_release(warp, resource, site=site)


class TestAcrossOrderBlocks:
    """Warp ≡ cohort on a launch that spans several blocks of round
    orders (:func:`repro.gpusim.kernel.round_orders`).

    245 keys aimed at their pairs' first subtables fill 96 % of a
    256-slot table, so the launch's 8 warps run long eviction chains and
    lock conflicts for more than two blocks of rounds, while a scripted
    plan fires lock faults.  Storage, outputs, counters, fault
    decisions, the profiler and the sanitizer's round-by-round access
    and lock streams must all agree: a lane left at its old bucket after
    an eviction, an alternate-bucket address read after the lane is
    retargeted, or one engine reading its order and the other its
    positions from the wrong round each break one of them.
    """

    @pytest.mark.parametrize("voter", [True, False])
    def test_long_launch_identical(self, voter):
        from repro.faults import FaultPlan
        from repro.gpusim.kernel import order_block_rounds
        from repro.telemetry import Profiler

        script = {"seed": 1, "fired": [["lock.acquire", 5, 1],
                                       ["lock.stall", 40, 3],
                                       ["lock.acquire", 150, 1]]}
        tw, tc = twin_tables(buckets=8, capacity=8)
        plans = [FaultPlan.from_script(script) for _ in range(2)]
        batch = EncodedBatch(tc, unique_keys(245, seed=90))
        values = batch.codes * np.uint64(3)
        results = []
        for table, engine, plan in ((tw, "warp", plans[0]),
                                    (tc, "cohort", plans[1])):
            add_instruments(table, sanitizer=_AccessLog(),
                            profiler=Profiler())
            results.append(launch_insert(table, engine, batch, values,
                                         batch.first, voter, faults=plan))
        rw, rc = results
        assert dataclasses.asdict(rw) == dataclasses.asdict(rc)
        assert_tables_identical(tw, tc)
        assert rw.rounds > 2 * order_block_rounds(len(batch) // 32 + 1)
        assert rw.evictions > 0 and rw.lock_conflicts > 0
        assert plans[0].fired and plans[0].fired == plans[1].fired
        assert plans[0].invocations() == plans[1].invocations()
        assert tw.sanitizer.stats == tc.sanitizer.stats
        assert sorted(tw.sanitizer.events) == sorted(tc.sanitizer.events)
        assert tw.profiler.snapshot() == tc.profiler.snapshot()


class TestDeleteDedupe:
    """Repeated keys in a delete batch: the first occurrence removes the
    entry and the later ones miss, with the same probe accounting as a
    batch of the distinct keys alone.  A batch without repeats is probed
    as is, one with repeats through a view of its first occurrences."""

    @staticmethod
    def _batch():
        keys = unique_keys(300, seed=83)
        missing = unique_keys(12, seed=84, low=1 << 50)
        batch = np.concatenate([keys[:40], missing, keys[20:60], keys[:10],
                                missing[:4], keys[100:130]])
        return keys, batch

    @staticmethod
    def _first_hits(batch, live):
        seen: set[int] = set()
        hits = []
        for k in batch.tolist():
            hits.append(k in live and k not in seen)
            seen.add(k)
        return np.array(hits)

    def test_host_path(self):
        keys, batch = self._batch()
        config = DyCuckooConfig(initial_buckets=64, auto_resize=False,
                                seed=3)
        repeated, distinct = DyCuckooTable(config), DyCuckooTable(config)
        for table in (repeated, distinct):
            table.insert(keys, keys)
        before = dataclasses.asdict(repeated.stats)
        removed = repeated.delete(batch)
        assert removed.tolist() == self._first_hits(
            batch, set(keys.tolist())).tolist()
        _, first = np.unique(batch, return_index=True)
        distinct.delete(batch[np.sort(first)])
        after = dataclasses.asdict(repeated.stats)
        reference = dataclasses.asdict(distinct.stats)
        for field in ("bucket_reads", "bucket_writes", "delete_hits"):
            assert after[field] - before[field] \
                == reference[field] - before[field], field
        assert after["deletes"] - before["deletes"] == len(batch)
        assert twin_divergence(repeated, None, distinct, None) == []

    @pytest.mark.parametrize("repeats", [True, False])
    def test_kernel_engines(self, repeats):
        keys, batch = self._batch()
        _, first = np.unique(batch, return_index=True)
        distinct = batch[np.sort(first)]
        if not repeats:
            batch = distinct
        tw, tc = twin_tables()
        run_twins(run_voter_insert_kernel, tw, tc, keys, keys)
        _, reference = run_delete_kernel(tw.copy(), distinct)
        removed, result = run_twins(run_delete_kernel, tw, tc, batch)
        expected = self._first_hits(batch, set(keys.tolist()))
        assert removed.tolist() == expected.tolist()
        # Every op reads its first bucket, each one that misses there
        # (every later repeat among them) the second, and each removal
        # writes once: the distinct keys' first-bucket hits set the
        # count.
        n, u, hits = len(batch), len(distinct), int(expected.sum())
        hit_first = 2 * u + hits - reference.memory_transactions
        assert result.memory_transactions == 2 * n - hit_first + hits
        assert result.completed_ops == hits


class TestHazardResolution:
    """Key-coincidence (hazard) rounds of cohort phase 2.

    A round in which a key is carried twice — by two locked warps, or
    by one warp and as another's victim — is replayed warp by warp in
    permutation order.

    Duplicate keys in one batch share a router target and therefore a
    lock, so genuine hazards need either eviction retargeting or
    adversarial targets.  These tests drive the engines directly with
    crafted per-key targets (always one of the key's legal pair
    members) to force snapshot/live divergence, then require bit
    equality everywhere.
    """

    def _run_adversarial(self, seed, n=256, buckets=8, capacity=8):
        rng = np.random.default_rng(seed)
        tw, tc = twin_tables(buckets=buckets, capacity=capacity)
        base = rng.integers(1, n // 2, size=n).astype(np.uint64)
        values = np.arange(1, n + 1, dtype=np.uint64)
        batch = EncodedBatch(tc, base)
        first, second = tw.pair_hash.tables_for(batch.codes)
        coin = rng.integers(0, 2, size=n).astype(bool)
        targets = np.where(coin, first, second)
        rw = launch_insert(tw, "warp", batch, values, targets)
        rc = launch_insert(tc, "cohort", batch, values, targets)
        return tw, tc, rw, rc

    def test_adversarial_targets_identical(self):
        hazardous = 0
        for seed in range(8):
            tw, tc, rw, rc = self._run_adversarial(seed)
            assert dataclasses.asdict(rw) == dataclasses.asdict(rc)
            assert tw.sanitizer.stats == tc.sanitizer.stats
            assert_tables_identical(tw, tc)
            hazardous += rc.hazard_rounds
        assert hazardous > 0, \
            "the scenario bank must exercise the hazard replay"

    def test_victim_carries_same_round_alternate_update(self):
        """An evicted victim carries the value an earlier warp of the
        same round wrote into it.

        Bucket ``X`` is full and holds key ``K`` in the slot the victim
        counter picks next.  Two warps lock in round 0 and complete in
        round 1: warp ``A`` carries ``K`` aimed at the other subtable of
        its pair, so it alternate-hits ``K`` in ``X`` with a new value;
        warp ``B`` steps after it, holds ``X`` and evicts ``K``.  The
        victim must leave with ``A``'s value, read when ``B`` runs.
        """
        cap = 8
        tw, tc = twin_tables(buckets=8, capacity=cap)
        pool = unique_keys(4000, seed=5)
        enc = EncodedBatch(tc, pool)
        t_x = int(enc.second[0])
        raw_x = np.where(enc.first == t_x, enc.candidate_raw[0],
                         enc.candidate_raw[1])
        in_x = (enc.first == t_x) | (enc.second == t_x)
        bucket_x = tc.bucket_of_raw(t_x, raw_x)
        x = int(bucket_x[0])
        # Pool index 0 is K; cap - 1 mates fill X around it, one more
        # is B's key.
        mates = np.flatnonzero(in_x & (bucket_x == x))[1:cap + 1]
        assert len(mates) == cap
        # K sits in the slot the round's only eviction takes.
        victim_slot = (tc._victim_counter + x) % cap
        stored = np.insert(mates[:cap - 1], victim_slot, 0)
        for table in (tw, tc):
            st = table.subtables[t_x]
            st.keys[x] = enc.codes[stored]
            st.values[x] = np.arange(100, 100 + cap, dtype=np.uint64)
            st.size += cap
        k_key, b_key = pool[0], pool[mates[-1]]

        # Warp A must step before warp B in round 1's permutation.
        rng = np.random.default_rng(0)
        rng.permutation(2)
        first_warp = int(rng.permutation(2)[0])
        leaders = [k_key, b_key] if first_warp == 0 else [b_key, k_key]
        batch, targets = _warps_led_by(tc, np.array(leaders), seed=5)
        targets = targets.copy()
        a_lane = 32 * first_warp
        targets[a_lane] = enc.first[0]
        targets[32 - a_lane] = t_x
        values = np.arange(1, len(batch) + 1, dtype=np.uint64)
        rw = launch_insert(tw, "warp", batch, values, targets)
        rc = launch_insert(tc, "cohort", batch, values, targets)
        assert dataclasses.asdict(rw) == dataclasses.asdict(rc)
        assert tw.sanitizer.stats == tc.sanitizer.stats
        assert_tables_identical(tw, tc)
        assert rc.hazard_rounds > 0
        for table in (tw, tc):
            got, found = table.find(np.array([k_key], dtype=np.uint64))
            assert found[0] and got[0] == values[a_lane]

    def test_hazard_rounds_counted_by_profiler(self):
        from repro.telemetry import Profiler

        hazardous = 0
        for seed in range(8):
            rng = np.random.default_rng(seed)
            table, _ = twin_tables(buckets=8, capacity=8)
            prof = add_instruments(table, profiler=Profiler()).profiler
            n = 256
            base = rng.integers(1, n // 2, size=n).astype(np.uint64)
            batch = EncodedBatch(table, base)
            first, second = table.pair_hash.tables_for(batch.codes)
            coin = rng.integers(0, 2, size=n).astype(bool)
            targets = np.where(coin, first, second)
            result = launch_insert(table, "cohort", batch,
                                   np.arange(1, n + 1, dtype=np.uint64),
                                   targets)
            kernel, = prof.kernels
            assert (kernel["op"], kernel["n"]) == ("insert", n)
            assert prof.hazard_rounds >= result.hazard_rounds
            assert prof.hazard_lanes >= result.hazard_lanes
            hazardous += result.hazard_rounds
        assert hazardous > 0

    @settings(max_examples=MAX_EXAMPLES, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(base=st.lists(st.integers(1, 40), min_size=16, max_size=96),
           seed=st.integers(0, 31))
    def test_duplicate_majority_batches_conform(self, base, seed):
        """Batches with >= 50% duplicate keys per warp, end to end.

        Each drawn key is repeated twice adjacently, so every 32-lane
        warp holds at most 16 distinct keys — a guaranteed >= 50%
        duplicate rate — and the whole public pipeline (router,
        kernels, sanitizer stream) must stay bit-identical.
        """
        rng = np.random.default_rng(seed)
        keys = np.repeat(np.array(base, dtype=np.uint64), 2)
        keys = rng.permutation(keys)
        values = rng.integers(1, 1 << 32, size=len(keys)).astype(np.uint64)
        tw, tc = twin_tables(buckets=8, capacity=8)
        run_twins(run_voter_insert_kernel, tw, tc, keys, values)
        _values, found, _stats = run_twins(run_find_kernel, tw, tc, keys)
        assert found.all(), "every inserted key must be found"
        assert tw.sanitizer.stats == tc.sanitizer.stats


def _bucket_mates(table: DyCuckooTable, n: int, seed: int) -> np.ndarray:
    """``n`` distinct keys of pairs holding subtable 0 that all hash to
    one bucket of it, so leaders carrying them request one lock."""
    pool = unique_keys(4000, seed=seed)
    batch = EncodedBatch(table, pool)
    ours = batch.first == 0
    # Row 0 of the cache is each key's hash under its first subtable.
    buckets = table.bucket_of_raw(0, batch.candidate_raw[0])
    mates = pool[ours & (buckets == buckets[ours][0])]
    assert len(mates) >= n
    return mates[:n]


def _warps_led_by(table: DyCuckooTable, leaders: np.ndarray,
                  seed: int) -> tuple[EncodedBatch, np.ndarray]:
    """One full warp per key of ``leaders``, that key on lane 0, every
    lane targeting its pair's first subtable."""
    fill = unique_keys(31 * len(leaders), seed=seed, low=1 << 62,
                       high=1 << 63)
    keys = np.concatenate([np.concatenate([[k], lanes]) for k, lanes in
                           zip(leaders, fill.reshape(len(leaders), 31))]
                          ).astype(np.uint64)
    batch = EncodedBatch(table, keys)
    return batch, batch.first


class TestArbitrationFallback:
    """Warp ≡ cohort when phase one cannot grant every candidate.

    Phase one grants a whole round at once when no lock id repeats
    among the candidates and the round's holders and no injected stall
    camps on a bucket; it falls back to sorted-group arbitration
    otherwise.  Realistic batches almost never fall back, so these
    cases force each reason for it and record what the fallback saw.
    """

    @pytest.fixture
    def fallbacks(self, monkeypatch):
        from repro.gpusim import cohort

        seen = []
        arbitrate = cohort._arbitrate

        def spy(lock_id, my_pos, holder_ids, holder_pos, stalled_locks):
            win, blocker_row = arbitrate(lock_id, my_pos, holder_ids,
                                         holder_pos, stalled_locks)
            seen.append(SimpleNamespace(
                same_round=len(np.unique(lock_id)) < len(lock_id),
                held_later=bool(np.any(blocker_row > my_pos)),
                stalled=bool(stalled_locks)))
            return win, blocker_row

        monkeypatch.setattr(cohort, "_arbitrate", spy)
        return seen

    def _run_crafted(self, voter: bool, warps: int, seed: int):
        tw, tc = twin_tables(buckets=8, capacity=8)
        batch, targets = _warps_led_by(
            tc, _bucket_mates(tc, warps, seed), seed)
        values = np.arange(1, len(batch) + 1, dtype=np.uint64)
        rw = launch_insert(tw, "warp", batch, values, targets, voter)
        rc = launch_insert(tc, "cohort", batch, values, targets, voter)
        assert dataclasses.asdict(rw) == dataclasses.asdict(rc)
        assert_tables_identical(tw, tc)
        return rc

    def test_two_leaders_elect_one_bucket(self, fallbacks):
        result = self._run_crafted(voter=True, warps=2, seed=71)
        assert result.lock_conflicts > 0
        assert any(f.same_round for f in fallbacks)

    def test_lock_held_by_a_later_holder(self, fallbacks):
        # The spin variant re-requests the lost lock, so the round after
        # a conflict finds the winner still holding it.
        result = self._run_crafted(voter=False, warps=6, seed=72)
        assert result.lock_conflicts > 0
        assert any(f.held_later for f in fallbacks)

    def test_injected_lock_stall(self, fallbacks):
        from repro.faults import FaultPlan

        script = {"seed": 1, "fired": [["lock.stall", 2, 3]]}
        tw, tc = twin_tables(buckets=16)
        pw = add_instruments(tw, faults=FaultPlan.from_script(script)).faults
        pc = add_instruments(tc, faults=FaultPlan.from_script(script)).faults
        keys = unique_keys(200, seed=73)
        run_twins(run_voter_insert_kernel, tw, tc, keys, keys)
        assert [f.site for f in pc.fired] == ["lock.stall"]
        assert pw.fired == pc.fired
        assert any(f.stalled for f in fallbacks)


class TestRaisingLaunch:
    """A launch that raises mid-run leaves a consistent table.

    Every placement made before the raise is in storage, so each
    ``Subtable.size`` must count it, exactly as the warp engine does.
    """

    @staticmethod
    def _assert_sizes_match_storage(table: DyCuckooTable) -> None:
        table.validate()
        assert [st.size for st in table.subtables] == [
            int(np.count_nonzero(st.keys != EMPTY))
            for st in table.subtables]

    def test_stall_capacity_error_matches_warp_engine(self):
        from repro.errors import CapacityError
        from repro.faults import FaultPlan

        # One spinning warp: its 11th leader finds its bucket camped on
        # by an injected stall, and keeps asking for it until the stall
        # detector gives up, with ten entries already placed.
        script = {"seed": 1, "fired": [["lock.stall", 10, 1000]]}
        tw, tc = twin_tables(buckets=8, capacity=8)
        batch = EncodedBatch(tc, unique_keys(32, seed=74))
        targets = batch.first
        values = batch.codes
        for table, engine in ((tw, "warp"), (tc, "cohort")):
            with pytest.raises(CapacityError):
                launch_insert(table, engine, batch, values, targets,
                              voter=False,
                              faults=FaultPlan.from_script(script),
                              max_rounds_per_op=4)
        assert len(tc) == 10
        for table in (tw, tc):
            self._assert_sizes_match_storage(table)
        assert_tables_identical(tw, tc)
        # A raised launch still feeds the sanitizer its transactions, once.
        assert tw.sanitizer.stats == tc.sanitizer.stats

    def test_round_limit_keeps_sizes(self):
        table, _ = twin_tables(buckets=8, capacity=8)
        batch = EncodedBatch(table, unique_keys(240, seed=75))
        with pytest.raises(RuntimeError, match="did not converge"):
            launch_insert(table, "cohort", batch, batch.codes, batch.first,
                          max_rounds=9)
        assert 0 < len(table) < len(batch)
        self._assert_sizes_match_storage(table)


class TestUnequalGeometryConformance:
    """Warp ≡ cohort on settled subtables of 16/32/32/32 buckets.

    The cohort engine addresses bucket ``b`` of subtable ``t`` as row
    ``row_offset[t] + b`` of one storage arena.  With equal subtables a
    wrong offset (say ``t * n_buckets``) would still land on the right
    rows, so one downsize gives subtable 0 half the rows of the others
    and every later subtable a start that is not a multiple of its
    size.  High fill makes evictions fire, and duplicate keys with
    adversarial targets drive the hazard path.
    """

    def test_high_fill_and_hazard_rounds_identical(self):
        tw, tc = twin_tables(buckets=32, capacity=8)
        keys = unique_keys(300, seed=61)
        run_voter_insert_kernel(tw, keys, keys)
        run_voter_insert_kernel(tc, keys, keys, engine="cohort")
        for table in (tw, tc):
            table.downsize()
        assert [st.n_buckets for st in tc.subtables] == [16, 32, 32, 32]
        assert tc.flat_storage().row_offset.tolist() == [0, 16, 48, 80]
        assert all(st.migration is None for st in tc.subtables)
        assert_tables_identical(tw, tc)

        fresh = unique_keys(363, seed=62, low=1 << 40)  # 74 % of 896
        rw = run_twins(run_voter_insert_kernel, tw, tc, fresh, fresh)
        assert rw.evictions > 0

        rng = np.random.default_rng(62)
        n = 256
        base = rng.integers(1, n // 2, size=n).astype(np.uint64)
        values = np.arange(1, n + 1, dtype=np.uint64)
        batch = EncodedBatch(tc, base)
        coin = rng.integers(0, 2, size=n).astype(bool)
        targets = np.where(coin, batch.first, batch.second)
        rw = launch_insert(tw, "warp", batch, values, targets)
        rc = launch_insert(tc, "cohort", batch, values, targets)
        assert dataclasses.asdict(rw) == dataclasses.asdict(rc)
        assert rc.hazard_rounds > 0 and rc.evictions > 0
        probe = np.concatenate([keys, fresh, base])
        _values, found, _stats = run_twins(run_find_kernel, tw, tc, probe)
        assert found.all()
        assert tw.sanitizer.stats == tc.sanitizer.stats


class TestTelemetryStream:
    def _stream(self, telemetry):
        spans = [(e.name, e.category, e.args) for e in
                 telemetry.tracer.spans()]
        counters = {name: c.value for name, c in
                    telemetry.metrics.counters.items()}
        return spans, counters

    def test_identical_span_and_counter_streams(self):
        tw, tc = twin_tables()
        mw = add_instruments(tw, telemetry=Telemetry()).telemetry
        mc = add_instruments(tc, telemetry=Telemetry()).telemetry
        keys = unique_keys(500, seed=26)
        run_twins(run_voter_insert_kernel, tw, tc, keys, keys)
        run_twins(run_find_kernel, tw, tc, keys)
        run_twins(run_delete_kernel, tw, tc, keys[::2])
        spans_w, counters_w = self._stream(mw)
        spans_c, counters_c = self._stream(mc)
        assert counters_w == counters_c
        assert len(spans_w) == len(spans_c)
        for (nw, cw, aw), (nc, cc, ac) in zip(spans_w, spans_c):
            assert (nw, cw) == (nc, cc)
            assert aw.get("n") == ac.get("n")
            assert aw["engine"] == "warp" and ac["engine"] == "cohort"


class TestMixedBatchDispatch:
    def _workload(self, n=3000, seed=27):
        rng = np.random.default_rng(seed)
        ops = rng.choice([OP_INSERT, OP_FIND, OP_DELETE], size=n,
                         p=[0.5, 0.3, 0.2])
        keys = rng.integers(1, n // 3, size=n).astype(np.uint64)
        values = rng.integers(1, 1 << 32, size=n).astype(np.uint64)
        return ops, keys, values

    def test_engine_none_has_no_kernel_result(self):
        table, _ = twin_tables()
        ops, keys, values = self._workload()
        result = execute_mixed(table, ops, keys, values)
        assert result.kernel is None

    def test_engines_match_each_other_and_host_path(self):
        """Warp and cohort agree bit for bit, runs included; the host
        path agrees with them on every result and on the contents.  It
        runs its planned runs, the kernels the batch's arrival runs."""
        th, _ = twin_tables()
        tw, tc = twin_tables()
        ops, keys, values = self._workload()
        rh = execute_mixed(th, ops, keys, values)
        rw = execute_mixed(tw, ops, keys, values, engine="warp")
        rc = tc.execute_mixed(ops, keys, values, engine="cohort")
        assert rw.kernel is not None
        assert_tables_identical(tw, tc, rw, rc)
        assert rw.runs == len(op_runs(ops))
        assert rh.runs == len(plan_runs(ops, keys)) < rw.runs
        assert twin_divergence(
            None, dataclasses.replace(rh, runs=rw.runs),
            None, dataclasses.replace(rw, kernel=None)) == []
        assert th.to_dict() == tw.to_dict()

    def test_encoded_batch_caches_hashes(self):
        table, _ = twin_tables()
        keys = unique_keys(100, seed=28)
        batch = EncodedBatch(table, keys)
        # cached, not recomputed
        assert batch.candidate_raw is batch.candidate_raw
        for row, targets in zip(batch.candidate_raw,
                                (batch.first, batch.second)):
            want = [table.table_hashes[t].raw(batch.codes[i:i + 1])[0]
                    for i, t in enumerate(targets)]
            np.testing.assert_array_equal(row, want)
        on_2 = batch.first == 2
        assert on_2.any()
        np.testing.assert_array_equal(
            table.table_hashes[2].bucket_from_raw(
                batch.candidate_raw[0][on_2], table.subtables[2].n_buckets),
            table.table_hashes[2].bucket(batch.codes[on_2],
                                         table.subtables[2].n_buckets))

    def test_sharded_mixed_engine_dispatch(self):
        def make_sharded():
            return ShardedDyCuckoo(num_shards=2, config=DyCuckooConfig(
                initial_buckets=32, bucket_capacity=8, auto_resize=False))
        sw, sc = make_sharded(), make_sharded()
        ops, keys, values = self._workload(n=2000, seed=29)
        rw = sw.execute_mixed(ops, keys, values, engine="warp")
        rc = sc.execute_mixed(ops, keys, values, engine="cohort")
        assert rw.kernel is not None
        assert twin_divergence(sw, rw, sc, rc) == []

    def test_parallel_shard_executor_matches_serial(self):
        """The process-pool executor's determinism contract: results,
        runs, merged kernel counters, per-shard storage and stats are
        bit-identical to serial execution, across successive batches."""
        config = DyCuckooConfig(initial_buckets=32, bucket_capacity=8,
                                auto_resize=False)
        serial = ShardedDyCuckoo(num_shards=4, config=config)
        with ShardedDyCuckoo(num_shards=4, config=config,
                             parallel_workers=2) as parallel:
            for seed in (29, 30):
                ops, keys, values = self._workload(n=1500, seed=seed)
                rs = serial.execute_mixed(ops, keys, values,
                                          engine="cohort")
                rp = parallel.execute_mixed(ops, keys, values,
                                            engine="cohort")
                assert twin_divergence(serial, rs, parallel, rp) == []
            assert serial.stats.__dict__ == parallel.stats.__dict__
            parallel.validate()

    def test_parallel_shard_executor_serial_fallbacks(self):
        """Instrumented batches must take the serial path (shared
        handles) and still produce identical outcomes."""
        from repro.sanitizer import Sanitizer as San

        config = DyCuckooConfig(initial_buckets=32, bucket_capacity=8,
                                auto_resize=False)
        table = ShardedDyCuckoo(num_shards=2, config=config,
                                parallel_workers=2)
        table.attach(Instruments(sanitizer=San()))
        ops, keys, values = self._workload(n=800, seed=31)
        _codes, selections = table._scatter(keys)
        assert not table._parallel_eligible(selections)
        reference = ShardedDyCuckoo(num_shards=2, config=config)
        rr = reference.execute_mixed(ops, keys, values, engine="cohort")
        rt = table.execute_mixed(ops, keys, values, engine="cohort")
        assert twin_divergence(reference, rr, table, rt) == []
        assert table.shards[0].sanitizer.ok
        table.attach(None)
        assert table._parallel_eligible(selections)
        table.close()


_LOSES_UPSERTS = pytest.mark.xfail(
    strict=True, reason="kernel engines lose in-run last-writer-wins "
                        "upserts at high fill")


class TestLastWriterWins:
    """``execute_mixed`` promises last-writer-wins within an insert run.

    The host path keeps the promise.  Both kernel engines break it the
    same way at high fill, so warp ≡ cohort cannot see it; the dict
    model can.  The engine cases are strict xfails: the fix must remove
    the markers.
    """

    @pytest.mark.parametrize("engine", [
        None,
        pytest.param("warp", marks=_LOSES_UPSERTS),
        pytest.param("cohort", marks=_LOSES_UPSERTS),
    ], ids=["host", "warp", "cohort"])
    def test_in_run_duplicates_keep_last_value(self, engine):
        table = DyCuckooTable(DyCuckooConfig(
            num_tables=4, initial_buckets=64, bucket_capacity=32,
            auto_resize=False, seed=3))
        model = DictModel()
        keys = unique_keys(int(0.73 * table.total_slots) + 200, seed=3)
        live, fresh = keys[:-200], keys[-200:]
        assert model.apply(table, "insert", live, live) == []
        # Each fresh key twice in one insert run: value 1, then value 2.
        one_run = SimpleNamespace(insert=lambda k, v: execute_mixed(
            table, np.full(len(k), OP_INSERT), k, v, engine=engine))
        values = np.repeat(np.array([1, 2], dtype=np.uint64), 200)
        assert model.apply(one_run, "insert", np.concatenate([fresh, fresh]),
                           values) == []
        assert model.divergence(table) == []

    @pytest.mark.parametrize("engine", [
        None,
        pytest.param("warp", marks=_LOSES_UPSERTS),
        pytest.param("cohort", marks=_LOSES_UPSERTS),
    ], ids=["host", "warp", "cohort"])
    def test_live_upserts_among_evictions_keep_new_value(self, engine):
        """1,000 upserts of live keys shuffled among 1,000 fresh inserts
        in one run: evictions move entries while their upserts are in
        flight, and every upsert must still win."""
        table = DyCuckooTable(DyCuckooConfig(
            num_tables=4, initial_buckets=64, bucket_capacity=32,
            auto_resize=False, seed=3))
        model = DictModel()
        n_live = int(0.73 * table.total_slots)
        keys = unique_keys(n_live + 1000, seed=3)
        live, fresh = keys[:n_live], keys[n_live:]
        assert model.apply(table, "insert", live, live) == []
        rng = np.random.default_rng(3)
        run_keys = rng.permutation(np.concatenate(
            [rng.choice(live, 1000, replace=False), fresh]))
        one_run = SimpleNamespace(insert=lambda k, v: execute_mixed(
            table, np.full(len(k), OP_INSERT), k, v, engine=engine))
        assert model.apply(one_run, "insert", run_keys,
                           run_keys + np.uint64(1)) == []
        assert model.divergence(table) == []


# ---------------------------------------------------------------------------
# Property-based conformance
# ---------------------------------------------------------------------------

KEY = st.integers(min_value=1, max_value=200)
VALUE = st.integers(min_value=1, max_value=1 << 32)

# One step: a homogeneous batch, optionally followed by a resize.  Key
# range 1..200 against a 512-slot table keeps fill under ~40%, so the
# kernels (which never resize) always converge.
step_strategy = st.tuples(
    st.sampled_from(("insert", "find", "delete")),
    st.lists(KEY, min_size=1, max_size=60),
    st.lists(VALUE, min_size=60, max_size=60),
    st.sampled_from((None, None, None, "upsize", "downsize")),
)


class TestPropertyConformance:
    @settings(max_examples=MAX_EXAMPLES, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(steps=st.lists(step_strategy, min_size=1, max_size=8),
           faulty=st.booleans())
    def test_random_mixed_batches_conform(self, steps, faulty):
        tw, tc = twin_tables(buckets=16, capacity=8)
        if faulty:
            add_instruments(tw, faults=default_chaos_plan(seed=9))
            add_instruments(tc, faults=default_chaos_plan(seed=9))
        for kind, raw_keys, raw_values, resize in steps:
            keys = np.array(raw_keys, dtype=np.uint64)
            if kind == "insert":
                values = np.array(raw_values[:len(raw_keys)],
                                  dtype=np.uint64)
                run_twins(run_voter_insert_kernel, tw, tc, keys, values)
            elif kind == "find":
                run_twins(run_find_kernel, tw, tc, keys)
            else:
                run_twins(run_delete_kernel, tw, tc, keys)
            if resize in ("upsize", "downsize"):
                outcomes = []
                for t in (tw, tc):
                    try:
                        t.upsize() if resize == "upsize" else t.downsize()
                        outcomes.append(None)
                    except Exception as exc:  # noqa: BLE001 - compared below
                        outcomes.append(type(exc))
                assert outcomes[0] == outcomes[1]
            assert_tables_identical(tw, tc)


class TestProfilerStream:
    """The deep profiler is part of the conformance contract: both
    engines must emit identical snapshots — same round-by-round
    occupancy, same lock-contention heatmap, same probe and chain
    histograms — on fault-free workloads."""

    def _profiled_mixed(self, engine: str) -> dict:
        from repro.telemetry import Profiler

        table = DyCuckooTable(DyCuckooConfig(
            initial_buckets=64, bucket_capacity=8, auto_resize=False,
            seed=3))
        prof = Profiler()
        table.attach(Instruments(sanitizer=Sanitizer(), profiler=prof))
        keys = unique_keys(900, seed=31)
        ops = np.concatenate([
            np.full(900, OP_INSERT), np.full(450, OP_FIND),
            np.full(300, OP_DELETE)]).astype(np.int64)
        all_keys = np.concatenate([keys, keys[:450], keys[:300]])
        values = np.concatenate(
            [keys * np.uint64(3),
             np.zeros(750, dtype=np.uint64)])
        execute_mixed(table, ops, all_keys, values, engine=engine)
        san = table.sanitizer
        assert san.ok, [str(v) for v in san.violations]
        return prof.snapshot()

    def test_mixed_batch_snapshots_identical(self):
        warp = self._profiled_mixed("warp")
        cohort = self._profiled_mixed("cohort")
        assert warp == cohort
        assert [k["op"] for k in warp["kernels"]] == \
            ["insert", "find", "delete"]
        assert warp["probe_lengths"], "find/delete must observe probes"

    def test_high_fill_snapshots_identical_with_chains(self):
        """~97% fill: eviction chains and lock contention must conform
        not just in aggregate but in the full profiler stream."""
        from repro.telemetry import Profiler

        snapshots = {}
        for engine in ("warp", "cohort"):
            table = DyCuckooTable(DyCuckooConfig(
                initial_buckets=8, bucket_capacity=8, auto_resize=False,
                seed=3))
            prof = Profiler()
            table.attach(Instruments(sanitizer=Sanitizer(), profiler=prof))
            keys = unique_keys(248, seed=23)
            result = run_voter_insert_kernel(table, keys, keys,
                                             engine=engine)
            assert result.evictions > 0
            snapshots[engine] = prof.snapshot()

        assert snapshots["warp"] == snapshots["cohort"]
        snap = snapshots["warp"]
        insert, = snap["kernels"]
        assert insert["rounds"], "occupancy timeline must be populated"
        assert any(int(depth) > 0 for depth in snap["chain_depths"]), \
            "high fill must record eviction chains deeper than zero"
        assert sum(c["conflicts"] for c in snap["lock_heatmap"]) >= 0
        assert snap["lock_heatmap"], "heatmap must attribute lock grants"


# ---------------------------------------------------------------------------
# Mid-epoch conformance
# ---------------------------------------------------------------------------


class TestMidEpochConformance:
    """Bit-for-bit engine equality while a migration epoch is open.

    An open epoch makes bucket resolution per-key state-dependent
    (``bucket_for`` picks the pre- or post-resize view per pair), so
    the dual view is exactly the kind of divergence hazard this suite
    exists to catch: both engines must route every probe through the
    same epoch check.  The partial drain leaves migrated and
    unmigrated pairs coexisting in the target subtable.
    """

    def _twin_mid_epoch(self, kind="upsize"):
        tw, tc = twin_tables(buckets=16, capacity=8)  # 512 slots
        keys = unique_keys(320, seed=41)
        run_twins(run_voter_insert_kernel, tw, tc, keys, keys)
        if kind == "downsize":
            run_twins(run_delete_kernel, tw, tc, keys[120:])
            keys = keys[:120]
        for t in (tw, tc):
            if kind == "upsize":
                t._resizer.open_upsize_epoch()
            else:
                t._resizer.open_downsize_epoch()
            t._resizer.drain_migration(max_pairs=3)  # mixed views
        assert any(st.migration is not None for st in tw.subtables)
        assert_tables_identical(tw, tc)
        return tw, tc, keys

    @pytest.mark.parametrize("kind", ["upsize", "downsize"])
    def test_find_mid_epoch_identical(self, kind):
        tw, tc, keys = self._twin_mid_epoch(kind)
        _values, found, _stats = run_twins(run_find_kernel, tw, tc, keys)
        assert found.all()

    @pytest.mark.parametrize("kind", ["upsize", "downsize"])
    def test_insert_mid_epoch_identical(self, kind):
        tw, tc, _keys = self._twin_mid_epoch(kind)
        fresh = unique_keys(60, seed=42, low=1 << 40)
        run_twins(run_voter_insert_kernel, tw, tc, fresh, fresh)
        vw, fw, _ = run_find_kernel(tw, fresh)
        assert fw.all() and np.array_equal(vw, fresh)
        assert_tables_identical(tw, tc)

    @pytest.mark.parametrize("kind", ["upsize", "downsize"])
    def test_delete_mid_epoch_identical(self, kind):
        tw, tc, keys = self._twin_mid_epoch(kind)
        removed, _stats = run_twins(run_delete_kernel, tw, tc, keys[::2])
        assert removed.all()

    @pytest.mark.parametrize("kind", ["upsize", "downsize"])
    def test_mixed_batch_mid_epoch_identical(self, kind):
        tw, tc, keys = self._twin_mid_epoch(kind)
        rng = np.random.default_rng(44)
        n = 600
        ops = rng.choice([OP_INSERT, OP_FIND, OP_DELETE], size=n,
                         p=[0.3, 0.5, 0.2])
        pool = np.concatenate(
            [keys, unique_keys(60, seed=43, low=1 << 40)])
        batch_keys = rng.choice(pool, size=n)
        values = rng.integers(1, 1 << 32, size=n).astype(np.uint64)
        rw = execute_mixed(tw, ops, batch_keys, values, engine="warp")
        rc = execute_mixed(tc, ops, batch_keys, values, engine="cohort")
        assert rw.kernel is not None
        assert_tables_identical(tw, tc, rw, rc)

    def test_finalize_after_kernels_settles_identically(self):
        tw, tc, keys = self._twin_mid_epoch("upsize")
        run_twins(run_find_kernel, tw, tc, keys)
        tw.finalize_resizes()
        tc.finalize_resizes()
        assert all(st.migration is None for st in tw.subtables)
        assert_tables_identical(tw, tc)
        tw.validate()
        tc.validate()
