"""The vectorized host insert round against the loop it replaced.

``DyCuckooTable._insert_pending`` runs each eviction round as one pass
over every pending key, with only the storage touches left per
subtable.  :class:`ReferenceTable` keeps the earlier round body, which
visited the subtables one after another and found each claimant's slot
in its own copy of the bucket's free mask.  Twin tables fed the same
batches must agree on everything the round leaves behind: the
``TableStats`` counters, every subtable's keys, values and size, the
stash, the victim counter, the chain-depth and lock-retry histograms,
the profiler's chain and lock-grant samples and the trace's events.
"""

import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import distribution
from repro.core.config import DyCuckooConfig
from repro.core.grouping import rank_within_group
from repro.core.batch_ops import EncodedBatch, run_bodies
from repro.core.hashing import UNHASHED, UniversalHash, unhashed
from repro.core.instruments import Instruments
from repro.core.subtable import EMPTY
from repro.core.table import CHAIN_DEPTH_BUCKETS, DyCuckooTable, encode_keys
from repro.errors import CapacityError, ResizeError
from repro.faults import FaultPlan
from repro.gpusim.kernel import estimate_lock_conflicts
from repro.oracle import twin_divergence
from repro.telemetry import Profiler, Telemetry

MAX_EXAMPLES = int(os.environ.get("REPRO_FUZZ_EXAMPLES", "25"))


class ReferenceTable(DyCuckooTable):
    """A table whose insert rounds visit the subtables one at a time."""

    def _insert_pending(self, codes: np.ndarray, values: np.ndarray,
                        targets: np.ndarray, raw: np.ndarray,
                        excluded: int | None) -> None:
        """The per-subtable round loop ``_insert_pending`` replaced."""
        # A body step (a generator) that asks for no placement pass.
        yield from ()
        codes = np.asarray(codes, dtype=np.uint64)
        values = np.asarray(values, dtype=np.uint64)
        targets = np.asarray(targets, dtype=np.int64)
        raw = np.asarray(raw, dtype=np.uint32)
        tel = self.telemetry
        traced = tel.enabled
        prof = self.profiler
        # The chain-depth bookkeeping serves both the metrics histogram
        # and the deep profiler; track it when either consumer is live.
        track_depths = traced or prof.enabled
        if traced:
            chain_hist = tel.metrics.histogram("cuckoo_chain_depth",
                                               CHAIN_DEPTH_BUCKETS)
            retry_hist = tel.metrics.histogram(
                "atomic_retries", (0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0))
        if track_depths:
            # Evictions a key's placement chain has gone through so far;
            # victims inherit their evictor's depth plus one.
            depths = np.zeros(len(codes), dtype=np.int64)
        rounds_since_progress = 0
        while len(codes):
            if self.faults.enabled:
                fault = self.faults.fire("insert.evict")
                if fault is not None:
                    if traced:
                        tel.tracer.instant("fault.inject", "fault",
                                           site=fault.site, index=fault.index,
                                           pending=len(codes))
                        tel.metrics.counter("faults.injected").inc()
                    if excluded is not None:
                        self._stash_pending(
                            codes, values,
                            reason="injected eviction-chain exhaustion "
                                   "during migration-slice spill")
                        return
                    if not self.config.auto_resize:
                        self.stats.insert_failures += len(codes)
                        raise CapacityError(
                            f"insert failed for {len(codes)} keys: injected "
                            "eviction-chain exhaustion (auto_resize disabled)"
                        )
                    try:
                        self._resizer.upsize_for_insert_failure()
                    except ResizeError as exc:
                        # Upsize aborted while the chain is exhausted:
                        # park the pending keys in the stash.
                        self._stash_pending(codes, values, reason=str(exc))
                        return
            if excluded is None and self.config.auto_resize:
                # Section IV-B: keep theta under beta.  Upsizing before the
                # round (rather than after a long eviction stall) matches
                # the paper's insertion-failure trigger while avoiding
                # wasted eviction churn on a table that is simply full.
                while ((len(self) + len(codes)) / self.total_slots
                       > self.config.beta):
                    if traced:
                        tel.tracer.instant(
                            "resize.trigger", "resize", reason="beta_bound",
                            theta=self.load_factor, pending=len(codes))
                    try:
                        self._resizer.upsize_under_pressure()
                    except (ResizeError, CapacityError):
                        # Injected abort or slot ceiling: run the round
                        # over-full and let the stall path decide what to
                        # do next.
                        break
            self.stats.eviction_rounds += 1
            before_pending = len(codes)
            round_evictions = 0
            next_codes: list[np.ndarray] = []
            next_values: list[np.ndarray] = []
            next_targets: list[np.ndarray] = []
            next_raw: list[np.ndarray] = []
            next_depths: list[np.ndarray] = []
            for t in range(self.num_tables):
                sel = np.flatnonzero(targets == t)
                if len(sel) == 0:
                    continue
                st = self.subtables[t]
                sel_codes = codes[sel]
                sel_values = values[sel]
                sel_raw = raw[sel]
                todo = np.flatnonzero(sel_raw == UNHASHED)
                if len(todo):
                    sel_raw[todo] = self.table_hashes[t].raw(sel_codes[todo])
                buckets = self.bucket_of_raw(t, sel_raw)
                self.stats.bucket_reads += len(sel)
                # One bucket-lock CAS per operation; collisions estimated
                # from device occupancy (only resident warps contend).
                conflicts = estimate_lock_conflicts(len(sel), st.n_buckets)
                self.stats.lock_acquisitions += len(sel)
                self.stats.lock_conflicts += conflicts
                if traced:
                    tel.metrics.counter("lock.acquisitions").inc(len(sel))
                    tel.metrics.counter("lock.conflicts").inc(conflicts)
                    retry_hist.observe(conflicts)
                    tel.tracer.instant("lock.acquire", "lock", subtable=t,
                                       requests=len(sel), conflicts=conflicts)
                if prof.enabled:
                    # Attribute the per-bucket lock grants to the
                    # contention heatmap (bucket < 2^40, so + == |).
                    prof.lock_grants_many(buckets.astype(np.int64)
                                          + (t << 40))
                placed, full_leader = _reference_place(st, buckets,
                                                       sel_codes, sel_values)
                self.stats.bucket_writes += int(placed.sum())

                ev = np.flatnonzero(full_leader)
                mig = st.migration
                if (len(ev) and excluded is None and mig is not None
                        and mig.kind == "upsize"):
                    # Migrate-on-access: a full bucket in an upsizing
                    # subtable gets split to its post-resize view instead
                    # of evicting — the blocked keys retry next round
                    # against the (half-empty) migrated pair.
                    ev_pairs = (buckets[ev].astype(np.int64)
                                & np.int64(mig.num_pairs - 1))
                    unmig = ~mig.migrated[ev_pairs]
                    if np.any(unmig):
                        self._resizer.migrate_on_access(
                            t, np.unique(ev_pairs[unmig]))
                        full_leader[ev[unmig]] = False
                        ev = ev[~unmig]
                good = np.zeros(0, dtype=np.int64)
                if len(ev):
                    ev_buckets = buckets[ev]
                    slots, ok, victim_alts = self._reference_victims(
                        t, ev_buckets, excluded)
                    good = np.flatnonzero(ok)
                    if len(good):
                        old_codes, old_values = st.swap_slot(
                            ev_buckets[good], slots[good],
                            sel_codes[ev[good]], sel_values[ev[good]])
                        self.stats.evictions += len(good)
                        self.stats.bucket_writes += len(good)
                        round_evictions += len(good)
                        next_codes.append(old_codes)
                        next_values.append(old_values)
                        next_targets.append(victim_alts[good])
                        next_raw.append(unhashed(len(good)))
                        if track_depths:
                            next_depths.append(depths[sel[ev[good]]] + 1)
                    # Eviction leaders without an eligible victim retry.
                    full_leader[ev[~ok]] = False

                retry = ~(placed | full_leader)
                if np.any(retry):
                    next_codes.append(sel_codes[retry])
                    next_values.append(sel_values[retry])
                    next_targets.append(np.full(int(retry.sum()), t,
                                                dtype=np.int64))
                    next_raw.append(sel_raw[retry])
                    if track_depths:
                        next_depths.append(depths[sel[retry]])
                if track_depths:
                    done = placed | full_leader
                    if np.any(done):
                        if traced:
                            chain_hist.observe_many(depths[sel[done]])
                        if prof.enabled:
                            prof.observe_chains(depths[sel[done]])
            if traced:
                tel.metrics.counter("eviction.rounds").inc()
                tel.metrics.counter("evictions").inc(round_evictions)
                tel.tracer.instant(
                    "evict.round", "insert", pending=before_pending,
                    evictions=round_evictions,
                    carried=sum(len(c) for c in next_codes))
            if next_codes:
                codes = np.concatenate(next_codes)
                values = np.concatenate(next_values)
                targets = np.concatenate(next_targets)
                raw = np.concatenate(next_raw)
                if track_depths:
                    depths = (np.concatenate(next_depths) if next_depths
                              else np.zeros(0, dtype=np.int64))
            else:
                codes = np.zeros(0, dtype=np.uint64)
                values = np.zeros(0, dtype=np.uint64)
                targets = np.zeros(0, dtype=np.int64)
                raw = unhashed(0)
                if track_depths:
                    depths = np.zeros(0, dtype=np.int64)

            if len(codes) >= before_pending:
                rounds_since_progress += 1
            else:
                rounds_since_progress = 0
            if rounds_since_progress >= self.config.max_eviction_rounds:
                if excluded is not None:
                    self._stash_pending(
                        codes, values,
                        reason="migration-slice spill stalled while the "
                               "downsizing subtable is excluded")
                    return
                if not self.config.auto_resize:
                    self.stats.insert_failures += len(codes)
                    raise CapacityError(
                        f"insert failed for {len(codes)} keys after "
                        f"{self.config.max_eviction_rounds} stalled rounds "
                        "(auto_resize disabled)"
                    )
                try:
                    self._resizer.upsize_for_insert_failure()
                except ResizeError as exc:
                    # The upsize that would have made room was aborted by
                    # an injected fault: degrade to the bounded stash
                    # (the CUDA reference's error table) instead of
                    # spinning further eviction rounds.
                    self._stash_pending(codes, values, reason=str(exc))
                    return
                rounds_since_progress = 0


    def _reference_victims(self, table_idx: int, buckets: np.ndarray,
                        excluded: int | None
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One subtable's victims, as the reference round chose them."""
        st = self.subtables[table_idx]
        cap = st.bucket_capacity
        m = len(buckets)
        bucket_keys = st.bucket_keys(buckets)                 # (m, cap), full
        flat = bucket_keys.ravel()
        current = np.full(len(flat), table_idx, dtype=np.int64)
        alternates = self.pair_hash.alternate_table(flat, current).reshape(m, cap)
        if excluded is None:
            eligible = np.ones((m, cap), dtype=bool)
        else:
            eligible = alternates != excluded
        # Theorem-1-guided choice (Section V-A: "one can pick a KV pair
        # for re-insertion into a desired hash table based on the
        # balancing strategy"): prefer the occupant whose alternate
        # subtable currently has the best routing weight, so evictions
        # drain toward the least-loaded subtables — this is where a
        # larger d pays off for insertion.
        weights = distribution.theorem1_weights(self.subtable_sizes(),
                                                self.subtable_loads())
        preference = weights[alternates]                      # (m, cap)
        # Random tie-breaking jitter: victims must still be effectively
        # random or dense eviction cycles persist for hundreds of
        # rounds (random-walk cuckoo).  A multiplicative hash of
        # (event counter, bucket, slot) provides the jitter without an
        # RNG stream.
        self._victim_counter += 1
        nonce = (self._victim_counter * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
        mixed = (np.uint64(nonce)
                 + buckets.astype(np.uint64)[:, None] * np.uint64(0xBF58476D1CE4E5B9)
                 + np.arange(cap, dtype=np.uint64)[None, :] * np.uint64(0x94D049BB133111EB))
        jitter = ((mixed >> np.uint64(40)).astype(np.float64)
                  / float(1 << 24))                           # [0, 1)
        score = preference * (0.5 + jitter)
        score = np.where(eligible, score, -1.0)
        slots = score.argmax(axis=1)
        ok = eligible[np.arange(m), slots]
        return slots, ok, alternates[np.arange(m), slots]


def _reference_place(st, buckets: np.ndarray, codes: np.ndarray,
                     values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One subtable's placement round, as the reference round ran it:
    each claimant copies its bucket's free mask and takes the slot where
    the running count of free slots first reaches its rank + 1."""
    ranks, unique_buckets, inverse = rank_within_group(buckets)
    free_mask = st.keys[unique_buckets] == EMPTY              # (u, cap)
    free_counts = free_mask.sum(axis=1)[inverse]
    placed = ranks < free_counts
    items = np.flatnonzero(placed)
    if len(items):
        running = free_mask[inverse[items]].cumsum(axis=1)
        slots = (running == (ranks[items] + 1)[:, None]).argmax(axis=1)
        st.keys[buckets[items], slots] = codes[items]
        st.values[buckets[items], slots] = values[items]
        st.size += len(items)
    return placed, (free_counts == 0) & (ranks == 0)


def twins(config: DyCuckooConfig, traced: bool = False,
          fault_rates: dict | None = None
          ) -> tuple[DyCuckooTable, ReferenceTable]:
    """A vectorized table and a reference table, identically equipped."""
    pair = (DyCuckooTable(config), ReferenceTable(config))
    for table in pair:
        fields: dict = {}
        if traced:
            fields.update(telemetry=Telemetry(), profiler=Profiler())
        if fault_rates:
            fields["faults"] = FaultPlan(seed=config.seed, rates=fault_rates)
        table.attach(Instruments(**fields))
    return pair


def drive(pair, batches, seed: int = 0) -> None:
    """Apply insert/delete batches of fresh and live keys to both."""
    rng = np.random.default_rng(seed)
    live = np.zeros(0, dtype=np.uint64)
    for kind, n in batches:
        if kind == "insert":
            keys = rng.integers(1, 1 << 62, n, dtype=np.int64)
            keys = np.concatenate((keys.astype(np.uint64),
                                   rng.choice(live, min(len(live), n // 8))))
            values = rng.integers(0, 1 << 62, len(keys),
                                  dtype=np.int64).astype(np.uint64)
            for table in pair:
                table.insert(keys, values)
            live = np.union1d(live, keys)
        else:
            gone = rng.choice(live, min(len(live), n), replace=False)
            for table in pair:
                table.delete(gone)
            live = np.setdiff1d(live, gone)


def assert_same(new: DyCuckooTable, ref: ReferenceTable) -> None:
    assert new.stats.snapshot() == ref.stats.snapshot()
    assert twin_divergence(new, None, ref, None) == []
    assert new.profiler.enabled == ref.profiler.enabled
    if new.profiler.enabled:
        assert new.profiler.snapshot() == ref.profiler.snapshot()
    if new.telemetry.enabled:
        metrics = [table.telemetry.metrics.to_dict() for table in (new, ref)]
        assert metrics[0]["counters"] == metrics[1]["counters"]
        for name in ("cuckoo_chain_depth", "atomic_retries"):
            assert (metrics[0]["histograms"].get(name)
                    == metrics[1]["histograms"].get(name))
        events = [[(e.name, e.phase, e.depth, e.args)
                   for e in table.telemetry.tracer.events]
                  for table in (new, ref)]
        assert events[0] == events[1]
    new.validate()


@pytest.fixture
def calls(monkeypatch):
    """Counts of the round features a scenario exercised (new table)."""
    seen = {"migrate_on_access": 0, "no_victim": 0, "excluded": 0}
    choose = DyCuckooTable._choose_victims

    def choose_victims(self, targets, buckets, n_placed, excluded):
        slots, ok, alternates = choose(self, targets, buckets, n_placed,
                                       excluded)
        if excluded is not None:
            seen["excluded"] += 1
            seen["no_victim"] += int(np.count_nonzero(~ok))
        return slots, ok, alternates

    settle = DyCuckooTable._settle_round

    def settle_round(self, *args):
        before = self.stats.migration_slices
        out = settle(self, *args)
        seen["migrate_on_access"] += self.stats.migration_slices - before
        return out

    monkeypatch.setattr(DyCuckooTable, "_choose_victims", choose_victims)
    monkeypatch.setattr(DyCuckooTable, "_settle_round", settle_round)
    return seen


@pytest.mark.parametrize("traced", [False, True])
class TestScenarios:
    def test_bulk_load_upsizes_under_pressure(self, traced):
        new, ref = pair = twins(DyCuckooConfig(
            initial_buckets=8, bucket_capacity=8, min_buckets=8, seed=3),
            traced)
        drive(pair, [("insert", 20_000), ("insert", 3_000)])
        assert new.stats.upsizes > 0 and new.stats.evictions > 0
        assert_same(new, ref)

    def test_migrate_on_access_in_open_upsize_epoch(self, traced, calls):
        new, ref = pair = twins(DyCuckooConfig(
            initial_buckets=16, bucket_capacity=4, min_buckets=4, beta=0.9,
            migration_budget=1, seed=1), traced)
        drive(pair, [("insert", 220)], seed=1)
        for table in pair:
            table._resizer.open_upsize_epoch()
        drive(pair, [("insert", 20)] * 6, seed=2)
        assert calls["migrate_on_access"] > 0
        assert_same(new, ref)

    def test_downsize_spill_with_ineligible_leaders(self, traced, calls):
        new, ref = pair = twins(DyCuckooConfig(
            initial_buckets=256, bucket_capacity=4, min_buckets=8,
            migration_budget=4, seed=0), traced)
        drive(pair, [("insert", 300)] * 12 + [("delete", 400)] * 8)
        assert new.stats.residuals > 0
        assert calls["excluded"] > 0 and calls["no_victim"] > 0
        assert_same(new, ref)

    def test_spill_stall_parks_keys_in_stash(self, traced, calls):
        # With d = 2 every occupant's alternate is the excluded
        # subtable, so no leader ever finds a victim and the spill
        # stalls into the stash.
        new, ref = pair = twins(DyCuckooConfig(
            num_tables=2, initial_buckets=8, bucket_capacity=2,
            min_buckets=8, max_eviction_rounds=4, seed=4), traced)
        drive(pair, [("insert", 20)])
        codes = np.arange(1 << 40, (1 << 40) + 40, dtype=np.uint64)
        for table in pair:
            run_bodies([table._insert_pending(codes, codes,
                                              np.zeros(40, np.int64),
                                              unhashed(40), excluded=1)])
        assert len(new.stash) > 0 and calls["no_victim"] > 0
        assert_same(new, ref)

    def test_injected_eviction_faults(self, traced):
        # Aborted upsizes park mid-chain keys (victims and retries) in
        # the stash, whose order the twins must also share.
        new, ref = pair = twins(DyCuckooConfig(
            initial_buckets=8, bucket_capacity=4, min_buckets=4, alpha=0.45,
            beta=0.55, stash_capacity=4096, seed=7), traced,
            fault_rates={"insert.evict": 0.3, "resize.abort.trigger": 0.5})
        drive(pair, [("insert", 200)] * 5 + [("delete", 150)] * 5)
        assert new.faults.fired_by_site().get("insert.evict", 0) > 0
        assert new.stats.stash_pushes > 0
        assert_same(new, ref)

    def test_uniform_routing(self, traced):
        new, ref = pair = twins(DyCuckooConfig(
            initial_buckets=8, bucket_capacity=8, min_buckets=8,
            routing="uniform", seed=5), traced)
        drive(pair, [("insert", 3_000)] * 3 + [("delete", 4_000)])
        assert_same(new, ref)


@given(seed=st.integers(0, 2 ** 16),
       num_tables=st.integers(2, 5),
       capacity=st.sampled_from([1, 2, 4, 8, 32]),
       routing=st.sampled_from(["weighted", "uniform"]),
       traced=st.booleans(),
       evict_rate=st.sampled_from([0.0, 0.2]),
       batches=st.lists(st.tuples(st.sampled_from(["insert", "delete"]),
                                  st.integers(1, 400)),
                        min_size=1, max_size=8))
@settings(max_examples=MAX_EXAMPLES, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_random_batches_match_reference(seed, num_tables, capacity, routing,
                                        traced, evict_rate, batches):
    new, ref = pair = twins(
        DyCuckooConfig(num_tables=num_tables, initial_buckets=8,
                       bucket_capacity=capacity, min_buckets=8,
                       routing=routing, seed=seed),
        traced, fault_rates={"insert.evict": evict_rate} if evict_rate
        else None)
    try:
        drive(pair, batches, seed)
    except CapacityError:
        pass
    assert_same(new, ref)


@pytest.mark.parametrize("n_foreign", [2, 1], ids=["whole-bucket",
                                                  "one-slot"])
def test_victim_outside_its_pair_is_rejected(n_foreign):
    """An occupant stored in a subtable outside its own pair breaks the
    two-layer invariant; choosing victims in its bucket must raise, also
    when an in-pair occupant beside it would be the one chosen."""
    table = DyCuckooTable(DyCuckooConfig(
        num_tables=3, initial_buckets=8, bucket_capacity=2, min_buckets=8,
        seed=1))
    key = 12345
    batch = EncodedBatch(table, [key])
    candidates = [int(batch.first[0]), int(batch.second[0])]
    # Fill both candidate buckets with codes whose pair leaves out the
    # bucket's subtable, topped up with codes whose pair holds it.
    codes = encode_keys(np.arange(1, 2_000, dtype=np.uint64))
    first, second = table.pair_hash.tables_for(codes)
    for t, raw in zip(candidates, batch.candidate_raw[:, 0]):
        outside = (first != t) & (second != t)
        occupants = np.concatenate([codes[outside][:n_foreign],
                                    codes[~outside][:2 - n_foreign]])
        sub = table.subtables[t]
        bucket = int(UniversalHash.bucket_from_raw(raw, sub.n_buckets))
        sub.keys[bucket] = occupants
        sub.values[bucket] = occupants
        sub.size += len(occupants)
    with pytest.raises(AssertionError, match="two-layer invariant"):
        table.insert([key], [1])
