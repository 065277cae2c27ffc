"""Tests for the single-subtable resizing policy (Section IV)."""

import functools

import numpy as np
import pytest

from repro.core.config import DyCuckooConfig
from repro.core.instruments import Instruments
from repro.core.persistence import load_table, save_table
from repro.core.resize import _TableSnapshot
from repro.core.table import DyCuckooTable, encode_keys
from repro.errors import ResizeError
from repro.faults import FAULT_SITES, FaultPlan
from repro.gpusim.metrics import CostModel
from repro.kernels import run_voter_insert_kernel
from repro.oracle import DictModel

from .conftest import unique_keys
from .test_faults import full_state


def filled_table(n_keys=2000, seed=1, **config_kwargs):
    defaults = dict(initial_buckets=16, bucket_capacity=8, min_buckets=8)
    defaults.update(config_kwargs)
    table = DyCuckooTable(DyCuckooConfig(**defaults))
    keys = unique_keys(n_keys, seed=seed)
    table.insert(keys, keys * 2)
    return table, keys


class TestUpsize:
    def test_upsize_targets_smallest(self):
        table, _ = filled_table()
        sizes_before = [st.n_buckets for st in table.subtables]
        smallest = int(np.argmin(sizes_before))
        table.upsize()
        sizes_after = [st.n_buckets for st in table.subtables]
        assert sizes_after[smallest] == 2 * sizes_before[smallest]

    def test_upsize_preserves_contents(self):
        table, keys = filled_table()
        table.upsize()
        table.validate()
        values, found = table.find(keys)
        assert found.all()
        assert np.array_equal(values, keys * np.uint64(2))

    def test_upsize_is_conflict_free(self):
        """Every entry lands in its old bucket or old bucket + old size."""
        table, _ = filled_table()
        target = int(np.argmin([st.n_buckets for st in table.subtables]))
        st = table.subtables[target]
        codes, _values, old_buckets = st.export_entries()
        old_n = st.n_buckets
        table.upsize()
        _codes2, _values2, new_buckets = st.export_entries()
        # Export order differs; verify per key via the hash directly.
        recomputed = table.table_hashes[target].bucket(codes, old_n * 2)
        old = table.table_hashes[target].bucket(codes, old_n)
        assert bool(np.all((recomputed == old) | (recomputed == old + old_n)))

    def test_upsize_halves_subtable_fill(self):
        table, _ = filled_table()
        target = int(np.argmin([st.n_buckets for st in table.subtables]))
        fill_before = table.subtables[target].filled_factor
        table.upsize()
        assert table.subtables[target].filled_factor == pytest.approx(
            fill_before / 2)


class TestDownsize:
    def test_downsize_targets_largest(self):
        table, _ = filled_table()
        table.upsize()   # make one table strictly larger
        sizes_before = [st.n_buckets for st in table.subtables]
        largest = int(np.argmax(sizes_before))
        table.delete(table.items()[0][:1500])  # make room
        sizes_mid = [st.n_buckets for st in table.subtables]
        if sizes_mid == sizes_before:  # no automatic downsize happened yet
            table.downsize()
            sizes_after = [st.n_buckets for st in table.subtables]
            assert sizes_after[largest] == sizes_before[largest] // 2

    def test_downsize_preserves_contents(self):
        table, keys = filled_table(n_keys=500)
        keep = keys[:100]
        table.delete(keys[100:])
        table.validate()
        before = len(table)
        # Force an explicit downsize regardless of automatic ones.
        try:
            table.downsize()
        except ResizeError:
            pass  # already at minimum everywhere
        table.validate()
        assert len(table) == before
        values, found = table.find(keep)
        assert found.all()
        assert np.array_equal(values, keep * np.uint64(2))

    def test_downsize_at_minimum_raises(self):
        table = DyCuckooTable(DyCuckooConfig(initial_buckets=8,
                                             bucket_capacity=8,
                                             min_buckets=8))
        with pytest.raises(ResizeError):
            table.downsize()

    def test_residuals_relocated(self):
        """Residual spill keeps all entries findable and counted."""
        # Dense small table so merging buckets must overflow.
        table = DyCuckooTable(DyCuckooConfig(initial_buckets=16,
                                             bucket_capacity=4,
                                             min_buckets=8,
                                             auto_resize=False))
        keys = unique_keys(140, seed=3)
        table.insert(keys, keys)
        before_residuals = table.stats.residuals
        table.downsize()
        table.validate()
        _, found = table.find(keys)
        assert found.all()
        # Not guaranteed every run produces residuals, but the counter
        # must never go backwards and the structure must stay intact.
        assert table.stats.residuals >= before_residuals


def fig8_table(theta):
    """Figure 8's table: 64K slots, d=4, 32-slot buckets, keys seed 8."""
    slots = 64 * 1024
    table = DyCuckooTable(DyCuckooConfig(
        num_tables=4, bucket_capacity=32, initial_buckets=slots // (4 * 32),
        auto_resize=False))
    n = int(slots * theta)
    rng = np.random.default_rng(8)
    keys = np.unique(rng.integers(1, 1 << 62, int(n * 1.3)
                                  ).astype(np.uint64))[:n]
    table.insert(keys, keys)
    return table


class TestManualResize:
    @pytest.mark.parametrize("kind, theta, priced", [
        ("upsize", 0.85, {"bucket_reads": 512, "bucket_writes": 1024,
                          "rehashed_entries": 13956, "upsizes": 1}),
        ("downsize", 0.45, {"bucket_reads": 721, "bucket_writes": 465,
                            "rehashed_entries": 7334, "residuals": 209,
                            "lock_acquisitions": 209, "eviction_rounds": 1,
                            "downsizes": 1}),
    ])
    def test_cost_parity_at_figure8_geometry(self, kind, theta, priced):
        """Subtable 0's manual resize charges the single-pass rehash's
        exact counters; the epoch's own bookkeeping is left unpriced."""
        table = fig8_table(theta)
        setattr(table._resizer, f"_pick_{kind}_target", lambda: 0)
        before = table.stats.snapshot()
        getattr(table, kind)()
        delta = {name: count for name, count
                 in table.stats.delta(before).items() if count}
        bookkeeping = {name: delta.pop(name) for name
                       in ("migration_slices", "migrated_pairs")
                       if name in delta}
        assert delta == priced
        cost = CostModel()
        assert (cost.batch_seconds({**delta, **bookkeeping}, 1)
                == cost.batch_seconds(delta, 1))
        table.validate()

    def test_downsize_refuses_to_overshoot_beta(self):
        """Halving would put theta above beta: refused before any fault
        site is consulted and before anything moves."""
        table = DyCuckooTable(DyCuckooConfig(
            initial_buckets=16, bucket_capacity=8, min_buckets=8,
            auto_resize=False))
        keys = unique_keys(420, seed=6)
        table.insert(keys, keys)
        plan = FaultPlan(seed=0, rates={site: 1.0 for site in FAULT_SITES})
        table.attach(Instruments(faults=plan))
        before = full_state(table)
        with pytest.raises(ResizeError, match="above beta"):
            table.downsize()
        assert full_state(table) == before
        assert plan.invocations() == {}


class TestBoundEnforcement:
    def test_fill_within_bounds_after_growth(self):
        table, _ = filled_table(n_keys=20_000)
        assert table.load_factor <= table.config.beta + 1e-9

    def test_fill_recovers_after_mass_delete(self):
        table, keys = filled_table(n_keys=20_000)
        table.delete(keys[:19_000])
        # Downsize loop: either back above alpha, or stuck at min size.
        at_min = all(st.n_buckets <= table.config.min_buckets
                     for st in table.subtables)
        assert table.load_factor >= table.config.alpha - 1e-9 or at_min

    def test_alpha_bound_respects_beta_projection(self):
        """Downsizing never overshoots past beta."""
        table, keys = filled_table(n_keys=20_000)
        table.delete(keys[:10_000])
        assert table.load_factor <= table.config.beta + 1e-9

    def test_upsizes_counted(self):
        # Insert in chunks so later upsizes move real entries (a single
        # bulk insert sizes the table proactively while it is empty).
        table = DyCuckooTable(DyCuckooConfig(initial_buckets=16,
                                             bucket_capacity=8))
        keys = unique_keys(20_000, seed=1)
        for start in range(0, len(keys), 1000):
            chunk = keys[start:start + 1000]
            table.insert(chunk, chunk)
        assert table.stats.upsizes > 0
        assert table.stats.rehashed_entries > 0

    def test_anticipatory_upsize_extension(self):
        config = DyCuckooConfig(initial_buckets=16, bucket_capacity=8,
                                anticipatory_upsize=True)
        table = DyCuckooTable(config)
        keys = unique_keys(20_000, seed=5)
        table.insert(keys, keys)
        _, found = table.find(keys)
        assert found.all()
        table.validate()
        # After an anticipatory upsize run, fill sits at/below the
        # [alpha, beta] midpoint or within bounds; never above beta.
        assert table.load_factor <= config.beta + 1e-9


class TestSnapshot:
    def test_snapshot_restores_storage(self):
        table, keys = filled_table(n_keys=500)
        snapshot = _TableSnapshot(table)
        table.delete(keys[:250])
        table.upsize()
        snapshot.restore(table)
        table.validate()
        values, found = table.find(keys)
        assert found.all()
        assert len(table) == 500

    def test_snapshot_restores_stash(self):
        """The snapshot must cover the overflow stash, not just storage.

        Regression: resize rollbacks taken while keys sat in the stash
        (e.g. an injected abort during a stash drain's upsize) used to
        restore subtable arrays only, resurrecting or dropping stashed
        keys relative to the captured moment.
        """
        table, keys = filled_table(n_keys=300)
        extra = unique_keys(40, seed=77, low=1 << 40)
        codes = encode_keys(extra)
        table.stash.push(codes, extra)
        snapshot = _TableSnapshot(table)
        table.stash.pop_all()
        assert len(table.stash) == 0
        snapshot.restore(table)
        assert len(table.stash) == 40
        _, found = table.find(extra)
        assert found.all()

    def test_snapshot_discards_stash_pushed_after_capture(self):
        table, _keys = filled_table(n_keys=300)
        snapshot = _TableSnapshot(table)
        extra = unique_keys(8, seed=78, low=1 << 40)
        table.stash.push(encode_keys(extra), extra)
        snapshot.restore(table)
        assert len(table.stash) == 0


class TestErrorHandlingRegressions:
    """The three resize-path error-handling fixes of this PR."""

    def test_ceiling_blocked_bound_enforcement_keeps_batch(self):
        """A ceiling-blocked upsize must not fail a landed batch.

        Regression: ``enforce_bounds`` caught :class:`ResizeError` but
        let :class:`CapacityError` propagate, reporting failure for an
        insert batch whose keys were all stored successfully.  The
        ceiling block is recorded and the table simply stays above
        ``beta`` until deletes make room.
        """
        table = DyCuckooTable(DyCuckooConfig(
            initial_buckets=16, bucket_capacity=8, min_buckets=8,
            max_total_slots=512))
        assert table.total_slots == 512  # no doubling can ever fit
        keys = unique_keys(450, seed=31)
        table.insert(keys, keys)  # must not raise
        assert table.stats.capacity_blocked >= 1
        assert table.load_factor > table.config.beta
        _, found = table.find(keys)
        assert found.all()
        # Deletes make room again; bounds enforcement resumes cleanly.
        table.delete(keys[:200])
        assert table.load_factor <= table.config.beta + 1e-9

    def test_anticipatory_upsize_stops_at_ceiling(self):
        """An anticipatory extra doubling hitting the ceiling is benign.

        Regression: only :class:`ResizeError` stopped the anticipation
        loop; a ``max_total_slots`` ceiling propagated out of
        ``upsize_for_insert_failure`` even though the mandatory first
        doubling had already created the capacity the insert needed.
        """
        table = DyCuckooTable(DyCuckooConfig(
            initial_buckets=8, bucket_capacity=8, min_buckets=8,
            anticipatory_upsize=True, max_total_slots=320))
        keys = unique_keys(190, seed=32)
        table.insert(keys, keys)
        assert table.stats.upsizes == 0  # still inside the band
        table._resizer.upsize_for_insert_failure()  # must not raise
        # The mandatory doubling fit (256 -> 320); the anticipatory
        # extra would exceed the ceiling and is abandoned.
        assert table.stats.upsizes == 1
        assert table.total_slots == 320
        table.finalize_resizes()
        table.validate()
        _, found = table.find(keys)
        assert found.all()

    def test_abort_mid_stash_drain_loses_no_key(self):
        """Resize aborts firing around a stash drain keep every key.

        Exercises the snapshot-covers-stash fix end to end: every
        resize attempt aborts at the rehash stage, inserts degrade to
        the stash, and drains retried across resize epochs roll back
        without losing or resurrecting keys.
        """
        table = DyCuckooTable(DyCuckooConfig(
            initial_buckets=8, bucket_capacity=4, min_buckets=4,
            alpha=0.45, beta=0.55, stash_capacity=4096))
        table.attach(Instruments(faults=FaultPlan(seed=9, rates={
            "resize.abort.rehash": 1.0, "insert.evict": 0.2})))
        model = DictModel()
        rng = np.random.default_rng(33)
        for wave in range(6):
            keys = rng.integers(1, 400, 60).astype(np.uint64)
            assert model.apply(table, "insert", keys,
                               keys * np.uint64(2)) == []
            assert model.apply(table, "delete", rng.integers(
                1, 400, 20).astype(np.uint64)) == [], f"wave {wave}"
            assert model.divergence(table) == [], f"lost keys in wave {wave}"
        missing = np.array([k for k in range(1, 400)
                            if k not in model.data], dtype=np.uint64)
        _, found = table.find(missing)
        assert not found.any()


class TestMigrationEpochs:
    def test_epoch_open_grows_capacity_before_any_entry_moves(self):
        table, keys = filled_table()
        slots_before = table.total_slots
        migrated_before = table.stats.migrated_pairs
        target = table._resizer.open_upsize_epoch()
        st = table.subtables[target]
        assert st.migration is not None
        assert st.migration.kind == "upsize"
        assert table.total_slots == slots_before + st.total_slots // 2
        assert table.stats.migrated_pairs == migrated_before
        # Dual view: every key reachable while nothing has migrated.
        values, found = table.find(keys)
        assert found.all()
        assert np.array_equal(values, keys * np.uint64(2))

    def test_drain_respects_budget_and_completes(self):
        table, keys = filled_table()
        table._resizer.open_upsize_epoch()
        moved_total = 0
        for _ in range(1000):
            moved = table._resizer.drain_migration(max_pairs=8)
            assert moved <= 8
            moved_total += moved
            if not any(st.migration is not None
                       for st in table.subtables):
                break
        else:  # pragma: no cover - would mean the epoch never closed
            raise AssertionError("epoch did not complete")
        assert moved_total > 0
        table.validate()
        _, found = table.find(keys)
        assert found.all()

    def test_concurrent_epochs_share_one_batch_budget(self):
        """A batch never pays more than one budget, however many epochs."""
        table, _keys = filled_table()
        first = table._resizer.open_upsize_epoch()
        second = table._resizer.open_upsize_epoch()
        assert first != second  # smallest-subtable pick moves on
        assert len(table._resizer._open_epochs()) == 2
        assert table._resizer.drain_migration(max_pairs=6) <= 6
        assert table._resizer.drain_migration(max_pairs=6) <= 6

    def test_reopening_a_subtable_finalizes_its_own_epoch_only(self):
        table, keys = filled_table()
        first = table._resizer.open_upsize_epoch()
        # Force the same subtable to be smallest again by doubling the
        # others... instead simply reopen until the pick cycles back.
        opened = {first}
        for _ in range(len(table.subtables)):
            nxt = table._resizer.open_upsize_epoch()
            if nxt == first:
                break
            opened.add(nxt)
        st = table.subtables[first]
        # Its first epoch was finalized before the geometry doubled
        # again; others may still be mid-flight.
        assert st.migration is None or st.migration.kind == "upsize"
        table.finalize_resizes()
        table.validate()
        _, found = table.find(keys)
        assert found.all()

    def test_downsize_epoch_halves_logical_size_immediately(self):
        table, keys = filled_table(n_keys=400)
        table.delete(keys[200:])
        table.finalize_resizes()
        slots_before = table.total_slots
        target = table._resizer.open_downsize_epoch()
        st = table.subtables[target]
        assert st.migration is not None
        assert st.migration.kind == "downsize"
        assert table.total_slots == slots_before - st.total_slots
        values, found = table.find(keys[:200])
        assert found.all()
        table.finalize_resizes()
        table.validate()
        _, found = table.find(keys[:200])
        assert found.all()

    def test_delete_mid_epoch_hits_both_views(self):
        table, keys = filled_table()
        table._resizer.open_upsize_epoch()
        table._resizer.drain_migration(max_pairs=4)  # mixed views
        removed = table.delete(keys)
        assert removed.all()
        table.finalize_resizes()
        assert len(table) == 0

    def test_stall_path_upsize_is_synchronous(self):
        """An insert-stall doubling leaves no open epoch behind."""
        table, _keys = filled_table()
        table._resizer.upsize_for_insert_failure()
        assert table._resizer._open_epochs() == []

    def test_manual_resizes_finalize_open_epochs_first(self):
        table, keys = filled_table()
        table._resizer.open_upsize_epoch()
        table.upsize()  # its epoch runs to completion, and so do the rest
        assert table._resizer._open_epochs() == []
        table.validate()
        _, found = table.find(keys)
        assert found.all()


class TestBucketsOfRaw:
    """``bucket_resolver()`` equals ``bucket_of_raw`` element for element."""

    @staticmethod
    def _assert_matches(table, n=3000, seed=5):
        rng = np.random.default_rng(seed)
        codes = encode_keys(unique_keys(n, seed=seed))
        targets = rng.integers(0, table.num_tables, n)
        raws = np.stack([h.raw(codes).astype(np.uint32)
                         for h in table.table_hashes])
        raw = raws[targets, np.arange(n)]
        want = np.array([table.bucket_of_raw(int(t), raw[i:i + 1])[0]
                         for i, t in enumerate(targets)])
        got = table.bucket_resolver()(targets, raw)
        assert got.dtype == np.int64
        assert np.array_equal(got, want)

    def test_settled_geometry(self):
        table, _keys = filled_table()
        table.finalize_resizes()
        table.upsize()  # subtables of two different sizes
        assert all(st.migration is None for st in table.subtables)
        assert len({st.n_buckets for st in table.subtables}) == 2
        self._assert_matches(table)

    @pytest.mark.parametrize("kind", ["upsize", "downsize"])
    def test_open_epoch(self, kind):
        table, keys = filled_table(n_keys=2000 if kind == "upsize" else 400)
        if kind == "downsize":
            table.delete(keys[200:])
            table.finalize_resizes()
            table._resizer.open_downsize_epoch()
        else:
            table._resizer.open_upsize_epoch()
        table._resizer.drain_migration(max_pairs=3)  # mixed views
        open_epochs = [st.migration for st in table.subtables
                       if st.migration is not None]
        assert [m.kind for m in open_epochs] == [kind]
        assert 0 < open_epochs[0].pending < open_epochs[0].num_pairs
        self._assert_matches(table)

    def test_cached_resolver_follows_every_geometry_change(self, tmp_path):
        """Each geometry change drops the cached resolver; the check runs
        right after one built for the previous geometry."""
        table, keys = filled_table()
        check = functools.partial(self._assert_matches, n=400)
        check(table)
        table._resizer.open_upsize_epoch()
        check(table)  # epoch open
        table._resizer.drain_migration(max_pairs=3)  # mixed views
        check(table)
        table.finalize_resizes()
        check(table)  # epoch finish
        # Settled again: the per-target epoch check is no longer cached.
        assert table.bucket_resolver() != table._buckets_per_target
        table.delete(keys[300:])
        table.finalize_resizes()
        check(table)
        table._resizer.open_downsize_epoch()
        check(table)
        table._resizer.drain_migration(max_pairs=3)
        check(table)
        table.finalize_resizes()
        check(table)
        snapshot = _TableSnapshot(table)
        table.upsize()
        check(table)
        snapshot.restore(table)
        check(table)  # snapshot restore
        table.upsize()
        check(table)
        check(table.copy())
        path = tmp_path / "table.npz"
        save_table(table, path)
        check(load_table(path))
        table.clear()
        check(table)


class TestFlatStorage:
    """The cohort engine's storage arena is a cache over the subtables.

    ``flat_storage()`` hands back the same arena while every subtable
    still views it, rebuilds it once a resize (or ``clear()``) has
    replaced some subtable's arrays, and never travels in a pickle.
    """

    @staticmethod
    def _table(**kw):
        defaults = dict(initial_buckets=32, bucket_capacity=8,
                        min_buckets=8, auto_resize=False, seed=5)
        defaults.update(kw)
        return DyCuckooTable(DyCuckooConfig(**defaults))

    @staticmethod
    def _launch(table, keys):
        run_voter_insert_kernel(table, keys, keys, engine="cohort")

    @staticmethod
    def _assert_backs(table):
        """The arena's offsets and rows match the subtables, as views."""
        arena = table.flat_storage()
        rows = [len(st.keys) for st in table.subtables]
        assert arena.row_offset.dtype == np.int64
        assert np.array_equal(arena.row_offset,
                              np.cumsum([0] + rows[:-1]))
        assert len(arena.keys) == sum(rows)
        for t, st in enumerate(table.subtables):
            lo = int(arena.row_offset[t])
            assert np.array_equal(arena.keys[lo:lo + rows[t]], st.keys)
            assert np.array_equal(arena.values[lo:lo + rows[t]], st.values)
            assert st.keys.base is arena.keys
            assert st.values.base is arena.values
        return arena

    def test_same_arena_across_launches(self):
        table = self._table()
        keys = unique_keys(800, seed=21)
        arena = self._assert_backs(table)
        for chunk in np.array_split(keys, 10):
            self._launch(table, chunk)
            assert table.flat_storage() is arena
        self._assert_backs(table)
        table.validate()
        values, found = table.find(keys)
        assert found.all() and np.array_equal(values, keys)

    def test_rebuilds_after_upsize(self):
        table = self._table()
        keys = unique_keys(600, seed=22)
        self._launch(table, keys)
        before = table.flat_storage()
        table.upsize()
        table.finalize_resizes()
        after = self._assert_backs(table)
        assert after is not before
        assert len(after.keys) == len(before.keys) + 32
        self._launch(table, unique_keys(50, seed=23, low=1 << 40))
        assert table.flat_storage() is after
        table.validate()

    def test_rebuilds_after_finalized_downsize_epoch(self):
        table = self._table()
        keys = unique_keys(200, seed=24)
        self._launch(table, keys)
        before = table.flat_storage()
        target = table._resizer.open_downsize_epoch()
        # A downsize epoch keeps the physical rows: still the arena.
        assert table.subtables[target].migration is not None
        assert table.flat_storage() is before
        table.finalize_resizes()
        after = self._assert_backs(table)
        assert after is not before
        assert len(after.keys) == len(before.keys) - 16
        table.validate()
        values, found = table.find(keys)
        assert found.all() and np.array_equal(values, keys)

    def test_rebuilds_after_clear(self):
        table = self._table()
        self._launch(table, unique_keys(300, seed=25))
        before = table.flat_storage()
        table.clear()
        after = self._assert_backs(table)
        assert after is not before
        assert not after.keys.any()

    def test_host_resizes_keep_at_most_one_stale_arena(self):
        import gc
        import weakref

        table = self._table()
        self._launch(table, unique_keys(400, seed=26))
        stale = weakref.ref(table.flat_storage().keys)
        table.upsize()
        table.upsize()
        table.finalize_resizes()
        gc.collect()
        # No arena is built between launches: the old one is the only
        # stale arena, kept alive by the views of unresized subtables.
        assert stale() is not None
        self._launch(table, unique_keys(40, seed=27, low=1 << 40))
        gc.collect()
        assert stale() is None
        self._assert_backs(table)

    def test_pickle_and_copy_carry_no_arena(self):
        import pickle

        table = self._table()
        keys = unique_keys(700, seed=28)
        table.insert(keys[:300], keys[:300])
        before = len(pickle.dumps(table))
        self._launch(table, keys[300:])
        arena = table.flat_storage()
        after = len(pickle.dumps(table))
        assert abs(after - before) <= 0.01 * before
        for clone in (table.copy(), pickle.loads(pickle.dumps(table))):
            assert clone.to_dict() == table.to_dict()
            for st in clone.subtables:
                assert not np.shares_memory(st.keys, arena.keys)
                assert not np.shares_memory(st.values, arena.values)
