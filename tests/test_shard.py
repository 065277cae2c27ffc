"""Tests for the sharded front-end (:mod:`repro.shard`).

``REPRO_FUZZ_EXAMPLES`` scales the example budget of the wave property
test, as it does for ``tests/test_differential_fuzz.py``.
"""

import os
import pickle
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import batch_ops
from repro.core.batch_ops import (OP_DELETE, OP_FIND, OP_INSERT,
                                  EncodedBatch, MixedBatchResult,
                                  execute_mixed, plan_runs)
from repro.core.config import DyCuckooConfig, replace_config
from repro.core.hashing import HashStack, UniversalHash
from repro.core.instruments import Instruments
from repro.core.resize import ResizeController
from repro.core.table import DyCuckooTable, encode_keys
from repro.errors import CapacityError, InvalidConfigError, InvalidKeyError
from repro.gpusim.device import GTX_1080, partition_device
from repro.kernels.find import run_find_kernel
from repro.oracle import mixed_batch, twin_divergence
from repro.shard import sharded as sharded_module
from repro.shard import (ShardedDyCuckoo, simulate_shard_speedup,
                         speedup_for_table)
from repro.telemetry import Telemetry

from .conftest import unique_keys

MAX_EXAMPLES = int(os.environ.get("REPRO_FUZZ_EXAMPLES", "25"))


def small_sharded(num_shards=4, **kw):
    defaults = dict(initial_buckets=8, min_buckets=8)
    defaults.update(kw)
    return ShardedDyCuckoo(num_shards=num_shards,
                           config=DyCuckooConfig(**defaults))


class TestConstruction:
    def test_interface(self):
        from repro.baselines.base import GpuHashTable

        table = small_sharded()
        assert isinstance(table, GpuHashTable)
        assert table.NAME == "ShardedDyCuckoo"
        assert len(table.shards) == 4

    @pytest.mark.parametrize("bad", [0, -1, 3, 6, 12])
    def test_rejects_non_power_of_two(self, bad):
        with pytest.raises(InvalidConfigError, match="power of two"):
            ShardedDyCuckoo(num_shards=bad)

    def test_shard_configs_length_checked(self):
        with pytest.raises(InvalidConfigError, match="4 entries"):
            ShardedDyCuckoo(num_shards=4,
                            shard_configs=[DyCuckooConfig()] * 3)

    def test_shards_use_distinct_hash_functions(self):
        table = small_sharded()
        constants = {(int(h.a), int(h.b), int(h.premix))
                     for shard in table.shards
                     for h in shard.table_hashes}
        # 4 shards x 4 subtables, all drawn from distinct seeds.
        assert len(constants) == 16


class TestRouting:
    def test_ids_in_range_and_deterministic(self):
        table = small_sharded(num_shards=8)
        keys = unique_keys(5000, seed=21)
        ids = table.shard_ids(keys)
        assert ids.min() >= 0 and ids.max() < 8
        assert np.array_equal(ids, table.shard_ids(keys))

    def test_single_shard_routes_everything_to_zero(self):
        table = small_sharded(num_shards=1)
        ids = table.shard_ids(unique_keys(100, seed=22))
        assert not ids.any()

    def test_reasonable_balance(self):
        table = small_sharded(num_shards=4)
        keys = unique_keys(20_000, seed=23)
        counts = np.bincount(table.shard_ids(keys), minlength=4)
        assert counts.min() > 0.8 * counts.mean()

    def test_stored_keys_route_home(self):
        table = small_sharded()
        keys = unique_keys(2000, seed=24)
        table.insert(keys, keys)
        table.validate()
        for idx, shard in enumerate(table.shards):
            shard_keys = shard.items()[0]
            assert bool((table.shard_ids(shard_keys) == idx).all())


class TestDifferentialEquality:
    """Acceptance: S=4 equals one table over a 10k-op mixed workload."""

    def _mixed_stream(self, total_ops: int, seed: int):
        rng = np.random.default_rng(seed)
        ops = rng.choice([OP_INSERT, OP_FIND, OP_DELETE], size=total_ops,
                         p=[0.5, 0.3, 0.2]).astype(np.int64)
        keys = rng.integers(1, 4000, size=total_ops).astype(np.uint64)
        values = rng.integers(1, 1 << 40, size=total_ops).astype(np.uint64)
        return ops, keys, values

    def test_10k_mixed_ops_match_single_table(self):
        sharded = small_sharded(num_shards=4)
        reference = DyCuckooTable(DyCuckooConfig(initial_buckets=8,
                                                 min_buckets=8))
        ops, keys, values = self._mixed_stream(10_000, seed=25)
        for start in range(0, len(ops), 500):
            seg = slice(start, start + 500)
            got = sharded.execute_mixed(ops[seg], keys[seg], values[seg])
            want = execute_mixed(reference, ops[seg], keys[seg],
                                 values[seg])
            find_at = ops[seg] == OP_FIND
            assert np.array_equal(got.found[find_at], want.found[find_at])
            assert np.array_equal(got.values[find_at & got.found],
                                  want.values[find_at & want.found])
            delete_at = ops[seg] == OP_DELETE
            assert np.array_equal(got.removed[delete_at],
                                  want.removed[delete_at])
        sharded.validate()
        # Union of shard contents equals the reference contents.
        assert sharded.to_dict() == reference.to_dict()
        assert len(sharded) == len(reference)

    def test_homogeneous_batches_match(self):
        sharded = small_sharded(num_shards=4)
        reference = DyCuckooTable(DyCuckooConfig(initial_buckets=8,
                                                 min_buckets=8))
        keys = unique_keys(5000, seed=26)
        for table in (sharded, reference):
            table.insert(keys, keys * np.uint64(2))
        s_values, s_found = sharded.find(keys)
        r_values, r_found = reference.find(keys)
        assert np.array_equal(s_found, r_found)
        assert np.array_equal(s_values, r_values)
        assert np.array_equal(sharded.delete(keys[:2500]),
                              reference.delete(keys[:2500]))
        assert sharded.to_dict() == reference.to_dict()

    def test_duplicate_key_batch_semantics_preserved(self):
        """Same shard per key => last-wins / first-occurrence carry over."""
        sharded = small_sharded()
        keys = np.array([5, 9, 5, 9, 5], dtype=np.uint64)
        values = np.array([1, 2, 3, 4, 5], dtype=np.uint64)
        sharded.insert(keys, values)
        assert sharded.to_dict() == {5: 5, 9: 4}
        removed = sharded.delete(np.array([5, 5, 9], dtype=np.uint64))
        assert removed.tolist() == [True, False, True]
        assert len(sharded) == 0


class TestMalformedBatchIsAtomic:
    """A batch one shard would reject is rejected before any shard runs,
    serially and on the process pool, exactly like a single table."""

    def _preloaded(self, parallel_workers=None):
        table = ShardedDyCuckoo(
            num_shards=4, parallel_workers=parallel_workers,
            config=DyCuckooConfig(initial_buckets=8, min_buckets=8))
        keys = np.arange(1, 401, dtype=np.uint64)
        table.insert(keys, keys * np.uint64(3))
        return table, keys

    def _malformed(self, table, keys):
        last_shard_key = keys[table.shard_ids(keys) == 3][0]
        deletes = np.full(len(keys), OP_DELETE, dtype=np.int64)
        bad_code = deletes.copy()
        bad_code[keys == last_shard_key] = 7
        negative = deletes.copy()
        negative[keys == last_shard_key] = -1
        one_insert = deletes.copy()
        one_insert[keys == last_shard_key] = OP_INSERT
        return [
            (bad_code, keys, None),
            (negative, keys, None),
            (one_insert, keys, None),
            (one_insert, keys, keys[:-1]),
            (deletes[:-1], keys, None),
        ]

    @pytest.mark.parametrize("parallel_workers", [None, 2])
    def test_malformed_batch_leaves_table_unchanged(self, parallel_workers):
        table, keys = self._preloaded(parallel_workers)
        with table:
            before = (table.to_dict(),
                      [shard.stats.snapshot() for shard in table.shards])
            for ops, batch_keys, values in self._malformed(table, keys):
                with pytest.raises(InvalidConfigError):
                    table.execute_mixed(ops, batch_keys, values)
                after = (table.to_dict(),
                         [shard.stats.snapshot() for shard in table.shards])
                assert after == before
        single = DyCuckooTable(DyCuckooConfig(initial_buckets=8,
                                              min_buckets=8))
        single.insert(keys, keys * np.uint64(3))
        for ops, batch_keys, values in self._malformed(table, keys):
            with pytest.raises(InvalidConfigError):
                execute_mixed(single, ops, batch_keys, values)
        assert single.to_dict() == before[0]


class TestPerShardResize:
    def test_shards_resize_independently(self):
        table = small_sharded(num_shards=4)
        keys = unique_keys(8000, seed=27)
        table.insert(keys, keys)
        upsizes = [shard.stats.upsizes for shard in table.shards]
        assert all(u > 0 for u in upsizes)
        # Deleting only one shard's keys downsizes only that shard.
        target = 2
        target_keys = keys[table.shard_ids(keys) == target]
        table.delete(target_keys)
        downsizes = [shard.stats.downsizes for shard in table.shards]
        assert downsizes[target] > 0
        assert all(d == 0 for i, d in enumerate(downsizes) if i != target)
        table.validate()

    def test_per_shard_bands(self):
        """shard_configs gives each shard its own [alpha, beta] band."""
        base = DyCuckooConfig(initial_buckets=8, min_buckets=8)
        tight = replace_config(base, alpha=0.55, beta=0.75, seed=99)
        table = ShardedDyCuckoo(
            num_shards=2, config=base, shard_configs=[base, tight])
        assert table.shards[0].config.beta == base.beta
        assert table.shards[1].config.beta == 0.75
        keys = unique_keys(4000, seed=28)
        table.insert(keys, keys)
        table.validate()
        for shard in table.shards:
            assert shard.load_factor <= shard.config.beta + 1e-9

    def test_resize_lock_fraction(self):
        assert small_sharded(num_shards=4).resize_lock_fraction() == 1 / 16
        assert small_sharded(num_shards=1).resize_lock_fraction() == 1 / 4


class TestRollups:
    def test_stats_merge_across_shards(self):
        table = small_sharded()
        keys = unique_keys(3000, seed=29)
        table.insert(keys, keys)
        table.find(keys)
        merged = table.stats
        assert merged.inserts == 3000
        assert merged.finds == 3000
        assert merged.inserts == sum(s.stats.inserts for s in table.shards)

    def test_memory_footprint_sums(self):
        table = small_sharded()
        keys = unique_keys(2000, seed=30)
        table.insert(keys, keys)
        footprint = table.memory_footprint()
        parts = [shard.memory_footprint() for shard in table.shards]
        assert footprint.live_entries == 2000 == len(table)
        assert footprint.total_slots == sum(p.total_slots for p in parts)
        assert footprint.total_bytes == sum(p.total_bytes for p in parts)
        assert table.total_slots == footprint.total_slots
        assert table.load_factor == pytest.approx(
            2000 / footprint.total_slots)

    def test_subtable_load_factors_alias(self):
        table = small_sharded(num_shards=4)
        table.insert(unique_keys(1000, seed=31), unique_keys(1000, seed=31))
        fills = table.subtable_load_factors
        assert fills == table.shard_load_factors
        assert len(fills) == 4 and all(0.0 < f <= 1.0 for f in fills)

    def test_telemetry_rollup(self):
        table = small_sharded()
        table.attach(Instruments(telemetry=Telemetry()))
        keys = unique_keys(1500, seed=32)
        table.insert(keys, keys)
        table.find(keys)
        merged = table.merged_metrics()
        # Labelled per-shard copies plus aggregated roll-ups.
        assert "shard0.find.hits" in merged.counters
        roll = merged.counter("find.hits")
        assert roll.value == sum(
            merged.counter(f"shard{i}.find.hits").value for i in range(4))
        assert roll.value == 1500
        # The front-end's own dispatch spans land on the parent handle.
        assert len(table.telemetry.tracer.spans("shard.insert")) == 1

    def test_validate_detects_misrouted_key(self):
        table = small_sharded()
        keys = unique_keys(100, seed=33)
        table.insert(keys, keys)
        # Force one key into the wrong shard behind the router's back.
        wrong = (int(table.shard_ids(keys[:1])[0]) + 1) % 4
        table.shards[wrong].insert(keys[:1], keys[:1])
        with pytest.raises(AssertionError,
                           match="routed to|duplicate key"):
            table.validate()


class TestCostModel:
    def test_partition_device_shares_resources(self):
        group = partition_device(GTX_1080, 4)
        assert group.num_sms == GTX_1080.num_sms // 4
        assert group.mem_bandwidth_gbps == GTX_1080.mem_bandwidth_gbps / 4
        assert partition_device(GTX_1080, 1) is GTX_1080
        with pytest.raises(InvalidConfigError):
            partition_device(GTX_1080, 0)

    def test_more_groups_than_sms_clamps(self):
        group = partition_device(GTX_1080, 64)
        assert group.num_sms == 1
        assert group.mem_bandwidth_gbps == pytest.approx(
            GTX_1080.mem_bandwidth_gbps / 64)

    def test_single_shard_is_serial_schedule(self):
        table = small_sharded(num_shards=1)
        before = [stats.snapshot() for stats in table.shard_stats()]
        keys = unique_keys(2000, seed=34)
        table.insert(keys, keys)
        report = speedup_for_table(table, before, [len(keys)])
        assert report.speedup == pytest.approx(1.0)
        assert report.parallel_seconds == pytest.approx(
            report.serial_seconds)

    def test_sharding_speeds_up_but_sublinearly(self):
        table = small_sharded(num_shards=4)
        before = [stats.snapshot() for stats in table.shard_stats()]
        keys = unique_keys(8000, seed=35)
        table.insert(keys, keys)
        table.find(keys)
        shard_ops = np.bincount(
            table.shard_ids(np.concatenate([keys, keys])),
            minlength=4).tolist()
        report = speedup_for_table(table, before, shard_ops)
        assert 1.0 < report.speedup < 4.0
        assert report.parallel_mops > report.serial_mops
        assert report.num_ops == 16_000
        assert report.resize_lock_fraction == 1 / 16
        payload = report.to_dict()
        assert payload["speedup"] == pytest.approx(report.speedup)

    def test_input_validation(self):
        with pytest.raises(InvalidConfigError, match="op counts"):
            simulate_shard_speedup([{}, {}], [1])
        with pytest.raises(InvalidConfigError, match="at least one"):
            simulate_shard_speedup([], [])


def _assert_hashed_like_each_shard(table, keys):
    """Every shard's pre-hashed batch equals what the shard's own
    ``EncodedBatch`` and router compute for its keys."""
    order, batches = table._scatter(keys)
    ids = table.shard_ids(keys)
    start = 0
    for idx, (shard, batch) in enumerate(zip(table.shards, batches)):
        mine = np.flatnonzero(ids == idx)
        if batch is None:
            assert len(mine) == 0
            continue
        stop = start + len(batch)
        assert np.array_equal(order[start:stop], mine)
        own = EncodedBatch(shard, keys[mine])
        assert batch.table is shard
        assert np.array_equal(batch.codes, own.codes)
        assert np.array_equal(batch.first, own.first)
        assert np.array_equal(batch.second, own.second)
        assert batch.candidate_raw.dtype == own.candidate_raw.dtype
        assert np.array_equal(batch.candidate_raw, own.candidate_raw)
        assert own.draw is None
        assert np.array_equal(batch.draw, shard._router.coin.draw(own.codes))
        start = stop
    assert start == len(keys)


def _mixed_d_configs(routing):
    return [DyCuckooConfig(num_tables=d, routing=routing, initial_buckets=8,
                           min_buckets=8, seed=11 * d + 1)
            for d in (2, 3, 4, 8)]


class TestStackedHashing:
    """One stacked pass hashes a batch for every shard exactly as each
    shard's own pair, table and coin functions do."""

    @pytest.mark.parametrize("num_shards", [1, 2, 4])
    def test_matches_each_shard(self, num_shards):
        table = small_sharded(num_shards=num_shards)
        keys = unique_keys(3000, seed=51)
        _assert_hashed_like_each_shard(table, keys)
        _assert_hashed_like_each_shard(table, keys[:7])
        _assert_hashed_like_each_shard(table, keys[:0])

    @pytest.mark.parametrize("routing", ["weighted", "uniform"])
    def test_matches_shards_of_unequal_d(self, routing):
        table = ShardedDyCuckoo(num_shards=4,
                                shard_configs=_mixed_d_configs(routing))
        assert [shard.num_tables for shard in table.shards] == [2, 3, 4, 8]
        _assert_hashed_like_each_shard(table, unique_keys(4000, seed=52))

    def test_follows_replaced_shards(self):
        """A shard replaced by its pickle (the parallel path's round
        trip), or by a table with other functions, is hashed with the
        functions it holds now."""
        table = ShardedDyCuckoo(num_shards=4,
                                shard_configs=_mixed_d_configs("weighted"))
        keys = unique_keys(2000, seed=53)
        table.insert(keys, keys)
        table.shards[1] = pickle.loads(pickle.dumps(table.shards[1]))
        _assert_hashed_like_each_shard(table, keys)
        table.shards[2] = DyCuckooTable(replace_config(
            table.shards[2].config, seed=99))
        _assert_hashed_like_each_shard(table, keys)

    @pytest.mark.parametrize("num_shards", [1, 2, 4, 8])
    def test_hash_budget(self, monkeypatch, num_shards):
        """A sharded call makes at most three stacked hash calls, however
        many shards and runs it has, and a call that evicts nothing
        hashes nothing else.  With evictions, the shards hash only the
        victims, each once."""
        table = ShardedDyCuckoo(num_shards=num_shards, config=DyCuckooConfig(
            initial_buckets=512, bucket_capacity=8, auto_resize=False))
        keys = unique_keys(1000, seed=54)
        table.insert(keys, keys)
        front, other = [], []
        plain_stack_raw = HashStack.raw
        plain_raw = UniversalHash.raw

        def counting_stack_raw(self, codes, which):
            hashed = (front if self is table._hashes().stack else other)
            hashed.append(np.broadcast(codes, which).size)
            return plain_stack_raw(self, codes, which)

        def counting_raw(self, codes):
            other.append(len(codes))
            return plain_raw(self, codes)

        rng = np.random.default_rng(55)
        ops, op_keys, values = mixed_batch(rng, 1200, run_length=(5, 40),
                                           keyspace=2000)
        calls = [
            ("find", (op_keys,)),
            ("delete", (keys[500:700],)),
            ("insert", (op_keys, values)),
            ("execute_mixed", (ops, op_keys, values)),
        ]
        for name, args in calls:
            evictions = table.stats.evictions
            front.clear()
            other.clear()
            monkeypatch.setattr(HashStack, "raw", counting_stack_raw)
            monkeypatch.setattr(UniversalHash, "raw", counting_raw)
            out = getattr(table, name)(*args)
            monkeypatch.undo()
            assert len(front) <= 3, name
            assert table.stats.evictions == evictions, name
            assert other == [], name
        assert out.runs > 2 * num_shards

        # A dense insert evicts: only its victims are hashed again.
        table = ShardedDyCuckoo(num_shards=num_shards, config=DyCuckooConfig(
            initial_buckets=32, bucket_capacity=8, auto_resize=False))
        keys = unique_keys(700 * num_shards, seed=58)
        front.clear()
        other.clear()
        monkeypatch.setattr(HashStack, "raw", counting_stack_raw)
        table.insert(keys, keys)
        monkeypatch.undo()
        assert table.stats.evictions > 0
        assert len(front) <= 3
        assert sum(other) <= table.stats.evictions
        table.validate()


class TestSerialParallelAgree:
    def test_mixed_stream(self):
        """Serial and ``parallel_workers=2`` execution of one mixed
        stream, with resizes, agree bit for bit."""
        config = DyCuckooConfig(initial_buckets=8, min_buckets=8,
                                bucket_capacity=8)
        serial = ShardedDyCuckoo(num_shards=4, config=config)
        parallel = ShardedDyCuckoo(num_shards=4, config=config,
                                   parallel_workers=2)
        rng = np.random.default_rng(56)
        with parallel:
            for _ in range(4):
                ops, keys, values = mixed_batch(rng, 800,
                                                run_length=(10, 80),
                                                keyspace=4000)
                rs = serial.execute_mixed(ops, keys, values)
                rp = parallel.execute_mixed(ops, keys, values)
                assert twin_divergence(serial, rs, parallel, rp) == []
            assert not parallel._parallel_broken
        assert serial.stats.snapshot() == parallel.stats.snapshot()
        assert ([shard.stats.snapshot() for shard in serial.shards]
                == [shard.stats.snapshot() for shard in parallel.shards])
        assert serial.stats.upsizes > 0
        parallel.validate()

    def test_shard_instrument_keeps_its_shard_serial(self):
        """A telemetry handle attached to one shard only keeps the batch
        off the process pool: the shard stays the caller's object, the
        handle stays attached to it and records what a serial run
        records."""
        config = DyCuckooConfig(initial_buckets=8, min_buckets=8,
                                bucket_capacity=8)
        streams = []
        for workers in (None, 2):
            table = ShardedDyCuckoo(num_shards=4, config=config,
                                    parallel_workers=workers)
            shard, telemetry = table.shards[0], Telemetry()
            shard.attach(Instruments(telemetry=telemetry))
            ops, keys, values = mixed_batch(np.random.default_rng(59), 400,
                                            run_length=(10, 80),
                                            keyspace=2000)
            with table:
                table.execute_mixed(ops, keys, values)
            assert table.shards[0] is shard
            assert shard.telemetry is telemetry
            streams.append([(e.name, e.depth, e.args)
                            for e in telemetry.tracer.events])
        assert streams[0] and streams[1] == streams[0]


def test_batch_built_for_another_table_is_rejected():
    """A pre-hashed batch carries its table's hashes; any other table
    refuses it on every entry point that takes one."""
    table = small_sharded(num_shards=2)
    keys = unique_keys(200, seed=57)
    table.insert(keys, keys)
    _order, batches = table._scatter(keys)
    batch, other = batches[0], table.shards[1]
    ops = np.full(len(batch), OP_FIND, dtype=np.int64)
    for call in (lambda: other.find(batch),
                 lambda: other.delete(batch),
                 lambda: other.insert(batch, batch.codes),
                 lambda: execute_mixed(other, ops, batch),
                 lambda: run_find_kernel(other, batch, engine="cohort"),
                 lambda: DyCuckooTable().find(EncodedBatch(other, keys))):
        with pytest.raises(InvalidKeyError, match="another table"):
            call()
    values, found = table.shards[0].find(batch)
    assert found.all()
    assert len(table) == len(keys)


def _wave_twin(num_shards: int, geometry: str, stashed: bool):
    """A preloaded sharded table; ``"epoch"`` geometry gives shards of
    unequal ``d`` and leaves shard 0 mid-upsize, and ``stashed`` parks a
    few absent keys in a shard's stash.  Built the same way twice, it
    gives two identical tables."""
    def config(idx):
        return DyCuckooConfig(
            num_tables=(2, 3, 4, 8)[idx % 4] if geometry == "epoch" else 4,
            initial_buckets=32, min_buckets=8, bucket_capacity=8,
            migration_budget=1, seed=61 + idx)

    table = ShardedDyCuckoo(num_shards=num_shards, shard_configs=[
        config(idx) for idx in range(num_shards)])
    keys = np.arange(1, 241, dtype=np.uint64)
    table.insert(keys, keys * np.uint64(7))
    if geometry == "epoch":
        shard = table.shards[0]
        shard._resizer.open_upsize_epoch()
        shard._resizer.drain_migration(max_pairs=1)
        assert any(st.migration is not None for st in shard.subtables)
    if stashed:
        extra = np.arange(241, 301, dtype=np.uint64)
        mine = extra[table.shard_ids(extra) == num_shards - 1][:4]
        table.shards[-1]._stash_pending(encode_keys(mine), mine,
                                        reason="test")
    return table


def _per_shard(table, call: str, args) -> object:
    """``call`` run shard by shard: the front-end's scatter, then each
    shard's own ``execute_mixed`` (or homogeneous method) on its slice;
    outputs gathered back to input positions."""
    if call == "execute_mixed":
        ops, keys, values = args
    else:
        keys = args[0]
    n = len(keys)
    order, batches = table._scatter(keys)
    out = [np.zeros(n, dtype=np.uint64), np.zeros(n, dtype=bool),
           np.zeros(n, dtype=bool)]
    runs, start = 0, 0
    for shard, batch in zip(table.shards, batches):
        if batch is None:
            continue
        at = order[start:start + len(batch)]
        start += len(batch)
        if call == "execute_mixed":
            result = execute_mixed(shard, ops[at], batch, values[at])
            out[0][at], out[1][at] = result.values, result.found
            out[2][at] = result.removed
            runs += result.runs
        elif call == "insert":
            shard.insert(batch, args[1][at])
        elif call == "find":
            out[0][at], out[1][at] = shard.find(batch)
        else:
            out[2][at] = shard.delete(batch)
    if call == "execute_mixed":
        return MixedBatchResult(*out, runs)
    return {"insert": None, "find": tuple(out[:2]),
            "delete": out[2]}[call]


_batches = st.lists(
    st.tuples(st.sampled_from(["execute_mixed", "execute_mixed", "insert",
                               "find", "delete"]),
              st.lists(st.tuples(st.sampled_from([OP_INSERT, OP_FIND,
                                                  OP_DELETE]),
                                 st.integers(1, 8)),
                       min_size=1, max_size=30),
              st.integers(0, 2**32 - 1)),
    min_size=1, max_size=6)


#: Shard geometries whose insert rounds differ shard by shard, all of
#: one bucket capacity, so every round is one stacked pass: eviction
#: chains that stall into insert-failure upsizes (shard 0),
#: migrate-on-access in an upsize epoch left open (shard 1, see
#: :func:`_round_twin`), beta upsizes (shard 2), downsize spills of
#: ``d = 2`` that stall into the stash (shard 3), three roomy shards,
#: and one held so large by its ``min_buckets`` floor that its keys
#: never evict.
_ROUND_SHARDS = (
    dict(num_tables=3, initial_buckets=8, beta=0.95, max_eviction_rounds=2),
    dict(num_tables=4, initial_buckets=64, beta=0.95, migration_budget=1),
    dict(num_tables=4, initial_buckets=8, beta=0.4),
    dict(num_tables=2, initial_buckets=64, alpha=0.4, beta=0.95,
         max_eviction_rounds=2, migration_budget=4),
) + (dict(num_tables=4, initial_buckets=1024),) * 3 + (
    dict(num_tables=4, initial_buckets=8192, min_buckets=8192),)


def _round_twin():
    """A sharded table of :data:`_ROUND_SHARDS`, preloaded, with shard
    1 filled to about 82 % and then given an open upsize epoch.  Built
    the same way twice, it gives two identical tables."""
    table = ShardedDyCuckoo(num_shards=8, shard_configs=[
        DyCuckooConfig(**dict(bucket_capacity=2, min_buckets=4,
                              stash_capacity=4096, seed=70 + idx) | geometry)
        for idx, geometry in enumerate(_ROUND_SHARDS)])
    keys = np.arange(1, 4001, dtype=np.uint64)
    ids = table.shard_ids(keys)
    preload = np.concatenate([keys[ids == 1][:420], keys[ids != 1][:480]])
    table.insert(preload, preload)
    table.shards[1]._resizer.open_upsize_epoch()
    return table


def _epoch_state(table) -> list:
    """Per shard: each subtable's geometry and open epoch, and the
    stash-drain epoch."""
    return [[(st.n_buckets, None if st.migration is None else (
        st.migration.kind, st.migration.old_n, st.migration.new_n,
        st.migration.pending, st.migration.migrated.tobytes()))
        for st in shard.subtables] + [shard._drain_epoch]
        for shard in table.shards]


@pytest.fixture
def round_features(monkeypatch):
    """Counts of ``(feature, table id)``: insert-failure upsizes
    (``stall``), upsizes under pressure (``pressure``, which a stall
    upsize also makes), migrations on access and stash parking."""
    seen = Counter()

    def spy(owner, name, feature):
        plain = getattr(owner, name)

        def counted(self, *args, **kwargs):
            seen[feature, id(getattr(self, "_table", self))] += 1
            return plain(self, *args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    spy(ResizeController, "upsize_for_insert_failure", "stall")
    spy(ResizeController, "upsize_under_pressure", "pressure")
    spy(ResizeController, "migrate_on_access", "access")
    spy(DyCuckooTable, "_stash_pending", "stash")
    return seen


class TestWaves:
    """A sharded batch run in waves (the ``k``-th run of every shard
    probed together) equals running it shard by shard."""

    @settings(max_examples=MAX_EXAMPLES, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(num_shards=st.sampled_from([1, 2, 4, 8]),
           geometry=st.sampled_from(["equal", "epoch"]),
           stashed=st.booleans(), stream=_batches)
    def test_waves_equal_per_shard_execution(self, num_shards, geometry,
                                             stashed, stream):
        waves = _wave_twin(num_shards, geometry, stashed)
        reference = _wave_twin(num_shards, geometry, stashed)
        for call, runs, seed in stream:
            rng = np.random.default_rng(seed)
            ops = np.concatenate([np.full(length, kind, dtype=np.int64)
                                  for kind, length in runs])
            keys = rng.integers(1, 320, len(ops)).astype(np.uint64)
            values = rng.integers(1, 1 << 40, len(ops)).astype(np.uint64)
            args = {"execute_mixed": (ops, keys, values),
                    "insert": (keys, values)}.get(call, (keys,))
            got = getattr(waves, call)(*args)
            want = _per_shard(reference, call, args)
            assert twin_divergence(waves, got, reference, want) == []
            assert ([shard.stats.snapshot() for shard in waves.shards]
                    == [shard.stats.snapshot()
                        for shard in reference.shards])
        waves.validate()

    @pytest.mark.parametrize("num_shards", [1, 2, 4, 8])
    def test_wave_probe_budget(self, monkeypatch, num_shards):
        """A sharded batch makes one probe call per wave: the most
        planned runs any shard has, less the waves whose runs are all
        inserts into empty shards.  Instrumented and cohort-engine batches probe
        each shard run alone."""
        table = ShardedDyCuckoo(num_shards=num_shards, config=DyCuckooConfig(
            initial_buckets=64, bucket_capacity=8, min_buckets=8))
        calls = []
        plain_parts = batch_ops.probe_parts
        monkeypatch.setattr(batch_ops, "probe_parts",
                            lambda parts: calls.append(len(parts))
                            or plain_parts(parts))
        rng = np.random.default_rng(62)
        live = [set() for _ in table.shards]
        for step in range(6):
            ops, keys, values = mixed_batch(rng, 300, run_length=(1, 9),
                                            keyspace=400)
            if step == 0:
                ops[:120] = OP_INSERT
            order, _batches = table._scatter(keys)
            ids = table.shard_ids(keys)[order]
            plans = []
            for idx in range(num_shards):
                at = order[ids == idx]
                if len(at):
                    plans.append((idx, [(kind, at[run]) for kind, run
                                        in plan_runs(ops[at], keys[at])]))
            expected = 0
            for k in range(max(len(runs) for _i, runs in plans)):
                wave = [(idx, runs[k]) for idx, runs in plans
                        if k < len(runs)]
                expected += any(kind != OP_INSERT or live[idx]
                                for idx, (kind, _run) in wave)
                for idx, (kind, run) in wave:
                    if kind == OP_INSERT:
                        live[idx].update(keys[run].tolist())
                    elif kind == OP_DELETE:
                        live[idx].difference_update(keys[run].tolist())
            calls.clear()
            table.execute_mixed(ops, keys, values)
            assert len(calls) == expected
            assert sum(calls) <= sum(len(runs) for _i, runs in plans)
            assert [len(shard) for shard in table.shards] == [
                len(keys) for keys in live]

        # A homogeneous call is one wave.
        fresh = unique_keys(500, seed=63)
        for call, args in (("find", (fresh,)), ("insert", (fresh, fresh)),
                           ("delete", (fresh[:100],))):
            calls.clear()
            getattr(table, call)(*args)
            assert calls == [num_shards], call

        # Instrumented batches probe each shard run alone.
        assert all(table.shard_loads())
        ops, keys, values = mixed_batch(rng, 300, run_length=(1, 9),
                                        keyspace=400)
        table.attach(Instruments(telemetry=Telemetry()))
        calls.clear()
        result = table.execute_mixed(ops, keys, values)
        table.attach(None)
        assert result.runs > num_shards
        assert calls == [1] * result.runs

        # So do cohort-engine batches (FIND and DELETE runs: the kernels
        # never resize, so this table takes no kernel inserts).
        ops = np.where(np.arange(300) // 7 % 2, OP_DELETE, OP_FIND)
        calls.clear()
        result = table.execute_mixed(ops, keys, engine="cohort")
        assert result.runs > num_shards
        assert calls == [1] * result.runs

    @pytest.mark.parametrize("call", ["execute_mixed", "insert"])
    def test_failing_run_lets_its_wave_finish(self, call):
        """A run that raises inside a wave (shard 0's insert overflows
        with ``auto_resize=False``) still lets the wave's other runs
        finish, and no later wave starts: every shard has applied a
        prefix of its plan, each other shard up to the end of the
        failing wave, as if its runs ran alone."""
        def build():
            table = small_sharded(num_shards=4, bucket_capacity=8,
                                  auto_resize=False)
            table.insert(preload, preload)
            return table

        keys = unique_keys(8000, seed=64)
        ids = small_sharded(num_shards=4).shard_ids(keys)
        preload = np.concatenate([keys[ids == idx][:60]
                                  for idx in range(4)])
        overflow = keys[ids == 0][60:460]
        mine = keys[ids == 0][:20]
        others = keys[(ids != 0) & np.isin(keys, preload)]
        early, late = others[::2], others[1::2]
        if call == "execute_mixed":
            # Shard 0 finds, then inserts the overflow in its second
            # run.  The others delete ``early``, find and re-insert it,
            # and delete ``late`` last: the plan pulls that delete into
            # their first run, so the failing wave (the second) finds
            # ``early`` with ``late`` already gone, and the third wave,
            # the re-inserts, never starts.
            parts = [(OP_DELETE, early), (OP_FIND, mine),
                     (OP_INSERT, overflow), (OP_FIND, early),
                     (OP_INSERT, early), (OP_DELETE, late)]
            ops = np.concatenate([np.full(len(part), kind)
                                  for kind, part in parts])
            batch = np.concatenate([part for _kind, part in parts])
            args = (ops, batch, batch)
        else:
            batch = np.concatenate([early + np.uint64(1 << 40), overflow])
            ops = np.full(len(batch), OP_INSERT)
            args = (batch, batch)
        waves, reference = build(), build()
        with pytest.raises(CapacityError):
            getattr(waves, call)(*args)
        # The reference runs each shard's planned runs alone, up to
        # shard 0's failing run and the others' runs of that wave.
        order, batches = reference._scatter(batch)
        start, plans = 0, []
        for shard, part in zip(reference.shards, batches):
            at = order[start:start + len(part)]
            start += len(part)
            plans.append((shard, [(kind, at[run]) for kind, run
                                  in plan_runs(ops[at], part.codes)]))
        failing = len(plans[0][1]) - 1
        assert plans[0][1][failing][0] == OP_INSERT
        assert all(len(runs) > failing + (call == "execute_mixed")
                   for _shard, runs in plans[1:])
        for idx, (shard, runs) in enumerate(plans):
            for k, (kind, run) in enumerate(runs[:failing + 1]):
                if idx == 0 and k == failing:
                    with pytest.raises(CapacityError):
                        execute_mixed(shard, ops[run], batch[run],
                                      batch[run])
                else:
                    execute_mixed(shard, ops[run], batch[run], batch[run])
        if call == "execute_mixed":
            assert not np.isin(late, waves.items()[0]).any()
            assert not np.isin(early, waves.items()[0]).any()
        assert waves.shards[0].stats.insert_failures > 0
        for shard, twin in zip(waves.shards, reference.shards):
            assert shard.stats.snapshot() == twin.stats.snapshot()
            for got, want in zip(shard.items(), twin.items()):
                assert np.array_equal(got, want)
        for shard in waves.shards[1:]:
            shard.validate()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_wave_rounds_equal_per_shard_execution(self, monkeypatch,
                                                   round_features, seed):
        """Every shard's eviction rounds, served by one stacked
        placement pass per round, leave what the shard's own rounds
        leave: storage, stats, victim counter, stash and epochs, after
        every batch.  Each insert feature fires in some shards but not
        in all of them, and so do lock conflicts, which only the wide
        rounds of the closing bulk load have; ``PLACE_CHUNK`` is raised
        so that those rounds, too, are stacked passes."""
        monkeypatch.setattr(batch_ops, "PLACE_CHUNK", 1 << 20)
        waves, reference = _round_twin(), _round_twin()
        rng = np.random.default_rng(seed)

        def shards_where(has):
            return [idx for idx, shard in enumerate(waves.shards)
                    if has(shard, id(shard))]

        for step in range(7):
            ops, keys, values = mixed_batch(rng, 600, run_length=(5, 80),
                                            keyspace=4000)
            call, args = "execute_mixed", (ops, keys, values)
            if step == 3:
                call, args = "insert", (keys, values)
            elif step == 6:
                features = [shards_where(lambda shard, t: round_features[
                    feature, t]) for feature in ("stall", "access", "stash")]
                features.append(shards_where(
                    lambda shard, t: round_features["pressure", t]
                    > round_features["stall", t]))
                features.append(shards_where(
                    lambda shard, t: shard.stats.evictions
                    > shard.stats.eviction_rounds))
                # A bulk load of 12,000 keys into shards 0 and 3 only.
                keys = np.arange(10_000, 40_000, dtype=np.uint64)
                ids = waves.shard_ids(keys)
                keys = keys[(ids == 0) | (ids == 3)][:12_000]
                call, args = "insert", (keys, keys)
            got = getattr(waves, call)(*args)
            want = _per_shard(reference, call, args)
            assert twin_divergence(waves, got, reference, want) == []
            assert ([shard.stats.snapshot() for shard in waves.shards]
                    == [shard.stats.snapshot()
                        for shard in reference.shards])
            assert _epoch_state(waves) == _epoch_state(reference)
        waves.validate()
        features.append(shards_where(
            lambda shard, t: shard.stats.lock_conflicts))
        for shards in features:
            assert 0 < len(shards) < len(waves.shards)

    @pytest.mark.parametrize("num_shards", [1, 2, 4, 8])
    def test_wave_place_budget(self, monkeypatch, num_shards):
        """A wave makes one placement pass per eviction round: as many
        passes as its most-rounds shard makes, each serving every shard
        still placing.  A resize spill or a stash drain inside a body
        runs as a nested wave of one part, whose passes serve that shard
        alone; with the rounds placed outside any pass they are the rest
        of the shards' ``eviction_rounds``.  A lone table and
        instrumented batches run waves of one body, so every pass they
        make has one part."""
        table = ShardedDyCuckoo(num_shards=num_shards, config=DyCuckooConfig(
            initial_buckets=16, bucket_capacity=2, min_buckets=4,
            max_eviction_rounds=3))
        # Per placement pass: its tables and whether a nested wave made
        # it.
        passes = []
        # Rounds settled inside a pass and outside any, per table.
        in_pass, alone = Counter(), Counter()
        serving = []
        # Body count of each open run_bodies call, outermost first.
        open_waves = []
        plain_parts = batch_ops.place_parts
        plain_settle = DyCuckooTable._settle_round

        def place_parts(parts):
            tables = [id(request.table) for request in parts]
            assert len(set(tables)) == len(tables)
            passes.append((tables, len(open_waves) > 1))
            serving.append(True)
            try:
                return plain_parts(parts)
            finally:
                serving.pop()

        def settle_round(self, *args):
            (in_pass if serving else alone)[id(self)] += 1
            return plain_settle(self, *args)

        monkeypatch.setattr(batch_ops, "place_parts", place_parts)
        monkeypatch.setattr(DyCuckooTable, "_settle_round", settle_round)
        # Per top-level wave: its body count and its own passes.
        waves = []
        plain_bodies = batch_ops.run_bodies

        def run_bodies(bodies):
            first = len(passes)
            open_waves.append(len(bodies))
            try:
                return plain_bodies(bodies)
            finally:
                open_waves.pop()
                if not open_waves:
                    waves.append((len(bodies), [
                        tables for tables, nested in passes[first:]
                        if not nested]))

        monkeypatch.setattr(batch_ops, "run_bodies", run_bodies)
        rng = np.random.default_rng(65)
        nested_passes = 0
        for step in range(6):
            ops, keys, values = mixed_batch(rng, 300, run_length=(5, 40),
                                            keyspace=900)
            for record in (waves, passes, in_pass, alone):
                record.clear()
            rounds = [shard.stats.eviction_rounds for shard in table.shards]
            table.execute_mixed(ops, keys, values)
            top = [tables for tables, nested in passes if not nested]
            assert sum(len(wave) for _n, wave in waves) == len(top)
            for _n, wave in waves:
                per_table = Counter(t for tables in wave for t in tables)
                assert len(wave) == max(per_table.values(), default=0)
            nested = [tables for tables, nested in passes if nested]
            assert all(len(tables) == 1 for tables in nested)
            nested_passes += len(nested)
            served = Counter(t for tables, _nested in passes for t in tables)
            assert in_pass == served
            for shard, before in zip(table.shards, rounds):
                assert (shard.stats.eviction_rounds - before
                        == served[id(shard)] + alone[id(shard)])
            if num_shards > 1 and step == 0:
                assert max(map(len, top)) > 1
        if num_shards == 8:
            # This session's resizes spill inside its waves.
            assert nested_passes > 0

        lone = DyCuckooTable(DyCuckooConfig(initial_buckets=8,
                                            min_buckets=8))
        table.attach(Instruments(telemetry=Telemetry()))
        for record in (waves, passes):
            record.clear()
        lone.insert(unique_keys(500, seed=66), unique_keys(500, seed=66))
        table.insert(unique_keys(500, seed=67), unique_keys(500, seed=67))
        assert lone.stats.eviction_rounds > 0
        assert passes and all(len(tables) == 1 for tables, _n in passes)
        assert [width for width, _wave in waves] == [1] * (1 + num_shards)

    def test_large_rounds_place_alone(self, monkeypatch):
        """A round's stacked placement pass holds at most ``PLACE_CHUNK``
        keys: a request that would take it past that places at once,
        alone, so a bulk load holds one shard's large round at a time.
        The outcome still equals per-shard execution."""
        chunk = 64
        monkeypatch.setattr(batch_ops, "PLACE_CHUNK", chunk)
        stacked, alone = [], []
        serving = []
        plain_parts = batch_ops.place_parts
        plain_settle = DyCuckooTable._settle_round

        def place_parts(parts):
            stacked.append(sum(len(request.codes) for request in parts))
            serving.append(True)
            try:
                return plain_parts(parts)
            finally:
                serving.pop()

        def settle_round(self, request, *args):
            if not serving:
                alone.append(len(request.codes))
            return plain_settle(self, request, *args)

        monkeypatch.setattr(batch_ops, "place_parts", place_parts)
        monkeypatch.setattr(DyCuckooTable, "_settle_round", settle_round)
        waves, reference = _round_twin(), _round_twin()
        rng = np.random.default_rng(68)
        for step in range(4):
            ops, keys, values = mixed_batch(rng, 600, run_length=(5, 80),
                                            keyspace=4000)
            call, args = "execute_mixed", (ops, keys, values)
            if step == 3:
                keys = np.arange(10_000, 13_000, dtype=np.uint64)
                call, args = "insert", (keys, keys)
            got = getattr(waves, call)(*args)
            with monkeypatch.context() as plain:
                plain.setattr(batch_ops, "place_parts", plain_parts)
                plain.setattr(DyCuckooTable, "_settle_round", plain_settle)
                want = _per_shard(reference, call, args)
            assert twin_divergence(waves, got, reference, want) == []
            assert ([shard.stats.snapshot() for shard in waves.shards]
                    == [shard.stats.snapshot()
                        for shard in reference.shards])
            assert _epoch_state(waves) == _epoch_state(reference)
        assert 0 < max(stacked) <= chunk
        assert max(alone) > chunk
