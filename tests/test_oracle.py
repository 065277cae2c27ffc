""":mod:`repro.oracle` must flag each divergence it claims to check.

Every dict-model and twin-run check in the repository goes through it,
so each test plants one divergence and requires it to be reported.
"""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from repro.baselines.megakv import MegaKVTable
from repro.baselines.slab import SlabHashTable
from repro.core.config import DyCuckooConfig
from repro.core.table import DyCuckooTable
from repro.kernels import run_find_kernel
from repro.oracle import DictModel, mixed_batch, twin_divergence
from repro.shard import ShardedDyCuckoo

DUPLICATE_DELETES = np.array([5, 2, 2, 1, 1, 1], dtype=np.uint64)


class TestDictModel:
    @pytest.mark.parametrize("make", [
        lambda: DyCuckooTable(DyCuckooConfig(initial_buckets=8)),
        lambda: MegaKVTable(initial_buckets=8),
        lambda: SlabHashTable(n_buckets=4),
    ], ids=["dycuckoo", "megakv", "slabhash"])
    def test_first_duplicate_delete_hits(self, make):
        table, model = make(), DictModel()
        assert model.apply(table, "insert", [1, 2], [10, 20]) == []
        assert model.apply(table, "delete", DUPLICATE_DELETES) == []
        assert model.divergence(table) == []

    def test_wrong_duplicate_delete_lane_flagged(self):
        model = DictModel()
        model.apply(DyCuckooTable(DyCuckooConfig()), "insert", [1, 2],
                    [10, 20])
        # The right hit count, reported on the last duplicates' lanes.
        last_hits = SimpleNamespace(delete=lambda keys: np.array(
            [0, 0, 1, 0, 0, 1], dtype=bool))
        assert model.apply(last_hits, "delete", DUPLICATE_DELETES) == [
            "DELETE(2) lane 1 missed", "DELETE(2) lane 2 hit",
            "DELETE(1) lane 3 missed", "DELETE(1) lane 5 hit"]

    def test_find_and_whole_table_divergence_flagged(self):
        table, model = DyCuckooTable(DyCuckooConfig()), DictModel()
        model.apply(table, "insert", [1, 2, 3], [10, 20, 30])
        table.insert(np.array([2], dtype=np.uint64),
                     np.array([99], dtype=np.uint64))
        table.delete(np.array([3], dtype=np.uint64))
        assert model.apply(table, "find", [1, 2, 3]) == [
            "FIND(2) returned 99, model has 20",
            "FIND(3) returned miss, model has 30"]
        assert model.divergence(table) == [
            "size diverged: table 2 vs model 3",
            "key 2 holds 99, model has 20",
            "model key 3 missing from the table"]
        model.evict([3])
        assert model.divergence(table) == ["key 2 holds 99, model has 20"]


def _twin_runs(shards=1):
    """``(table, result)`` of one mixed batch on warp, then on cohort."""
    ops, keys, values = mixed_batch(np.random.default_rng(4), 1_500)
    config = DyCuckooConfig(initial_buckets=32, bucket_capacity=16,
                            auto_resize=False)
    runs = []
    for engine in ("warp", "cohort"):
        table = (ShardedDyCuckoo(shards, config=config) if shards > 1
                 else DyCuckooTable(config))
        runs += [table, table.execute_mixed(ops, keys, values,
                                            engine=engine)]
    return runs


class TestTwinDivergence:
    @pytest.mark.parametrize("shards", [1, 2])
    def test_identical_twins_agree(self, shards):
        assert twin_divergence(*_twin_runs(shards)) == []

    def test_flipped_storage_key_flagged(self):
        tw, rw, tc, rc = _twin_runs()
        keys = tc.subtables[2].keys
        bucket, slot = np.argwhere(keys != 0)[0]
        keys[bucket, slot] ^= np.uint64(1)
        assert twin_divergence(tw, rw, tc, rc) == [
            "subtable 2 storage diverged"]

    def test_victim_counter_mismatch_flagged(self):
        tw, rw, tc, rc = _twin_runs(shards=2)
        tc.shards[1]._victim_counter += 1
        assert twin_divergence(tw, rw, tc, rc) == [
            f"shard 1 victim counter diverged: "
            f"{tw.shards[1]._victim_counter} != "
            f"{tc.shards[1]._victim_counter}"]

    @pytest.mark.parametrize("field", ["runs", "kernel"])
    def test_runs_or_kernel_counter_mismatch_flagged(self, field):
        tw, rw, tc, rc = _twin_runs()
        bumped = (rc.runs + 1 if field == "runs" else dataclasses.replace(
            rc.kernel, rounds=rc.kernel.rounds + 1))
        assert twin_divergence(
            tw, rw, tc, dataclasses.replace(rc, **{field: bumped})) == [
            f"{field} diverged: {getattr(rw, field)} != {bumped}"]

    def test_result_lanes_and_stash_flagged(self):
        tw, rw, tc, rc = _twin_runs()
        found = rc.found.copy()
        found[0] = not found[0]
        tc.stash.push(np.array([123], dtype=np.uint64),
                      np.array([4], dtype=np.uint64))
        assert twin_divergence(
            tw, rw, tc, dataclasses.replace(rc, found=found)) == [
            "found diverged", "stash diverged"]

    def test_kernel_entry_outputs_compared_element_by_element(self):
        out = run_find_kernel(DyCuckooTable(DyCuckooConfig()),
                              np.arange(1, 9, dtype=np.uint64))
        flipped = out[1].copy()
        flipped[3] = True
        assert twin_divergence(None, out, None,
                               (out[0], flipped, out[2])) == [
            "result[1] diverged"]


def test_mixed_batch_runs_and_ranges():
    ops, keys, values = mixed_batch(
        np.random.default_rng(9), 20_000, run_length=(2_000, 6_000),
        keyspace=1_999, value_high=1 << 40)
    lengths = np.diff(np.flatnonzero(np.diff(ops, prepend=-1,
                                             append=-1)))
    assert lengths[:-1].min() >= 2_000
    assert keys.dtype == values.dtype == np.uint64
    assert 1 <= keys.min() and keys.max() <= 1_999
    assert 1 <= values.min() and values.max() < 1 << 40
