"""Kernel-vs-vectorized conformance: identical batches, identical tables.

The lane-level kernels (:mod:`repro.kernels`) and the vectorized fast
path (:class:`repro.core.table.DyCuckooTable`) execute against the same
storage format and must agree on *contents* for any batch sequence —
slot placement may differ (scheduling), but the key set, the values,
and every structural invariant must match.

The scenarios deliberately include the historical trouble spots:

* delete-then-reinsert holes — a deleted slot below a stored key's slot
  must not seduce the upsert into writing a second copy of the key;
* duplicate keys inside one batch — the vectorized path guarantees
  last-occurrence-wins; the kernel path guarantees a *single* copy
  whose value is one of the duplicates (warp scheduling picks which);
* interleaved insert/delete/reinsert sequences driven through every
  path combination, checked against a plain-dict model.
"""

import numpy as np
import pytest

from repro.core.analysis import check_invariants
from repro.core.config import DyCuckooConfig
from repro.core.table import DyCuckooTable
from repro.kernels import (run_delete_kernel, run_find_kernel,
                           run_spin_insert_kernel, run_voter_insert_kernel)
from repro.oracle import twin_divergence

from .conftest import unique_keys


def fresh_table(buckets=64, capacity=8, **kw):
    defaults = dict(initial_buckets=buckets, bucket_capacity=capacity,
                    auto_resize=False)
    defaults.update(kw)
    return DyCuckooTable(DyCuckooConfig(**defaults))


INSERT_PATHS = {
    "vectorized": lambda table, keys, values: table.insert(keys, values),
    "voter": run_voter_insert_kernel,
    "spin": run_spin_insert_kernel,
    "voter-cohort": lambda table, keys, values: run_voter_insert_kernel(
        table, keys, values, engine="cohort"),
    "spin-cohort": lambda table, keys, values: run_spin_insert_kernel(
        table, keys, values, engine="cohort"),
}

DELETE_PATHS = {
    "vectorized": lambda table, keys: table.delete(keys),
    "kernel": lambda table, keys: run_delete_kernel(table, keys)[0],
    "kernel-cohort": lambda table, keys: run_delete_kernel(
        table, keys, engine="cohort")[0],
}


def assert_conforms(table, model: dict) -> None:
    """Table contents equal the dict model; all invariants hold."""
    table.validate()
    check_invariants(table)
    assert table.to_dict() == model
    if model:
        keys = np.fromiter(model.keys(), dtype=np.uint64)
        want = (np.fromiter(model.values(), dtype=np.uint64),
                np.ones(len(keys), dtype=bool))
        # The vectorized FIND and the kernel FIND must both return the
        # model — through both engines, with identical cost counters.
        assert twin_divergence(None, table.find(keys), None, want) == []
        warp = run_find_kernel(table, keys)
        assert twin_divergence(None, warp[:2], None, want) == []
        assert twin_divergence(None, warp, None, run_find_kernel(
            table, keys, engine="cohort")) == []


class TestIdenticalBatches:
    @pytest.mark.parametrize("insert_path", sorted(INSERT_PATHS))
    def test_fresh_batch(self, insert_path):
        keys = unique_keys(500, seed=10)
        values = keys * np.uint64(3)
        table = fresh_table()
        INSERT_PATHS[insert_path](table, keys, values)
        assert_conforms(table, {int(k): int(v)
                                for k, v in zip(keys, values)})

    @pytest.mark.parametrize("insert_path", sorted(INSERT_PATHS))
    def test_upsert_existing_batch(self, insert_path):
        """Reinserting every key with new values updates in place."""
        keys = unique_keys(400, seed=11)
        table = fresh_table()
        INSERT_PATHS[insert_path](table, keys, keys)
        INSERT_PATHS[insert_path](table, keys, keys + np.uint64(1))
        assert len(table) == 400
        assert_conforms(table, {int(k): int(k) + 1 for k in keys})

    @pytest.mark.parametrize("insert_path", sorted(INSERT_PATHS))
    @pytest.mark.parametrize("delete_path", sorted(DELETE_PATHS))
    def test_interleaved_sequence(self, insert_path, delete_path):
        """insert / delete / reinsert / delete, model-checked each step."""
        keys = unique_keys(600, seed=12)
        table = fresh_table()
        model: dict[int, int] = {}

        INSERT_PATHS[insert_path](table, keys, keys)
        model.update((int(k), int(k)) for k in keys)
        assert_conforms(table, model)

        removed = DELETE_PATHS[delete_path](table, keys[:300])
        assert bool(np.asarray(removed).all())
        for k in keys[:300]:
            del model[int(k)]
        assert_conforms(table, model)

        # Reinsert a mix of deleted and still-present keys.
        mix = np.concatenate([keys[100:300], keys[400:500]])
        INSERT_PATHS[insert_path](table, mix, mix + np.uint64(9))
        model.update((int(k), int(k) + 9) for k in mix)
        assert_conforms(table, model)

        removed = DELETE_PATHS[delete_path](table, keys[450:550])
        assert bool(np.asarray(removed).all())
        for k in keys[450:550]:
            del model[int(k)]
        assert_conforms(table, model)


class TestDeleteHoles:
    """Delete-then-reinsert: holes must never yield duplicate copies."""

    @pytest.mark.parametrize("insert_path", sorted(INSERT_PATHS))
    @pytest.mark.parametrize("delete_path", sorted(DELETE_PATHS))
    def test_reinsert_into_holey_buckets(self, insert_path, delete_path):
        """Punch holes everywhere, then reinsert every surviving key.

        A dense small-bucket geometry guarantees many buckets hold
        several keys, so deleting every other key leaves holes *below*
        surviving keys — the exact layout that used to trick the warp
        upsert into duplicating the survivor into the hole.
        """
        keys = unique_keys(300, seed=13)
        table = fresh_table(buckets=16, capacity=8)
        INSERT_PATHS[insert_path](table, keys, keys)

        DELETE_PATHS[delete_path](table, keys[::2])
        survivors = keys[1::2]
        INSERT_PATHS[insert_path](table, survivors,
                                  survivors + np.uint64(5))
        assert len(table) == len(survivors)
        assert_conforms(table, {int(k): int(k) + 5 for k in survivors})

    @pytest.mark.parametrize("insert_path", sorted(INSERT_PATHS))
    def test_hole_then_fresh_key_reuses_slot(self, insert_path):
        """New keys may land in holes; old keys must update in place."""
        keys = unique_keys(200, seed=14)
        fresh = unique_keys(100, seed=15) + np.uint64(1 << 50)
        table = fresh_table(buckets=16, capacity=8)
        INSERT_PATHS[insert_path](table, keys, keys)
        table.delete(keys[:100])
        INSERT_PATHS[insert_path](table, fresh, fresh)
        model = {int(k): int(k) for k in keys[100:]}
        model.update((int(k), int(k)) for k in fresh)
        assert_conforms(table, model)


class TestDuplicateKeys:
    def test_vectorized_duplicates_last_wins(self):
        keys = np.array([7, 7, 8, 7, 8], dtype=np.uint64)
        values = np.array([1, 2, 3, 4, 5], dtype=np.uint64)
        table = fresh_table()
        table.insert(keys, values)
        assert_conforms(table, {7: 4, 8: 5})

    @pytest.mark.parametrize(
        "insert_path", ["voter", "spin", "voter-cohort", "spin-cohort"])
    def test_kernel_duplicates_single_copy(self, insert_path):
        """The kernel path stores exactly one copy per duplicated key.

        Warp scheduling decides *which* duplicate's value survives, so
        the guarantee is weaker than the vectorized last-wins rule: one
        copy, value drawn from that key's candidates (docs/sharding.md
        spells out the contract).
        """
        base = unique_keys(90, seed=16)
        keys = np.concatenate([base, base[:40], base[:20]])
        values = np.concatenate([
            np.full(90, 1, dtype=np.uint64),
            np.full(40, 2, dtype=np.uint64),
            np.full(20, 3, dtype=np.uint64),
        ])
        table = fresh_table()
        INSERT_PATHS[insert_path](table, keys, values)
        table.validate()
        check_invariants(table)
        assert len(table) == 90
        stored = table.to_dict()
        assert set(stored) == {int(k) for k in base}
        candidates = {}
        for k, v in zip(keys.tolist(), values.tolist()):
            candidates.setdefault(k, set()).add(v)
        for k, v in stored.items():
            assert v in candidates[k]
