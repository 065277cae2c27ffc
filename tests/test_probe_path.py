"""Public batch calls and ``execute_mixed`` walk the same probe path.

A seeded grow -> shrink session runs twice over twin tables: once
through public ``insert``/``find``/``delete``, once through
``execute_mixed`` with one homogeneous run per call.  Results, event
counters and storage must agree exactly, including while a migration
epoch is open.  A hash budget pins that an insert call hashes each key
at most once per subtable, plus once per eviction.
"""

import numpy as np

from repro.core.batch_ops import OP_DELETE, OP_FIND, OP_INSERT, execute_mixed
from repro.core.config import DyCuckooConfig
from repro.core.hashing import UniversalHash
from repro.core.table import DyCuckooTable

from .conftest import unique_keys
from .test_engine_conformance import assert_tables_identical


def _session(seed: int = 41):
    """``(kind, keys, values)`` batches: grow with upserts, then shrink."""
    rng = np.random.default_rng(seed)
    pool = unique_keys(6100, seed=seed)
    batches = []
    live = 0
    while live < 6000:
        fresh = pool[live:live + 500]
        live += len(fresh)
        # Upserts of live keys and in-batch duplicates ride along.
        keys = np.concatenate([fresh, rng.choice(pool[:live], 60),
                               fresh[:20]])
        batches.append((OP_INSERT, keys,
                        rng.integers(0, 1 << 40, len(keys),
                                     dtype=np.int64).astype(np.uint64)))
        batches.append((OP_FIND, rng.choice(pool, 400), None))
    for start in range(0, live, 450):
        doomed = pool[start:start + 450]
        # Repeated and absent keys: only a first occurrence removes.
        keys = np.concatenate([doomed, doomed[:15], pool[live:live + 15]])
        batches.append((OP_DELETE, keys, None))
        batches.append((OP_FIND, rng.choice(pool, 400), None))
        # A few keys come back while the shrink's epochs are open.
        batches.append((OP_INSERT, doomed[:25], doomed[:25]))
    return batches


def _config() -> DyCuckooConfig:
    return DyCuckooConfig(initial_buckets=8, bucket_capacity=8,
                          min_buckets=8, migration_budget=4, seed=17)


def test_public_calls_match_execute_mixed_runs():
    public, mixed = DyCuckooTable(_config()), DyCuckooTable(_config())
    # Epoch kinds open when a batch starts (insert-time upsizes finish
    # inside their batch; shrink-driven downsizes stay open across
    # several).
    epochs_seen = set()
    for kind, keys, values in _session():
        epochs_seen.update(st.migration.kind for st in public.subtables
                           if st.migration is not None)
        ops = np.full(len(keys), kind)
        got = execute_mixed(mixed, ops, keys, values)
        assert got.runs == 1
        if kind == OP_INSERT:
            public.insert(keys, values)
        elif kind == OP_FIND:
            want_values, want_found = public.find(keys)
            assert np.array_equal(got.found, want_found)
            assert np.array_equal(got.values[want_found],
                                  want_values[want_found])
        else:
            assert np.array_equal(got.removed, public.delete(keys))
        assert public.stats == mixed.stats
        assert_tables_identical(public, mixed)
    assert "downsize" in epochs_seen
    assert public.stats.upsizes and public.stats.downsizes
    assert len(public) == len(mixed) > 0


def test_insert_hashes_each_key_once_per_subtable(monkeypatch):
    """One insert hashes at most ``d`` codes per key plus one per eviction.

    The batch's update probe hashes every key under all ``d`` second-layer
    functions; the eviction rounds must reuse those hashes and hash only
    each evicted victim, once, under its alternate subtable.
    """
    table = DyCuckooTable(DyCuckooConfig(initial_buckets=256,
                                         bucket_capacity=8,
                                         auto_resize=False, seed=3))
    keys = unique_keys(6600, seed=5)
    table.insert(keys[:4600], keys[:4600])
    batch = keys[4600:]
    hashed = []
    plain_raw = UniversalHash.raw

    def counting_raw(self, codes):
        if any(self is h for h in table.table_hashes):
            hashed.append(len(codes))
        return plain_raw(self, codes)

    def no_bucket_for(t, codes):
        raise AssertionError("bucket_for re-hashed keys during an insert")

    monkeypatch.setattr(UniversalHash, "raw", counting_raw)
    monkeypatch.setattr(table, "bucket_for", no_bucket_for)
    evictions_before = table.stats.evictions
    table.insert(batch, batch)
    monkeypatch.undo()

    evictions = table.stats.evictions - evictions_before
    assert evictions > 0
    assert table.load_factor > 0.75
    assert sum(hashed) <= table.num_tables * len(batch) + evictions
    values, found = table.find(keys)
    assert found.all() and np.array_equal(values, keys)
