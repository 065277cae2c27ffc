"""Public batch calls and ``execute_mixed`` walk the same probe path.

A seeded grow -> shrink session runs twice over twin tables: once
through public ``insert``/``find``/``delete``, once through
``execute_mixed`` with one homogeneous run per call.  Results, event
counters and storage must agree exactly, including while a migration
epoch is open.  Hash budgets pin that a find hashes each key exactly
once per candidate subtable, that an insert hashes each key at most
once per candidate plus once per eviction, and that a cohort kernel
launch re-hashes only its evicted victims.  The one-pass probe is
checked against a per-key walk that reads a key's first bucket and its
second only on a miss: same hits, same slots, same second-bucket count.
An insert into a table with no entries skips its update probe; a twin
that always probes must end with the same counters and storage.  One
multi-table probe over several tables' batches equals each batch's own
probe and the per-key walk.
"""

import numpy as np
import pytest

from repro.core import batch_ops
from repro.core.batch_ops import (OP_DELETE, OP_FIND, OP_INSERT,
                                   PROBE_CHUNK, EncodedBatch, execute_mixed,
                                   probe_parts)
from repro.core.config import DyCuckooConfig
from repro.core.hashing import HashStack, UniversalHash, make_table_hashes
from repro.core.instruments import Instruments
from repro.core.persistence import load_table, save_table
from repro.core.subtable import Subtable
from repro.core.table import DyCuckooTable, decode_keys, encode_keys
from repro.kernels.insert import run_voter_insert_kernel
from repro.oracle import twin_divergence
from repro.telemetry import Profiler

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


def _count_second_layer_hashes(monkeypatch, table
                               ) -> list[tuple[str, int]]:
    """Record the codes each second-layer hash call evaluates.

    Codes are counted through every entry point: one function at a time
    (``UniversalHash.raw`` on a member of ``table.table_hashes``), each
    code under its own function (``HashStack.raw``) and each code under
    every function of a stack (``HashStack.raw_all``, counted once per
    code and function).  Entries of the returned list are
    ``("one", n)``, ``("stack", n)`` and ``("all", n)``.
    """
    hashed = []
    plain_raw = UniversalHash.raw
    plain_stack_raw = HashStack.raw
    plain_raw_all = HashStack.raw_all

    def counting_raw(self, codes):
        if any(self is h for h in table.table_hashes):
            hashed.append(("one", len(codes)))
        return plain_raw(self, codes)

    def counting_stack_raw(self, codes, which):
        hashed.append(("stack", np.broadcast(codes, which).size))
        return plain_stack_raw(self, codes, which)

    def counting_raw_all(self, codes):
        hashed.append(("all", len(codes) * len(self.a)))
        return plain_raw_all(self, codes)

    monkeypatch.setattr(UniversalHash, "raw", counting_raw)
    monkeypatch.setattr(HashStack, "raw", counting_stack_raw)
    monkeypatch.setattr(HashStack, "raw_all", counting_raw_all)
    return hashed


def test_find_hashes_each_key_once_per_candidate(monkeypatch):
    """A find of ``n`` distinct keys hashes exactly ``2n`` codes, in one
    stacked call: each key under its first and its second subtable,
    whatever ``d`` is, and never under the other ``d - 2``."""
    table = DyCuckooTable(DyCuckooConfig(num_tables=6, initial_buckets=64,
                                         bucket_capacity=8, seed=3))
    keys = unique_keys(3000, seed=7)
    table.insert(keys[:2000], keys[:2000])
    hashed = _count_second_layer_hashes(monkeypatch, table)
    values, found = table.find(keys)
    monkeypatch.undo()

    assert hashed == [("stack", 2 * len(keys))]
    assert found[:2000].all() and not found[2000:].any()
    assert np.array_equal(values[:2000], keys[:2000])


def test_insert_hashes_each_key_once_per_candidate(monkeypatch):
    """One insert hashes at most two codes per key plus one per eviction.

    The batch's update probe hashes every key under its two candidate
    subtables; the eviction rounds must reuse those hashes and hash only
    each evicted victim, once, under its alternate subtable.
    """
    table = DyCuckooTable(DyCuckooConfig(initial_buckets=256,
                                         bucket_capacity=8,
                                         auto_resize=False, seed=3))
    keys = unique_keys(6600, seed=5)
    table.insert(keys[:4600], keys[:4600])
    batch = keys[4600:]

    def no_bucket_for(t, codes):
        raise AssertionError("bucket_for re-hashed keys during an insert")

    hashed = _count_second_layer_hashes(monkeypatch, table)
    monkeypatch.setattr(table, "bucket_for", no_bucket_for)
    evictions_before = table.stats.evictions
    table.insert(batch, batch)
    monkeypatch.undo()

    evictions = table.stats.evictions - evictions_before
    assert evictions > 0
    assert table.load_factor > 0.75
    assert hashed[0] == ("stack", 2 * len(batch))
    assert sum(n for _kind, n in hashed) <= 2 * len(batch) + evictions
    values, found = table.find(keys)
    assert found.all() and np.array_equal(values, keys)


@pytest.mark.parametrize("d", [2, 3, 4, 8])
def test_candidate_hashes_match_per_function_hashes(d):
    """``raw_under`` equals each subtable's own hash, on a batch and on
    views of it, and resolves to ``bucket_of_raw``'s buckets while an
    upsize epoch is part-way through its migration."""
    table = DyCuckooTable(DyCuckooConfig(num_tables=d, initial_buckets=16,
                                         bucket_capacity=4, seed=11))
    keys = unique_keys(2000, seed=13)
    table.insert(keys[:100], keys[:100])
    table.finalize_resizes()
    table._resizer.open_upsize_epoch()
    table._resizer.drain_migration(max_pairs=3)  # mixed views
    epoch, = [st.migration for st in table.subtables
              if st.migration is not None]
    assert 0 < epoch.pending < epoch.num_pairs
    batch = EncodedBatch(table, keys)
    for encoded in (batch, batch[::3], batch[np.arange(1, 2000, 7)]):
        for targets in (encoded.first, encoded.second):
            raw = encoded.raw_under(targets)
            want = np.empty(len(encoded), dtype=np.uint64)
            want_buckets = np.empty(len(encoded), dtype=np.int64)
            for t in range(d):
                on_t = targets == t
                want[on_t] = table.table_hashes[t].raw(encoded.codes[on_t])
                want_buckets[on_t] = table.bucket_of_raw(t, want[on_t])
            assert raw.dtype == np.uint32
            assert np.array_equal(raw, want)
            assert np.array_equal(table.bucket_resolver()(targets, raw),
                                  want_buckets)


def test_cohort_insert_hashes_only_its_victims(monkeypatch):
    """A cohort launch hashes nothing but its evicted victims.

    The launch's ``EncodedBatch`` already holds every key's raw hash
    under its two candidate subtables, so leaders and alternate probes
    must read those; each victim is hashed once under the pair hash and
    every subtable's hash, which gives its new target and its hash
    there (the bucket it was evicted from is its alternate as is), in
    at most one stacked call per evicting round, and the kernel never
    resolves a bucket through ``bucket_for``.
    """
    table = DyCuckooTable(DyCuckooConfig(initial_buckets=256,
                                         bucket_capacity=8,
                                         auto_resize=False, seed=3))
    keys = unique_keys(6200, seed=9)
    table.insert(keys[:4200], keys[:4200])
    prof = Profiler()
    table.attach(Instruments(profiler=prof))
    fresh = keys[4200:]
    batch = EncodedBatch(table, fresh)
    batch.candidate_raw  # the kernel reads these; only victims hash again
    resolved = []
    plain_bucket_for = table.bucket_for

    def counting_bucket_for(t, codes):
        resolved.append(len(codes))
        return plain_bucket_for(t, codes)

    hashed = _count_second_layer_hashes(monkeypatch, table)
    monkeypatch.setattr(table, "bucket_for", counting_bucket_for)
    result = run_voter_insert_kernel(table, None, fresh, engine="cohort",
                                     codes=batch)
    monkeypatch.undo()

    # Cumulative evictions at each round start, then at the end.
    evictions = [r["evictions"] for r in prof.snapshot()["kernels"][-1][
        "rounds"]] + [result.evictions]
    evicting_rounds = sum(b > a for a, b in zip(evictions, evictions[1:]))
    assert result.evictions > 0
    assert result.completed_ops == len(batch)
    assert table.load_factor > 0.74
    assert hashed and all(kind == "all" for kind, _n in hashed)
    assert (sum(n for _kind, n in hashed)
            == result.evictions * (table.num_tables + 1))
    assert len(hashed) <= evicting_rounds
    assert resolved == []
    values, found = table.find(keys)
    assert found.all() and np.array_equal(values, keys)


def _walk(table, batch) -> tuple[dict, int]:
    """The reference probe, one key at a time: read the first bucket,
    and the second only on a miss.

    Returns ``{position: (subtable, bucket, slot)}`` of every key found
    and the number of keys that read their second bucket.
    """
    buckets = []
    for targets in (batch.first, batch.second):
        b = np.empty(len(batch), dtype=np.int64)
        for t in range(table.num_tables):
            on_t = targets == t
            b[on_t] = table.bucket_of_raw(
                t, table.table_hashes[t].raw(batch.codes[on_t]))
        buckets.append(b)
    located, retried = {}, 0
    for i, code in enumerate(batch.codes.tolist()):
        for visit, targets in enumerate((batch.first, batch.second)):
            t, b = int(targets[i]), int(buckets[visit][i])
            slots = np.flatnonzero(table.subtables[t].keys[b] == code)
            if len(slots):
                located[i] = (t, b, int(slots[0]))
                break
            if visit == 0:
                retried += 1
    return located, retried


def _run_probe(batch) -> tuple[np.ndarray, int, dict, list[int]]:
    """``batch`` probed alone with a recording touch: the hit mask, the
    second-bucket count, ``{position: (subtable, bucket, slot)}`` of
    the touched keys and the subtable of each touch call."""
    located, calls = {}, []

    def touch(t, buckets, slots, sel):
        calls.append(t)
        assert np.all(np.diff(sel) > 0)
        for b, s, i in zip(buckets.tolist(), slots.tolist(), sel.tolist()):
            assert i not in located
            located[i] = (t, b, s)

    (hit, retried), = probe_parts([(batch, touch)])
    return hit, retried, located, calls


def _probe_table(d: int, epoch: str, capacity: int = 8,
                 seed: int = 0) -> tuple[DyCuckooTable, np.ndarray]:
    """A ``d``-subtable table holding ``60 * d`` keys, with a resize
    epoch of kind ``epoch`` part-way through its migration (or none,
    for ``"settled"``), and the stored keys."""
    table = DyCuckooTable(DyCuckooConfig(num_tables=d, initial_buckets=32,
                                         min_buckets=8,
                                         bucket_capacity=capacity,
                                         seed=5 + seed))
    keys = unique_keys(60 * d, seed=d + 10 * seed)
    table.insert(keys, keys)
    table.finalize_resizes()
    if epoch != "settled":
        if epoch == "upsize":
            table._resizer.open_upsize_epoch()
        else:
            table._resizer.open_downsize_epoch()
        table._resizer.drain_migration(max_pairs=3)
        mig, = [st.migration for st in table.subtables
                if st.migration is not None]
        assert mig.kind == epoch and 0 < mig.pending < mig.num_pairs
    return table, keys


@pytest.mark.parametrize("epoch", ["settled", "upsize", "downsize"])
@pytest.mark.parametrize("d", [2, 3, 4, 8])
def test_probe_matches_per_key_walk(d, epoch):
    """Hits, touched slots and the second-bucket count equal the
    per-key walk's, on a ``2 * PROBE_CHUNK + 3`` batch of stored,
    absent and stash-resident keys (repeats included), so some keys'
    two entries fall in different blocks; each subtable is touched
    once, and a find through the table also reports the stash."""
    table, keys = _probe_table(d, epoch)
    rng = np.random.default_rng(d)
    absent = unique_keys(len(keys) + 300, seed=100 + d)
    absent = absent[~np.isin(absent, keys)][:200]
    stashed = absent[:20]
    table.stash.push(encode_keys(stashed), stashed)
    queries = rng.choice(np.concatenate([keys, absent]), 2 * PROBE_CHUNK + 3)
    batch = EncodedBatch(table, queries)

    hit, retried, located, calls = _run_probe(batch)
    want_located, want_retried = _walk(table, batch)

    assert located == want_located
    assert retried == want_retried
    assert np.array_equal(np.flatnonzero(hit), sorted(want_located))
    assert sorted(calls) == sorted(set(calls))
    # Some keys hit in their first bucket, some in their second.
    assert len(batch) - len(located) < retried < len(batch)
    assert {t for t, _b, _s in located.values()} == set(range(d))
    # Some key's first and second entries sit in different blocks:
    # entries are grouped by subtable, ascending within each.
    targets = np.stack((batch.first, batch.second), axis=1).ravel()
    rank = np.empty(len(targets), dtype=np.int64)
    rank[np.argsort(targets, kind="stable")] = np.arange(len(targets))
    blocks = (rank // PROBE_CHUNK).reshape(-1, 2)
    assert np.any(blocks[:, 0] != blocks[:, 1])

    values, found = table.find(queries)
    in_stash = np.isin(queries, stashed)
    assert np.array_equal(found, hit | in_stash)
    assert np.array_equal(values[found], queries[found])


@pytest.mark.parametrize("d", [2, 8])
def test_probe_of_empty_and_all_miss_batches(d):
    """An empty batch and a batch of absent keys touch nothing; every
    absent key reads both buckets."""
    table, keys = _probe_table(d, "settled")
    hit, retried, located, calls = _run_probe(
        EncodedBatch(table, np.zeros(0, dtype=np.uint64)))
    assert (len(hit), retried, located, calls) == (0, 0, {}, [])

    absent = unique_keys(len(keys) + 500, seed=200 + d)
    absent = absent[~np.isin(absent, keys)][:400]
    batch = EncodedBatch(table, absent)
    hit, retried, located, calls = _run_probe(batch)
    assert not hit.any() and retried == len(batch)
    assert located == {} and calls == []
    assert _walk(table, batch) == ({}, len(batch))


def _recording_touch(located: dict, calls: list):
    def touch(t, buckets, slots, sel):
        calls.append(t)
        assert np.all(np.diff(sel) > 0)
        for b, s, i in zip(buckets.tolist(), slots.tolist(), sel.tolist()):
            assert i not in located
            located[i] = (t, b, s)
    return touch


def _parts(specs, n_queries=90):
    """One ``EncodedBatch`` per ``(d, epoch, capacity)`` spec, each over
    its own table: stored, absent and repeated keys, or none for a
    ``None`` spec (an empty part)."""
    batches = []
    for i, spec in enumerate(specs):
        table, keys = _probe_table(*(spec or (2, "settled")), seed=i)
        rng = np.random.default_rng(i)
        absent = unique_keys(len(keys) + 100, seed=300 + i)
        absent = absent[~np.isin(absent, keys)][:60]
        size = 0 if spec is None else n_queries
        batches.append(EncodedBatch(
            table, rng.choice(np.concatenate([keys, absent]), size)))
    return batches


def _assert_parts_probe_alone(batches):
    """``probe_parts`` over ``batches`` equals each batch's own probe
    and the per-key walk: hits, touched (subtable, bucket, slot)
    triples, second-bucket counts; each subtable touched at most once
    per part."""
    located = [{} for _ in batches]
    calls = [[] for _ in batches]
    results = probe_parts([(batch, _recording_touch(where, called))
                           for batch, where, called
                           in zip(batches, located, calls)])
    assert len(results) == len(batches)
    for batch, (hit, retried), where, called in zip(batches, results,
                                                    located, calls):
        alone_hit, alone_retried, alone_where, _calls = _run_probe(batch)
        want_where, want_retried = _walk(batch.table, batch)
        assert where == alone_where == want_where
        assert retried == alone_retried == want_retried
        assert np.array_equal(hit, alone_hit)
        assert np.array_equal(np.flatnonzero(hit), sorted(want_where))
        assert sorted(called) == sorted(set(called))


_SPECS = [(2, "settled", 8), (3, "upsize", 8), (4, "downsize", 8),
          (8, "settled", 8), None, (4, "upsize", 8), (2, "downsize", 8),
          (3, "settled", 8)]


@pytest.mark.parametrize("n_parts", range(1, 9))
def test_probe_parts_match_each_part_alone(n_parts):
    """One to eight parts over tables with ``d`` of 2/3/4/8, one of
    them empty and some mid-upsize or mid-downsize."""
    _assert_parts_probe_alone(_parts(_SPECS[:n_parts]))


def test_probe_parts_straddle_chunks(monkeypatch):
    """With a small block, entries of one part and one subtable fall in
    several blocks, and some keys' two entries in different blocks."""
    chunk = 64
    monkeypatch.setattr(batch_ops, "PROBE_CHUNK", chunk)
    batches = _parts(_SPECS[:4])
    blocks = []
    plain = batch_ops.match_slots
    monkeypatch.setattr(batch_ops, "match_slots",
                        lambda block, codes, out: blocks.append(len(block))
                        or plain(block, codes, out=out))
    probe_parts([(batch, lambda *args: None) for batch in batches])
    monkeypatch.setattr(batch_ops, "match_slots", plain)
    entries = 2 * sum(len(batch) for batch in batches)
    assert blocks == ([chunk] * (entries // chunk)
                      + [entries % chunk] * (entries % chunk > 0))
    _assert_parts_probe_alone(batches)
    base, targets = 0, []
    for batch in batches:
        targets.append(np.stack((batch.first, batch.second), axis=1).ravel()
                       + base)
        base += batch.table.num_tables
    targets = np.concatenate(targets)
    rank = np.empty(len(targets), dtype=np.int64)
    rank[np.argsort(targets, kind="stable")] = np.arange(len(targets))
    in_block = (rank // chunk).reshape(-1, 2)
    assert np.any(in_block[:, 0] != in_block[:, 1])


def test_probe_parts_group_by_bucket_capacity(monkeypatch):
    """Parts whose tables differ in bucket capacity probe in one block
    group per capacity, never in one mixed-width block."""
    batches = _parts([(4, "settled", 8), (2, "upsize", 16),
                      (3, "settled", 8), (8, "downsize", 4),
                      (2, "settled", 16)])
    widths = []
    plain = batch_ops.match_slots
    monkeypatch.setattr(batch_ops, "match_slots",
                        lambda block, codes, out: widths.append(block.shape[1])
                        or plain(block, codes, out=out))
    probe_parts([(batch, lambda *args: None) for batch in batches])
    assert sorted(widths) == [4, 8, 16]
    monkeypatch.undo()
    _assert_parts_probe_alone(batches)


def test_host_and_cohort_paths_touch_located_slots(monkeypatch):
    """FIND, update and DELETE, on the host path and on the cohort
    engine, locate keys through one-part ``probe_parts`` calls alone:
    at most one touch per subtable per block, and no ``Subtable``
    probe."""
    table = DyCuckooTable(DyCuckooConfig(num_tables=4, initial_buckets=512,
                                         bucket_capacity=8, seed=9))
    keys = unique_keys(2 * PROBE_CHUNK + 3, seed=21)
    table.insert(keys, keys)
    touches = []
    plain_parts = batch_ops.probe_parts

    def counting_probe(parts):
        (batch, touch), = parts
        counts = {}

        def counted(t, buckets, slots, sel):
            counts[t] = counts.get(t, 0) + 1
            return touch(t, buckets, slots, sel)

        out = plain_parts([(batch, counted)])
        blocks = -(-2 * len(batch) // PROBE_CHUNK)
        touches.append(max(counts.values(), default=0) <= blocks)
        return out

    def no_subtable_probe(*args):
        raise AssertionError("a table op probed through Subtable")

    monkeypatch.setattr(batch_ops, "probe_parts", counting_probe)
    for name in ("lookup", "update_existing", "erase", "contains"):
        monkeypatch.setattr(Subtable, name, no_subtable_probe)
    values, found = table.find(keys)
    assert found.all() and np.array_equal(values, keys)
    table.insert(keys, keys + np.uint64(1))
    got = execute_mixed(table, np.full(len(keys), OP_FIND), keys,
                        engine="cohort")
    assert got.found.all() and np.array_equal(got.values, keys + 1)
    half = len(keys) // 2
    assert table.delete(keys[:half]).all()
    removed = execute_mixed(table, np.full(len(keys), OP_DELETE), keys,
                            engine="cohort").removed
    assert np.array_equal(removed, np.arange(len(keys)) >= half)
    monkeypatch.undo()
    assert touches == [True] * 5
    assert len(table) == 0


def test_loaded_and_copied_tables_hash_like_a_fresh_stack(tmp_path):
    """The table's ``hash_stack`` follows its hash functions through
    ``copy()`` and a persistence round trip.  The source table's
    functions are not the ones its seed draws, so a stack built before
    the functions were replaced would hash differently."""
    table = DyCuckooTable(DyCuckooConfig(num_tables=4, seed=3))
    table.table_hashes = make_table_hashes(4, np.random.default_rng(99))
    table.restack_hashes()
    keys = unique_keys(500, seed=4)
    table.insert(keys, keys)
    save_table(table, tmp_path / "t.npz")
    codes = encode_keys(unique_keys(300, seed=5))
    which = np.random.default_rng(6).integers(0, 4, len(codes))
    want = HashStack(table.table_hashes).raw(codes, which)
    for other in (table.copy(), load_table(tmp_path / "t.npz")):
        assert np.array_equal(other.hash_stack.raw(codes, which), want)
        values, found = other.find(keys)
        assert found.all() and np.array_equal(values, keys)


class AlwaysProbeTable(DyCuckooTable):
    """A table whose insert probes for live keys even when it is empty."""

    def _update_existing(self, batch: EncodedBatch, values: np.ndarray):
        codes = batch.codes

        def write(t: int, buckets: np.ndarray, slots: np.ndarray,
                  sel: np.ndarray) -> None:
            self.subtables[t].values[buckets, slots] = values[sel]
            self.stats.bucket_writes += len(sel)

        updated, _ = yield from self._probe(
            batch, write,
            lambda pending: self.stash.update(codes[pending],
                                              values[pending]))
        return updated


def _probe_spy(pair, monkeypatch) -> list[int]:
    """Record ``len(table)`` at each probe of ``pair[0]``."""
    probed = []
    probe = DyCuckooTable._probe

    def spy(self, batch, touch, stash_op):
        if self is pair[0]:
            probed.append(len(self))
        return probe(self, batch, touch, stash_op)

    monkeypatch.setattr(DyCuckooTable, "_probe", spy)
    return probed


def _insert_both(pair, keys, values) -> None:
    for table in pair:
        table.insert(keys, values)
    new, ref = pair
    assert new.stats.snapshot() == ref.stats.snapshot()
    assert twin_divergence(new, None, ref, None) == []


@pytest.mark.parametrize("auto_resize", [True, False])
def test_empty_table_insert_books_the_probe_it_skips(auto_resize,
                                                     monkeypatch):
    """An insert into a table with no entries skips the update probe
    and books the reads and hops the probe would have: a fresh table, a
    cleared one, a grown one emptied by deletes (with a downsize epoch
    still open) and a bulk load with repeated keys."""
    config = DyCuckooConfig(initial_buckets=64 if auto_resize else 1024,
                            bucket_capacity=8, min_buckets=8,
                            migration_budget=1, auto_resize=auto_resize,
                            seed=23)
    pair = new, _ = (DyCuckooTable(config), AlwaysProbeTable(config))
    probed = _probe_spy(pair, monkeypatch)
    keys = unique_keys(6000, seed=8)
    _insert_both(pair, keys[:3000], keys[:3000])
    for table in pair:
        table.clear()
    _insert_both(pair, keys[:4000], keys[:4000] + 1)
    for part in np.array_split(keys[:4000], 8):
        for table in pair:
            table.delete(part)
    assert len(new) == 0
    if auto_resize:
        assert new.stats.upsizes
        assert any(st.migration is not None
                   and st.migration.kind == "downsize"
                   for st in new.subtables)
    repeated = np.concatenate((keys[4000:], keys[4000:4500]))
    _insert_both(pair, repeated, np.arange(len(repeated), dtype=np.uint64))
    _insert_both(pair, keys[4000:4200], keys[4000:4200])
    assert 0 not in probed
    values, found = new.find(keys[4000:])
    assert found.all() and np.array_equal(values[:200], keys[4000:4200])


def test_stash_only_table_still_probes(monkeypatch):
    """A table whose only entries sit in the stash counts them in its
    length, so an insert of a stashed key updates it in the stash
    instead of placing it a second time."""
    pair = new, _ = (DyCuckooTable(_config()), AlwaysProbeTable(_config()))
    probed = _probe_spy(pair, monkeypatch)
    codes = encode_keys(unique_keys(3, seed=9))
    for table in pair:
        table._stash_pending(codes, codes, reason="test")
    keys = decode_keys(codes)
    _insert_both(pair, keys, keys + 7)
    assert probed[0] == 3
    assert new.stats.updates == 3 and len(new) == 3
    values, found = new.find(keys)
    assert found.all() and np.array_equal(values, keys + 7)
