"""MegaKV baseline (Zhang et al., VLDB 2015) as used in the paper.

MegaKV is a *static* bucketized cuckoo hash with exactly **two** hash
functions: every key has two candidate buckets, insertion evicts
occupants back and forth between them, and FIND simply checks both
buckets (which is why the paper reports MegaKV with the best FIND
throughput — no extra hashing layer).

For the dynamic experiments the paper bolts the naive resize strategy
onto MegaKV: when the filled factor leaves ``[alpha, beta]`` (or an
insert fails), the structure **doubles or halves entirely and rehashes
every KV pair** — the expensive, table-locking behaviour DyCuckoo's
single-subtable resizing is designed to avoid.

Faithfulness notes:

* buckets are cache-line sized, identical to DyCuckoo's layout — MegaKV
  pioneered this; we reuse :class:`repro.core.subtable.Subtable`;
* MegaKV resolves update races with per-slot ``atomicExch`` rather than
  bucket locks, so it records no lock traffic; its cost profile is pure
  memory traffic plus eviction rounds;
* with only two candidate buckets, eviction chains grow much faster at
  high fill than DyCuckoo's d-table chains — that asymmetry, not any
  tuning constant, drives the INSERT gap in Figure 9.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import GpuHashTable
from repro.core.grouping import first_occurrence_mask, last_occurrence_mask
from repro.core.hashing import UniversalHash
from repro.core.stats import MemoryFootprint, TableStats
from repro.core.subtable import Subtable
from repro.core.table import encode_keys
from repro.errors import CapacityError, InvalidConfigError
from repro.gpusim.metrics import KernelCosts


class MegaKVTable(GpuHashTable):
    """Two-function bucketized cuckoo hash with whole-table resizing.

    Parameters
    ----------
    initial_buckets:
        Buckets per subtable (power of two).
    bucket_capacity:
        Slots per bucket.  MegaKV's native geometry uses 8-entry buckets
        (two cache lines of signature+location pairs); DyCuckoo's larger
        32-entry buckets at the same total memory produce fewer
        evictions, which is the root of the INSERT gap in Figure 9.
    alpha, beta:
        Filled-factor bounds for the double/half resize strategy; only
        consulted when ``auto_resize`` is True.
    auto_resize:
        Enables the dynamic double/half behaviour.  The static
        experiments construct MegaKV pre-sized with this off.
    max_eviction_rounds:
        Insert rounds without progress before the insert is declared
        failed (triggering a doubling when ``auto_resize``).
    """

    NAME = "MegaKV"
    KERNEL_COSTS = KernelCosts(find_ns=0.20, insert_ns=0.26, delete_ns=0.20)

    def __init__(self, initial_buckets: int = 64, bucket_capacity: int = 8,
                 alpha: float = 0.30, beta: float = 0.85,
                 auto_resize: bool = True, max_eviction_rounds: int = 64,
                 min_buckets: int = 8, seed: int = 0x3E6A) -> None:
        if not 0.0 <= alpha < beta <= 1.0:
            raise InvalidConfigError(
                f"require 0 <= alpha < beta <= 1, got {alpha}, {beta}"
            )
        self.bucket_capacity = bucket_capacity
        self.alpha = alpha
        self.beta = beta
        self.auto_resize = auto_resize
        self.max_eviction_rounds = max_eviction_rounds
        self.min_buckets = min_buckets
        self.seed = seed
        self.stats = TableStats()
        self._rng = np.random.default_rng(seed)
        self._build(initial_buckets)

    def _build(self, n_buckets: int) -> None:
        """(Re)create the two subtables and draw fresh hash functions."""
        self.subtables = [Subtable(n_buckets, self.bucket_capacity)
                          for _ in range(2)]
        self.hashes = [UniversalHash.random(self._rng) for _ in range(2)]

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return sum(st.size for st in self.subtables)

    @property
    def n_buckets(self) -> int:
        """Buckets per subtable."""
        return self.subtables[0].n_buckets

    @property
    def total_slots(self) -> int:
        return sum(st.total_slots for st in self.subtables)

    @property
    def load_factor(self) -> float:
        slots = self.total_slots
        return len(self) / slots if slots else 0.0

    def memory_footprint(self) -> MemoryFootprint:
        return MemoryFootprint(
            total_slots=self.total_slots,
            live_entries=len(self),
            slot_bytes=sum(st.slot_bytes for st in self.subtables),
            overhead_bytes=0,
        )

    def validate(self) -> None:
        for st in self.subtables:
            st.validate()
        codes = np.concatenate([st.export_entries()[0]
                                for st in self.subtables])
        if len(codes) != len(np.unique(codes)):
            raise AssertionError("duplicate key stored across subtables")

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------

    def find(self, keys) -> tuple[np.ndarray, np.ndarray]:
        """Check the two candidate buckets of each key."""
        codes = encode_keys(keys)
        self.stats.finds += len(codes)
        values = np.zeros(len(codes), dtype=np.uint64)

        def read(st: Subtable, buckets: np.ndarray,
                 pending: np.ndarray) -> np.ndarray:
            hit, vals = st.lookup(buckets, codes[pending])
            values[pending[hit]] = vals[hit]
            return hit

        found = self._probe(codes, read)
        self.stats.find_hits += int(found.sum())
        return values, found

    def delete(self, keys) -> np.ndarray:
        """Physically clear matching slots in either candidate bucket."""
        all_codes = encode_keys(keys)
        n = len(all_codes)
        self.stats.deletes += n
        removed = np.zeros(n, dtype=bool)
        if n == 0:
            return removed
        # Only the first occurrence of a duplicated key can clear it.
        unique = first_occurrence_mask(all_codes)
        codes = all_codes[unique]

        def clear(st: Subtable, buckets: np.ndarray,
                  pending: np.ndarray) -> np.ndarray:
            erased = st.erase(buckets, codes[pending])
            self.stats.bucket_writes += int(erased.sum())
            return erased

        removed[unique] = removed_unique = self._probe(codes, clear)
        self.stats.delete_hits += int(removed_unique.sum())
        if self.auto_resize:
            self._enforce_bounds()
        return removed

    def insert(self, keys, values) -> None:
        """Upsert a batch; doubles the whole structure under pressure."""
        codes = encode_keys(keys)
        values = np.asarray(values, dtype=np.uint64)
        if values.shape != codes.shape:
            raise InvalidConfigError("values shape must match keys shape")
        self.stats.inserts += len(codes)
        if len(codes) == 0:
            return
        keep = last_occurrence_mask(codes)
        codes, values = codes[keep], values[keep]
        updated = self._update_existing(codes, values)
        self.stats.updates += int(updated.sum())
        fresh = np.flatnonzero(~updated)
        pending = (codes[fresh], values[fresh])
        # Faithful to the paper's baseline: resizing is *reactive* — a
        # doubling happens when an insertion fails mid-batch, and the
        # [alpha, beta] threshold is checked only between batches.
        while len(pending[0]):
            if (self.auto_resize
                    and len(self) + len(pending[0]) > self.total_slots):
                # A physically impossible fit would only churn evictions
                # before failing; the failure-triggered doubling happens
                # now rather than after a futile eviction storm.
                self._rebuild(self.n_buckets * 2)
                continue
            pending = self._insert_fresh(*pending)
            if len(pending[0]):
                if not self.auto_resize:
                    self.stats.insert_failures += len(pending[0])
                    raise CapacityError(
                        f"MegaKV insert failed for {len(pending[0])} keys "
                        "(static table full)"
                    )
                self._rebuild(self.n_buckets * 2)
        if self.auto_resize:
            self._enforce_bounds()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _probe(self, codes: np.ndarray, op) -> np.ndarray:
        """Walk each key's two candidate buckets, subtable 0 first.

        ``op(st, buckets, pending)`` serves the keys at positions
        ``pending`` in their ``buckets`` of subtable ``st`` and returns
        the mask of those it hit; only the misses go on to subtable 1.
        Counts one bucket read per key and subtable visited, and one
        chain hop per key sent to the second.  Returns the hit mask.
        """
        hit = np.zeros(len(codes), dtype=bool)
        for table_idx, st in enumerate(self.subtables):
            pending = np.flatnonzero(~hit)
            if len(pending) == 0:
                break
            if table_idx == 1:
                self.stats.chain_hops += len(pending)
            buckets = self.hashes[table_idx].bucket(codes[pending],
                                                    st.n_buckets)
            self.stats.bucket_reads += len(pending)
            hit[pending[op(st, buckets, pending)]] = True
        return hit

    def _update_existing(self, codes: np.ndarray, values: np.ndarray
                         ) -> np.ndarray:
        def write(st: Subtable, buckets: np.ndarray,
                  pending: np.ndarray) -> np.ndarray:
            upd = st.update_existing(buckets, codes[pending], values[pending])
            self.stats.bucket_writes += int(upd.sum())
            return upd

        return self._probe(codes, write)

    def _insert_fresh(self, codes: np.ndarray, values: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray]:
        """Round-synchronous two-table cuckoo insertion.

        Returns the ``(codes, values)`` that could not be placed after
        the eviction budget stalled; the caller decides whether that
        means growing (dynamic) or failing (static).
        """
        targets = (codes % np.uint64(2)).astype(np.int64)
        rounds_without_progress = 0
        while len(codes):
            self.stats.eviction_rounds += 1
            before = len(codes)
            next_codes, next_values, next_targets = [], [], []
            for table_idx in range(2):
                sel = np.flatnonzero(targets == table_idx)
                if len(sel) == 0:
                    continue
                st = self.subtables[table_idx]
                sel_codes, sel_values = codes[sel], values[sel]
                buckets = self.hashes[table_idx].bucket(sel_codes,
                                                        st.n_buckets)
                self.stats.bucket_reads += len(sel)
                placed, full_leader = st.place_round(buckets, sel_codes,
                                                     sel_values)
                writes = int(placed.sum())
                self.stats.bucket_writes += writes
                # MegaKV claims slots with per-slot atomicExch instead of
                # bucket locks (one exchange per committed write).
                self.stats.atomic_exchanges += writes
                ev = np.flatnonzero(full_leader)
                if len(ev):
                    slots = (buckets[ev] + self.stats.evictions) % st.bucket_capacity
                    old_codes, old_values = st.swap_slot(
                        buckets[ev], slots, sel_codes[ev], sel_values[ev])
                    self.stats.evictions += len(ev)
                    self.stats.bucket_writes += len(ev)
                    next_codes.append(old_codes)
                    next_values.append(old_values)
                    next_targets.append(np.full(len(ev), 1 - table_idx,
                                                dtype=np.int64))
                retry = ~(placed | full_leader)
                if np.any(retry):
                    next_codes.append(sel_codes[retry])
                    next_values.append(sel_values[retry])
                    next_targets.append(np.full(int(retry.sum()), table_idx,
                                                dtype=np.int64))
            if next_codes:
                codes = np.concatenate(next_codes)
                values = np.concatenate(next_values)
                targets = np.concatenate(next_targets)
            else:
                codes = np.zeros(0, dtype=np.uint64)
                values = np.zeros(0, dtype=np.uint64)
                targets = np.zeros(0, dtype=np.int64)
            rounds_without_progress = (rounds_without_progress + 1
                                       if len(codes) >= before else 0)
            if rounds_without_progress >= self.max_eviction_rounds:
                return codes, values
        return codes, values

    def _enforce_bounds(self) -> None:
        """The naive strategy: double or halve everything, rehash all."""
        while self.total_slots and self.load_factor > self.beta:
            self._rebuild(self.n_buckets * 2)
        while (self.load_factor < self.alpha
               and self.n_buckets > self.min_buckets):
            projected = len(self) / (self.total_slots / 2)
            if projected > self.beta:
                break
            self._rebuild(self.n_buckets // 2)

    def _rebuild(self, new_buckets: int) -> None:
        """Allocate a new structure and rehash every KV pair into it.

        This is the full-table lock the paper charges MegaKV with: every
        entry is read out and reinserted under fresh hash functions.  If
        the fresh functions are unlucky and the reinsert stalls, the new
        structure doubles again until everything fits.
        """
        entries = [st.export_entries() for st in self.subtables]
        codes = np.concatenate([e[0] for e in entries])
        values = np.concatenate([e[1] for e in entries])
        self.stats.full_rehashes += 1
        self.stats.rehashed_entries += len(codes)
        self.stats.bucket_reads += sum(st.n_buckets for st in self.subtables)
        while True:
            self._build(new_buckets)
            leftover_codes, _leftover_values = self._insert_fresh(codes, values)
            if len(leftover_codes) == 0:
                return
            new_buckets *= 2
