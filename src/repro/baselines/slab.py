"""SlabHash baseline (Ashkiani et al., IPDPS 2018) as used in the paper.

SlabHash is the only prior *dynamic* GPU hash table: each bucket heads a
linked list of fixed-size **slabs** (128-byte nodes holding 15 KV pairs
plus a next pointer, sized so one warp reads a whole slab in one
transaction).  Growth happens by chaining more slabs from a dedicated
pre-reserved allocator pool; the bucket count never changes.

The three weaknesses the paper calls out are all reproduced here:

1. **Dedicated allocator** — the slab pool is reserved up front and is
   not usable by other GPU-resident structures; the reservation shows up
   in :meth:`memory_footprint` as overhead.
2. **Symbolic deletion** — DELETE marks a tombstone without freeing
   anything, so the filled factor is unbounded below (Figure 12's decay);
   inserts may reuse tombstoned slots, which is why *more* deletions make
   SlabHash inserts *faster* (Figure 11's inverted trend).
3. **Chaining** — FIND/INSERT walk chains of dependent accesses; the
   expected lookup touches ``Omega(log log m)`` slabs for some keys, and
   chains only grow as data streams in (Figure 13's degradation).
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import GpuHashTable
from repro.core.grouping import (first_occurrence_mask, last_occurrence_mask,
                                 rank_within_group)
from repro.core.hashing import UniversalHash
from repro.core.stats import MemoryFootprint, TableStats
from repro.core.subtable import claim_slots
from repro.errors import InvalidConfigError, InvalidKeyError
from repro.gpusim.metrics import KernelCosts

#: Empty-slot sentinel (slab-local code space).
EMPTY = np.uint64(0)
#: Symbolically-deleted sentinel.
TOMBSTONE = np.uint64(1)
#: Largest storable user key under the two reserved codes.
MAX_SLAB_KEY = (1 << 64) - 3

#: KV pairs per 128-byte slab (30 words of payload + 2 words of pointer).
SLAB_CAPACITY = 15

#: Null next-pointer.
NULL = -1


def slab_buckets_for_fill(num_keys: int, target_fill: float) -> int:
    """Bucket count that makes SlabHash reach ``target_fill``.

    SlabHash's filled factor is live entries over *allocated* slab
    slots.  Each chain wastes roughly half a slab at its tail, so with
    ``B`` buckets the expected allocation is ``num_keys + B * cap / 2``
    slots.  Solving ``fill = n / (n + B * cap / 2)`` for ``B`` shows why
    dense slab tables force long chains: the only way up in fill is
    fewer, longer chains — the geometry behind Figure 10's slab decline.
    """
    if not 0.0 < target_fill < 1.0:
        raise InvalidConfigError(
            f"target_fill must be in (0, 1), got {target_fill}")
    waste_budget = num_keys * (1.0 - target_fill) / target_fill
    buckets = max(1, int(waste_budget / (SLAB_CAPACITY / 2.0)))
    return buckets


def _encode(keys) -> np.ndarray:
    codes = np.asarray(keys, dtype=np.uint64)
    if codes.ndim != 1:
        raise InvalidKeyError(f"keys must be one-dimensional, got {codes.shape}")
    if len(codes) and bool(np.any(codes > np.uint64(MAX_SLAB_KEY))):
        raise InvalidKeyError(f"SlabHash keys must be <= {MAX_SLAB_KEY}")
    return codes + np.uint64(2)


class SlabHashTable(GpuHashTable):
    """Chaining hash table over slab lists with symbolic deletion.

    Parameters
    ----------
    n_buckets:
        Number of bucket heads; fixed for the table's lifetime (SlabHash
        grows by chaining, never by widening the hash range).
    reserve_slabs:
        Slabs pre-reserved by the dedicated allocator.  Exceeding the
        reservation doubles the pool (expensive, counted as a full
        rehash-equivalent overhead event).
    """

    NAME = "SlabHash"
    KERNEL_COSTS = KernelCosts(find_ns=0.34, insert_ns=0.38, delete_ns=0.34)

    def __init__(self, n_buckets: int = 1024,
                 reserve_slabs: int | None = None,
                 seed: int = 0x51AB) -> None:
        if n_buckets < 1:
            raise InvalidConfigError(f"n_buckets must be >= 1, got {n_buckets}")
        self.n_buckets = n_buckets
        rng = np.random.default_rng(seed)
        self.hash = UniversalHash.random(rng)
        self.stats = TableStats()
        pool = reserve_slabs if reserve_slabs is not None else 2 * n_buckets
        pool = max(pool, n_buckets)
        self._pool_capacity = pool
        self.slab_keys = np.zeros((pool, SLAB_CAPACITY), dtype=np.uint64)
        self.slab_values = np.zeros((pool, SLAB_CAPACITY), dtype=np.uint64)
        self.slab_next = np.full(pool, NULL, dtype=np.int64)
        # Every bucket starts with one base slab, as in SlabHash.
        self.head = np.arange(n_buckets, dtype=np.int64)
        self.allocated_slabs = n_buckets
        #: Live (non-tombstoned) entries.
        self.live = 0
        #: Slots currently holding tombstones.
        self.tombstones = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return self.live

    @property
    def total_slots(self) -> int:
        """Slots in *allocated* slabs (the memory chained into buckets)."""
        return self.allocated_slabs * SLAB_CAPACITY

    @property
    def load_factor(self) -> float:
        """Live entries over allocated slots — decays under deletion."""
        return self.live / self.total_slots if self.total_slots else 0.0

    def memory_footprint(self) -> MemoryFootprint:
        slab_bytes = SLAB_CAPACITY * 16 + 8  # keys+values + next pointer
        reserved_unused = (self._pool_capacity - self.allocated_slabs)
        return MemoryFootprint(
            total_slots=self.total_slots,
            live_entries=self.live,
            slot_bytes=self.allocated_slabs * slab_bytes,
            overhead_bytes=reserved_unused * slab_bytes,
        )

    def chain_lengths(self) -> np.ndarray:
        """Slab count of every bucket's chain (diagnostics and tests)."""
        lengths = np.zeros(self.n_buckets, dtype=np.int64)
        for b in range(self.n_buckets):
            slab = int(self.head[b])
            while slab != NULL:
                lengths[b] += 1
                slab = int(self.slab_next[slab])
        return lengths

    def validate(self) -> None:
        keys = self.slab_keys[:self.allocated_slabs]
        live = int(np.count_nonzero((keys != EMPTY) & (keys != TOMBSTONE)))
        if live != self.live:
            raise AssertionError(f"live counter {self.live} != stored {live}")
        stored = keys[(keys != EMPTY) & (keys != TOMBSTONE)]
        if len(stored) != len(np.unique(stored)):
            raise AssertionError("duplicate key stored in slab lists")

    # ------------------------------------------------------------------
    # Chain walking (shared by find / delete / update)
    # ------------------------------------------------------------------

    def _walk(self, codes: np.ndarray, on_match: str,
              values: np.ndarray | None = None
              ) -> tuple[np.ndarray, np.ndarray]:
        """Walk each code's chain; returns ``(found, found_values)``.

        ``on_match`` selects the action at the matching slot: ``"read"``
        gathers the value, ``"write"`` stores ``values``, ``"tombstone"``
        marks the slot deleted.  One chain hop per round, one (dependent)
        memory transaction per hop per op.
        """
        n = len(codes)
        found = np.zeros(n, dtype=bool)
        out_values = np.zeros(n, dtype=np.uint64)
        if n == 0:
            return found, out_values
        buckets = (self.hash.raw(codes) % np.uint64(self.n_buckets)
                   ).astype(np.int64)
        cursor = self.head[buckets]
        active = np.ones(n, dtype=bool)
        depth = 0
        while np.any(active):
            idx = np.flatnonzero(active)
            slabs = cursor[idx]
            self.stats.random_accesses += len(idx)
            if depth > 0:
                self.stats.chain_hops += len(idx)
            depth += 1
            rows = self.slab_keys[slabs]                       # (m, cap)
            match = rows == codes[idx][:, None]
            hit = match.any(axis=1)
            slots = match.argmax(axis=1)
            hit_idx = idx[hit]
            if len(hit_idx):
                hit_slabs = slabs[hit]
                hit_slots = slots[hit]
                if on_match == "read":
                    out_values[hit_idx] = self.slab_values[hit_slabs, hit_slots]
                elif on_match == "write":
                    self.slab_values[hit_slabs, hit_slots] = values[hit_idx]
                    self.stats.random_accesses += len(hit_idx)
                elif on_match == "tombstone":
                    self.slab_keys[hit_slabs, hit_slots] = TOMBSTONE
                    self.stats.random_accesses += len(hit_idx)
                    self.live -= len(hit_idx)
                    self.tombstones += len(hit_idx)
                found[hit_idx] = True
                active[hit_idx] = False
            # Misses advance down the chain; end of chain deactivates.
            miss_idx = idx[~hit]
            nxt = self.slab_next[slabs[~hit]]
            cursor[miss_idx] = nxt
            active[miss_idx[nxt == NULL]] = False
        return found, out_values

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------

    def find(self, keys) -> tuple[np.ndarray, np.ndarray]:
        """Walk the chain of each key's bucket."""
        codes = _encode(keys)
        self.stats.finds += len(codes)
        found, values = self._walk(codes, on_match="read")
        self.stats.find_hits += int(found.sum())
        return values, found

    def delete(self, keys) -> np.ndarray:
        """Symbolic deletion: mark tombstones, free nothing."""
        codes = _encode(keys)
        n = len(codes)
        self.stats.deletes += n
        removed = np.zeros(n, dtype=bool)
        if n == 0:
            return removed
        unique = first_occurrence_mask(codes)
        found, _ = self._walk(codes[unique], on_match="tombstone")
        removed[np.flatnonzero(unique)] = found
        self.stats.delete_hits += int(found.sum())
        return removed

    def insert(self, keys, values) -> None:
        """Upsert; reuses tombstoned slots, chains new slabs when full."""
        codes = _encode(keys)
        values = np.asarray(values, dtype=np.uint64)
        if values.shape != codes.shape:
            raise InvalidConfigError("values shape must match keys shape")
        self.stats.inserts += len(codes)
        if len(codes) == 0:
            return
        keep = last_occurrence_mask(codes)
        codes, values = codes[keep], values[keep]

        updated, _ = self._walk(codes, on_match="write", values=values)
        self.stats.updates += int(updated.sum())
        fresh = np.flatnonzero(~updated)
        if len(fresh):
            self._place_fresh(codes[fresh], values[fresh])

    def _place_fresh(self, codes: np.ndarray, values: np.ndarray) -> None:
        """Round-synchronous placement of keys known to be absent."""
        buckets = (self.hash.raw(codes) % np.uint64(self.n_buckets)
                   ).astype(np.int64)
        cursor = self.head[buckets].copy()
        pending = np.arange(len(codes))
        depth = 0
        while len(pending):
            self.stats.eviction_rounds += 1
            slabs = cursor[pending]
            self.stats.random_accesses += len(pending)
            if depth > 0:
                self.stats.chain_hops += len(pending)
            depth += 1
            ranks, unique_slabs, inverse = rank_within_group(slabs)
            rows = self.slab_keys[unique_slabs]
            can_place, slots = claim_slots(
                (rows == EMPTY) | (rows == TOMBSTONE), ranks, inverse)
            if len(slots):
                items = pending[can_place]
                dest = slabs[can_place]
                reused = self.slab_keys[dest, slots] == TOMBSTONE
                self.tombstones -= int(reused.sum())
                self.slab_keys[dest, slots] = codes[items]
                self.slab_values[dest, slots] = values[items]
                self.live += len(items)
                # One CAS per claimed slot (SlabHash claims via atomicCAS).
                self.stats.lock_acquisitions += len(items)
                self.stats.random_accesses += len(items)

            blocked = pending[~can_place]
            if len(blocked) == 0:
                pending = np.zeros(0, dtype=np.int64)
                continue
            blocked_slabs = cursor[blocked]
            nxt = self.slab_next[blocked_slabs]
            has_next = nxt != NULL
            cursor[blocked[has_next]] = nxt[has_next]
            # End-of-chain leaders allocate; others retry next round.
            tail = blocked[~has_next]
            if len(tail):
                tail_slabs = cursor[tail]
                tail_ranks, tail_unique, _ = rank_within_group(tail_slabs)
                leaders = tail[tail_ranks == 0]
                for op in leaders:
                    slab = int(cursor[op])
                    if self.slab_next[slab] == NULL:
                        new_slab = self._allocate_slab()
                        self.slab_next[slab] = new_slab
            pending = np.concatenate([blocked])

    def _allocate_slab(self) -> int:
        """Bump-allocate one slab from the reserved pool.

        Exceeding the reservation doubles the pool — the concurrent
        allocation expense the paper criticizes, charged as a full-rehash
        overhead event.
        """
        if self.allocated_slabs >= self._pool_capacity:
            new_capacity = self._pool_capacity * 2
            grow = new_capacity - self._pool_capacity
            self.slab_keys = np.vstack(
                [self.slab_keys,
                 np.zeros((grow, SLAB_CAPACITY), dtype=np.uint64)])
            self.slab_values = np.vstack(
                [self.slab_values,
                 np.zeros((grow, SLAB_CAPACITY), dtype=np.uint64)])
            self.slab_next = np.concatenate(
                [self.slab_next, np.full(grow, NULL, dtype=np.int64)])
            self._pool_capacity = new_capacity
            self.stats.full_rehashes += 1
        slab = self.allocated_slabs
        self.allocated_slabs += 1
        self.stats.lock_acquisitions += 1  # allocator bitmap CAS
        return slab
