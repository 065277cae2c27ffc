"""Operation counters and filled-factor bookkeeping.

Every table implementation (DyCuckoo and the baselines) carries a
:class:`TableStats` instance.  The counters feed two consumers:

* the **GPU cost model** (:mod:`repro.gpusim`), which converts event
  counts — memory transactions, atomic conflicts, eviction rounds — into
  simulated cycles and therefore Mops figures, and
* the **experiment harness**, which reports filled factors, resize counts
  and memory footprints (Figures 12, 14, 15 of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass, fields


@dataclass
class TableStats:
    """Mutable event counters accumulated by a hash table.

    All counters are cumulative since construction (or the last
    :meth:`reset`).  ``snapshot``/``delta`` support measuring a single
    batch.
    """

    #: Keys inserted (including updates of existing keys).
    inserts: int = 0
    #: Inserts that updated an existing key in place.
    updates: int = 0
    #: Find operations issued.
    finds: int = 0
    #: Finds that located their key.
    find_hits: int = 0
    #: Delete operations issued.
    deletes: int = 0
    #: Deletes that removed a key.
    delete_hits: int = 0
    #: Cuckoo evictions (an occupant displaced to its alternate bucket).
    evictions: int = 0
    #: Device-wide synchronous insert rounds executed.
    eviction_rounds: int = 0
    #: Bucket lock acquisitions that failed (voter revotes / spins).
    lock_conflicts: int = 0
    #: Bucket lock acquisitions that succeeded.
    lock_acquisitions: int = 0
    #: Standalone atomicExch writes (lock-free designs: MegaKV, CUDPP).
    atomic_exchanges: int = 0
    #: Coalesced bucket reads (one 128-byte transaction each).
    bucket_reads: int = 0
    #: Coalesced bucket writes.
    bucket_writes: int = 0
    #: Non-coalesced single-slot accesses (chaining baselines).
    random_accesses: int = 0
    #: Dependent probes beyond the first of a lookup chain: the second
    #: cuckoo bucket on a miss, each extra CUDPP function probe, every
    #: chain hop in SlabHash.  These serialize behind the previous
    #: access and expose memory latency the warp scheduler cannot fully
    #: hide, so the cost model charges them a latency term on top of
    #: their bandwidth.
    chain_hops: int = 0
    #: Upsize operations performed.
    upsizes: int = 0
    #: Downsize operations performed.
    downsizes: int = 0
    #: Full-table rehashes (static baselines' resize strategy).
    full_rehashes: int = 0
    #: Entries moved by any resize or rehash.
    rehashed_entries: int = 0
    #: Downsize residuals spilled into other subtables.
    residuals: int = 0
    #: Inserts that failed permanently (static tables without resizing).
    insert_failures: int = 0
    #: Entries parked in the overflow stash after a failed upsize.
    stash_pushes: int = 0
    #: Stash entries drained back into the main table after a resize.
    stash_drained: int = 0
    #: FIND probes answered from the stash.
    stash_hits: int = 0
    #: Resizes aborted mid-lifecycle (fault injection).  Not every abort
    #: rolls back: only an epoch-open rehash abort restores a snapshot, a
    #: spill abort parks its residuals in the stash, and a migration
    #: slice's rehash abort leaves its epoch open.
    resize_aborts: int = 0
    #: Bounded migration slices executed for incremental-resize epochs.
    migration_slices: int = 0
    #: Bucket pairs moved to their post-resize view by migration slices.
    migrated_pairs: int = 0
    #: Automatic upsizes blocked by the ``max_total_slots`` ceiling
    #: (theta stays above beta until deletes make room).
    capacity_blocked: int = 0

    def reset(self) -> None:
        """Zero every counter."""
        for f in fields(self):
            setattr(self, f.name, 0)

    def snapshot(self) -> dict[str, int]:
        """Return a copy of all counters as a plain dict."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def delta(self, before: dict[str, int]) -> dict[str, int]:
        """Return counter increments since ``before`` (a prior snapshot)."""
        return {name: getattr(self, name) - before.get(name, 0)
                for name in (f.name for f in fields(self))}

    def merge(self, other: "TableStats") -> None:
        """Accumulate another stats object into this one."""
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))


@dataclass(frozen=True)
class MemoryFootprint:
    """Device-memory accounting for one table at one instant.

    ``slot_bytes`` covers key and value storage; ``overhead_bytes`` covers
    auxiliary structures (locks, slab-allocator reservations, chain
    pointers).  ``live_entries`` counts keys currently stored, so
    ``filled_factor`` is live entries over total slots.
    """

    total_slots: int
    live_entries: int
    slot_bytes: int
    overhead_bytes: int = 0

    @property
    def filled_factor(self) -> float:
        """Live entries divided by allocated slots (0.0 for empty tables)."""
        if self.total_slots == 0:
            return 0.0
        return self.live_entries / self.total_slots

    @property
    def total_bytes(self) -> int:
        return self.slot_bytes + self.overhead_bytes

    def __str__(self) -> str:
        return (f"{self.live_entries}/{self.total_slots} slots "
                f"({self.filled_factor:.1%}), {self.total_bytes / 1e6:.2f} MB")
