"""DyCuckoo: the two-layer dynamic cuckoo hash table (Sections IV and V).

The table keeps ``d`` bucketized subtables.  A key is first hashed to one
of the ``C(d, 2)`` subtable *pairs* (layer one) and then lives in exactly
one bucket of one subtable of that pair (layer two).  Consequences:

* ``find`` and ``delete`` touch at most **two** buckets, independent of
  ``d`` (Section V-A);
* ``insert`` may evict occupants along a cuckoo chain that can wander
  through *any* subtable, preserving the flexibility — and the amortized
  O(1) bound, Theorem 2 — of a ``d``-table cuckoo hash;
* resizing doubles/halves a *single* subtable (Section IV-B), so at most
  ``m / d`` entries move per resize and the other subtables stay online.

Execution is *round-synchronous*, mirroring the device-wide bulk steps of
the GPU kernels: each insert round, every pending operation attempts its
current bucket; winners place or evict; losers retry next round.  All
heavy lifting is vectorized with numpy, and every round increments the
event counters consumed by the GPU cost model.

Batched semantics follow the paper (Section V-B): each public call takes
a whole batch of one operation type.  ``insert`` is an upsert; duplicate
keys within one batch resolve to the *last* occurrence.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.core import batch_ops, distribution
from repro.core.batch_ops import (OP_DELETE, OP_FIND, OP_INSERT, EncodedBatch,
                                  OpBody, PlaceRequest, Touch, as_batch,
                                  host_body)
from repro.core.config import DyCuckooConfig
from repro.core.grouping import first_occurrence_mask, last_occurrence_mask
from repro.core.hashing import (UNHASHED, HashStack, PairHash,
                                UniversalHash, make_table_hashes, unhashed)
from repro.core.instruments import Instruments
from repro.core.resize import ResizeController
from repro.core.stash import Stash
from repro.core.stats import MemoryFootprint, TableStats
from repro.core.subtable import FlatStorage, Subtable
from repro.errors import (CapacityError, InvalidKeyError, ResizeError,
                          StashOverflowError)
from repro.gpusim.kernel import estimate_lock_conflicts
from repro.telemetry.recorder import NULL_RECORDER

#: Bucket upper bounds for the cuckoo-chain-depth histogram (evictions a
#: key's placement chain went through before settling).
CHAIN_DEPTH_BUCKETS = (0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)

#: Largest user key; ``2**64 - 1`` is unrepresentable because the
#: internal code space reserves 0 for empty slots.
MAX_KEY = (1 << 64) - 2


def encode_keys(keys) -> np.ndarray:
    """Map user keys to internal nonzero codes (``key + 1``)."""
    codes = np.asarray(keys, dtype=np.uint64)
    if codes.ndim != 1:
        raise InvalidKeyError(f"keys must be one-dimensional, got shape {codes.shape}")
    if len(codes) and (codes == np.uint64(MAX_KEY + 1)).any():
        raise InvalidKeyError(f"keys must be <= {MAX_KEY}")
    return codes + np.uint64(1)


def decode_keys(codes: np.ndarray) -> np.ndarray:
    """Inverse of :func:`encode_keys`."""
    return np.asarray(codes, dtype=np.uint64) - np.uint64(1)


class DyCuckooTable:
    """Dynamic two-layer cuckoo hash table mapping uint64 -> uint64.

    Parameters
    ----------
    config:
        A :class:`repro.core.config.DyCuckooConfig`; defaults match the
        paper's defaults (d=4, 32-slot buckets, alpha=30%, beta=85%).

    Examples
    --------
    >>> import numpy as np
    >>> from repro import DyCuckooTable
    >>> table = DyCuckooTable()
    >>> table.insert(np.arange(100, dtype=np.uint64),
    ...              np.arange(100, dtype=np.uint64) * 2)
    >>> values, found = table.find(np.array([3, 999], dtype=np.uint64))
    >>> bool(found[0]), bool(found[1]), int(values[0])
    (True, False, 6)
    """

    def __init__(self, config: DyCuckooConfig | None = None) -> None:
        self.config = config or DyCuckooConfig()
        rng = np.random.default_rng(self.config.seed)
        self.pair_hash = PairHash(self.config.num_tables, rng)
        self.table_hashes = make_table_hashes(self.config.num_tables, rng)
        self.restack_hashes()
        self.subtables = [
            Subtable(self.config.initial_buckets, self.config.bucket_capacity)
            for _ in range(self.config.num_tables)
        ]
        self.stats = TableStats()
        self._router = distribution.make_router(self.config.routing,
                                                self.config.seed ^ 0xA5A5)
        self._resizer = ResizeController(self)
        self._victim_counter = 0
        #: Bounded overflow stash (the CUDA reference's error table);
        #: empty in every fault-free run.
        self.stash = Stash(self.config.stash_capacity)
        self._draining = False
        #: Resize epoch (upsizes + downsizes) of the last drain attempt;
        #: bounds retries to one per completed resize.
        self._drain_epoch = -1
        #: Cached :meth:`flat_storage` arena (a cache, never pickled).
        self._arena: FlatStorage | None = None
        #: Cached :meth:`bucket_resolver` (never pickled); see
        #: :meth:`geometry_changed`.
        self._resolver: Callable[[np.ndarray, np.ndarray],
                                 np.ndarray] | None = None
        #: Cached :attr:`total_slots`, dropped with the resolver.
        self._total_slots: int | None = None
        #: The attached instruments; see :meth:`attach`.
        self.instruments = Instruments()
        self.attach(None)

    def __getstate__(self) -> dict:
        """Pickle without the arena and the resolver: the subtables'
        views already carry every row, and the next :meth:`flat_storage`
        and :meth:`bucket_resolver` calls rebuild them."""
        state = self.__dict__.copy()
        state["_arena"] = None
        state["_resolver"] = None
        return state

    def attach(self, instruments: Instruments | None) -> None:
        """Attach a bundle of instruments (``None`` detaches them all).

        The record replaces whatever was attached before; a field left
        at its null default detaches that instrument.  Each handle is
        also mirrored into a plain attribute (``self.telemetry``,
        ``self.profiler``, ``self.recorder``, ``self.sanitizer``,
        ``self.faults``) that only this method writes, so hook sites
        read it directly and, with the nulls attached, cost one
        ``enabled`` check — the table's behaviour stays bit-identical
        to an uninstrumented one.

        An enabled flight recorder is bound to this table and wired
        into an enabled fault plan and sanitizer, so their trips dump a
        post-mortem bundle; the handles this call detaches get
        :data:`NULL_RECORDER` back.  The null singletons are never
        mutated.
        """
        new = instruments if instruments is not None else Instruments()
        old = self.instruments
        if old.faults.enabled:
            old.faults.recorder = NULL_RECORDER
        if old.sanitizer.enabled:
            old.sanitizer.recorder = NULL_RECORDER
        if new.recorder.enabled:
            new.recorder.attach(self)
            if new.faults.enabled:
                new.faults.recorder = new.recorder
            if new.sanitizer.enabled:
                new.sanitizer.recorder = new.recorder
        self.instruments = new
        self.telemetry = new.telemetry
        self.profiler = new.profiler
        self.recorder = new.recorder
        self.sanitizer = new.sanitizer
        self.faults = new.faults
        # The stash reports occupancy into memcheck's stash-overflow
        # check.
        self.stash.sanitizer = new.sanitizer

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        live = len(self.stash)
        for st in self.subtables:
            live += st.size
        return live

    @property
    def num_tables(self) -> int:
        """Number of subtables ``d``."""
        return self.config.num_tables

    @property
    def total_slots(self) -> int:
        """Allocated key slots across all subtables; cached until
        :meth:`geometry_changed`."""
        slots = self._total_slots
        if slots is None:
            slots = self._total_slots = sum(st.total_slots
                                            for st in self.subtables)
        return slots

    @property
    def load_factor(self) -> float:
        """Global filled factor ``theta`` (live entries / allocated slots)."""
        slots = self.total_slots
        return len(self) / slots if slots else 0.0

    @property
    def subtable_load_factors(self) -> list[float]:
        """Per-subtable filled factors ``theta_i``."""
        return [st.filled_factor for st in self.subtables]

    def subtable_sizes(self) -> np.ndarray:
        """Slot counts ``n_i`` per subtable."""
        return np.asarray([st.total_slots for st in self.subtables],
                          dtype=np.int64)

    def subtable_loads(self) -> np.ndarray:
        """Live entry counts ``m_i`` per subtable."""
        return np.asarray([st.size for st in self.subtables], dtype=np.int64)

    def memory_footprint(self) -> MemoryFootprint:
        """Current device-memory accounting (one lock word per bucket)."""
        lock_bytes = 4 * sum(st.n_buckets for st in self.subtables)
        return MemoryFootprint(
            total_slots=self.total_slots,
            live_entries=len(self),
            slot_bytes=sum(st.slot_bytes for st in self.subtables),
            overhead_bytes=lock_bytes,
        )

    def items(self) -> tuple[np.ndarray, np.ndarray]:
        """Return all live ``(keys, values)`` (unspecified order).

        Includes entries currently parked in the overflow stash.
        """
        exports = [st.export_entries()[:2] for st in self.subtables]
        if len(self.stash):
            exports.append(self.stash.export_entries())
        all_codes = (np.concatenate([e[0] for e in exports]) if exports
                     else np.zeros(0, dtype=np.uint64))
        all_values = (np.concatenate([e[1] for e in exports]) if exports
                      else np.zeros(0, dtype=np.uint64))
        return decode_keys(all_codes), all_values

    def keys(self) -> np.ndarray:
        """All live keys (unspecified order)."""
        return self.items()[0]

    def values(self) -> np.ndarray:
        """All live values, aligned with :meth:`keys`."""
        return self.items()[1]

    def to_dict(self) -> dict[int, int]:
        """Materialize the table as a plain Python dict."""
        out_keys, out_values = self.items()
        return {int(k): int(v) for k, v in zip(out_keys, out_values)}

    def __contains__(self, key: int) -> bool:
        return bool(self.contains(np.asarray([key], dtype=np.uint64))[0])

    def clear(self) -> None:
        """Remove every entry and shrink storage back to the initial size."""
        self.subtables = [
            Subtable(self.config.initial_buckets, self.config.bucket_capacity)
            for _ in range(self.config.num_tables)
        ]
        self.stash = Stash(self.config.stash_capacity)
        self._drain_epoch = -1
        self.geometry_changed()

    def restack_hashes(self) -> None:
        """Build :attr:`hash_stack`: :attr:`table_hashes` stacked for
        one-call hashing, member ``t`` subtable ``t``'s function, then
        the pair hash as member ``d`` (a cohort launch readdresses its
        victims under all ``d + 1`` in one pass).  Whoever replaces a
        hash function calls this."""
        self.hash_stack = HashStack([*self.table_hashes,
                                     self.pair_hash.hash])

    def copy(self) -> "DyCuckooTable":
        """Deep copy: same hash functions, independent storage."""
        import copy as _copy

        clone = DyCuckooTable(self.config)
        clone.pair_hash = _copy.deepcopy(self.pair_hash)
        clone.table_hashes = _copy.deepcopy(self.table_hashes)
        clone.restack_hashes()
        for src, dst in zip(self.subtables, clone.subtables):
            dst.n_buckets = src.n_buckets
            dst.keys = src.keys.copy()
            dst.values = src.values.copy()
            dst.size = src.size
            dst.migration = (src.migration.copy()
                             if src.migration is not None else None)
        clone.stash = self.stash.copy()
        clone._victim_counter = self._victim_counter
        clone.geometry_changed()
        return clone

    @classmethod
    def from_items(cls, keys, values,
                   config: DyCuckooConfig | None = None) -> "DyCuckooTable":
        """Build a table pre-sized for ``keys`` and bulk-insert them."""
        keys = np.asarray(keys, dtype=np.uint64)
        base = config or DyCuckooConfig()
        table = cls(base.sized_for(len(np.unique(keys))))
        table.insert(keys, values)
        return table

    def merge_from(self, other: "DyCuckooTable") -> None:
        """Upsert every entry of ``other`` into this table.

        On key collisions ``other``'s value wins (merge = bulk upsert).
        """
        other_keys, other_values = other.items()
        if len(other_keys):
            self.insert(other_keys, other_values)

    def validate(self) -> None:
        """Check structural invariants; raises ``AssertionError`` on bugs.

        Verified invariants: per-subtable live counts, no duplicate key
        across subtables (or between a subtable and the stash), every
        entry stored in a subtable of its pair and in its hashed bucket,
        the 2x size discipline between subtables, and the stash capacity
        bound.  Delegates to
        :func:`repro.core.analysis.check_invariants`.
        """
        from repro.core.analysis import check_invariants

        check_invariants(self, check_fill=False)

    # ------------------------------------------------------------------
    # Public batched operations
    # ------------------------------------------------------------------

    def find(self, keys) -> tuple[np.ndarray, np.ndarray]:
        """Look up a batch of keys.

        Returns ``(values, found)``; ``values[i]`` is meaningful only
        where ``found[i]``.  Each lookup reads at most two buckets.
        ``keys`` may also be an
        :class:`~repro.core.batch_ops.EncodedBatch` built for this table,
        as it may for :meth:`insert` and :meth:`delete`.
        """
        return self._run(OP_FIND, as_batch(self, keys))

    def _run(self, kind: int, batch: EncodedBatch, values=None):
        """One op over ``batch``: a wave of one body (see
        :func:`~repro.core.batch_ops.host_body`)."""
        return batch_ops.run_bodies([host_body(self, kind, batch,
                                               values)])[0]

    # The op bodies below are generators (see
    # :func:`~repro.core.batch_ops.run_bodies`): each prepares its batch,
    # yields one probe request through :meth:`_probe` (an insert into an
    # empty table yields none) and then finishes; an insert's finish
    # yields one placement request per eviction round through
    # :meth:`_insert_pending`.  A single-table call runs its body as a
    # wave of one part; the sharded front-end runs one body per shard in
    # one wave, whose rounds share one multi-table probe and one
    # multi-table placement pass.

    def _find_body(self, batch: EncodedBatch) -> OpBody:
        """:meth:`find` body over an encoded batch."""
        codes = batch.codes
        n = len(codes)
        self.stats.finds += n
        values = np.zeros(n, dtype=np.uint64)
        if n == 0:
            return values, np.zeros(0, dtype=bool)

        def read(t: int, buckets: np.ndarray, slots: np.ndarray,
                 sel: np.ndarray) -> None:
            values[sel] = self.subtables[t].values[buckets, slots]

        def stash_lookup(pending: np.ndarray):
            stash_values, hit = self.stash.lookup(codes[pending])
            values[pending[hit]] = stash_values[hit]
            self.stats.stash_hits += int(np.count_nonzero(hit))
            return hit

        found, retried = yield from self._probe(batch, read, stash_lookup)
        hits = int(np.count_nonzero(found))
        self.stats.find_hits += hits
        if self.telemetry.enabled:
            hist = self.telemetry.metrics.histogram("probe_length",
                                                    (1.0, 2.0))
            hist.observe_count(1.0, n - retried)
            hist.observe_count(2.0, retried)
            self.telemetry.metrics.counter("find.hits").inc(hits)
            self.telemetry.metrics.counter("find.misses").inc(n - hits)
        if self.config.auto_resize:
            self._drain_migration()
        return values, found

    def contains(self, keys) -> np.ndarray:
        """Membership test for a batch of keys."""
        _values, found = self.find(keys)
        return found

    def get(self, key: int, default: int | None = None):
        """Scalar convenience lookup; returns ``default`` when absent."""
        values, found = self.find(np.asarray([key], dtype=np.uint64))
        return int(values[0]) if bool(found[0]) else default

    def insert(self, keys, values) -> None:
        """Upsert a batch of key/value pairs.

        Existing keys are updated in place; fresh keys are routed per the
        Theorem-1 policy and inserted with cuckoo evictions.  If the
        filled factor then exceeds ``beta`` (or an insert exhausts its
        eviction budget), the table upsizes per Section IV-B.
        """
        self._run(OP_INSERT, as_batch(self, keys), values)

    def _insert_body(self, batch: EncodedBatch, values) -> OpBody:
        """:meth:`insert` body over an encoded, *un-deduplicated* batch."""
        values = np.asarray(values, dtype=np.uint64)
        if values.shape != batch.codes.shape:
            raise InvalidKeyError(
                f"values shape {values.shape} != keys shape "
                f"{batch.codes.shape}"
            )
        self.stats.inserts += len(batch)
        if len(batch) == 0:
            return
        keep = last_occurrence_mask(batch.codes)
        if not keep.all():
            # Without duplicates (a bulk load) the batch is probed as
            # is, not through a view holding copies of its hashes.
            batch = batch[keep]
            values = values[keep]

        updated = yield from self._update_existing(batch, values)
        fresh = (~updated).nonzero()[0]
        self.stats.updates += len(batch) - len(fresh)
        if len(fresh):
            pending = batch[fresh]
            targets = self._router.choose(pending.codes, pending.first,
                                          pending.second,
                                          self.subtable_sizes(),
                                          self.subtable_loads(),
                                          draw=pending.draw)
            # Each fresh key starts with its target's hash, read from the
            # batch cache the update probe already filled.
            rounds = self._insert_pending(pending.codes, values[fresh],
                                          targets, pending.raw_under(targets),
                                          excluded=None)
            # Only the rounds hold the fresh keys: pending's pair copies
            # would raise a bulk load's peak RSS, and so would each
            # shard's first-round arrays while a wave's shards place.
            del pending, targets, fresh
            yield from rounds
        if self.config.auto_resize:
            self._resizer.enforce_bounds()
            self._drain_migration()
        if len(self.stash):
            self._drain_stash()

    def delete(self, keys) -> np.ndarray:
        """Delete a batch of keys; returns a mask of keys actually removed.

        At most two bucket probes per key; deletion clears the slot
        physically (no tombstones), so the filled factor drops and may
        trigger a downsize.
        """
        return self._run(OP_DELETE, as_batch(self, keys))

    def _delete_body(self, batch: EncodedBatch) -> OpBody:
        """:meth:`delete` body over an encoded batch."""
        n = len(batch)
        self.stats.deletes += n
        if n == 0:
            return np.zeros(0, dtype=bool)
        # Duplicate keys in one delete batch: only the first occurrence
        # can observe (and clear) the entry.  Without duplicates the
        # batch is probed as is, not through a view of its hashes.
        keep = first_occurrence_mask(batch.codes)
        unique_idx = None if keep.all() else keep.nonzero()[0]
        unique = batch if unique_idx is None else batch[unique_idx]
        codes = unique.codes

        def clear(t: int, buckets: np.ndarray, slots: np.ndarray,
                  sel: np.ndarray) -> None:
            self.subtables[t].clear_slots(buckets, slots)
            self.stats.bucket_writes += len(sel)

        removed_unique, _ = yield from self._probe(
            unique, clear, lambda pending: self.stash.erase(codes[pending]))
        removed = removed_unique
        if unique_idx is not None:
            removed = np.zeros(n, dtype=bool)
            removed[unique_idx] = removed_unique
        self.stats.delete_hits += int(np.count_nonzero(removed_unique))
        if self.config.auto_resize:
            self._resizer.enforce_bounds()
            self._drain_migration()
        if len(self.stash):
            self._drain_stash()
        return removed

    def execute_mixed(self, op_codes, keys, values=None,
                      engine: str | None = None):
        """Execute a mixed op batch; see
        :func:`repro.core.batch_ops.execute_mixed`.

        ``engine=None`` uses the vectorized host path; ``"warp"`` /
        ``"cohort"`` route every homogeneous run through the
        lane-faithful kernels (the table must then be pre-sized).
        """
        from repro.core.batch_ops import execute_mixed

        return execute_mixed(self, op_codes, keys, values, engine=engine)

    def upsize(self) -> None:
        """Manually double the smallest subtable (Section IV-D)."""
        self._resizer.upsize()
        if len(self.stash):
            self._drain_stash()

    def downsize(self) -> None:
        """Manually halve the largest subtable (Section IV-D).

        Raises :class:`ResizeError` when every subtable is at
        ``min_buckets`` or halving would put ``theta`` above ``beta``.
        """
        self._resizer.downsize()
        if len(self.stash):
            self._drain_stash()

    # ------------------------------------------------------------------
    # Internal machinery
    # ------------------------------------------------------------------

    def bucket_for(self, t: int, codes: np.ndarray) -> np.ndarray:
        """Bucket indices for ``codes`` in subtable ``t``, epoch-aware.

        Hashes ``codes`` and resolves them through :meth:`bucket_of_raw`;
        the warp reference engine's bucket-resolution point.  The host
        path and the cohort engine carry raw hashes and resolve them
        with :meth:`bucket_of_raw` / :meth:`bucket_resolver` directly.
        """
        return self.bucket_of_raw(t, self.table_hashes[t].raw(codes))

    def bucket_of_raw(self, t: int, raw: np.ndarray) -> np.ndarray:
        """Bucket indices in subtable ``t`` from precomputed raw hashes.

        Outside a migration epoch this is the plain power-of-two mask;
        while subtable ``t`` is mid-migration it is the epoch check —
        one extra masked index computation routing each key to its
        pre- or post-resize bucket — so FIND/DELETE keep the paper's
        two-bucket guarantee throughout.  ``raw`` is geometry-independent
        (see :class:`~repro.core.batch_ops.EncodedBatch`).
        """
        st = self.subtables[t]
        if st.migration is None:
            return UniversalHash.bucket_from_raw(raw, st.n_buckets)
        return st.migration.effective_buckets(raw)

    def bucket_resolver(
            self) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
        """``(targets, raw) -> buckets`` for the current geometry.

        The resolver maps each ``uint32`` raw hash to its bucket in
        subtable ``targets[i]``, element for element equal to
        :meth:`bucket_of_raw`.  With every subtable settled it is one
        gather of the per-subtable ``n_buckets - 1`` masks; while any
        subtable is mid-migration it applies the epoch check per target.
        The resolver is cached until :meth:`geometry_changed` drops it.
        """
        resolver = self._resolver
        if resolver is None:
            resolver = self._resolver = self._build_resolver()
        return resolver

    def _build_resolver(
            self) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
        if any(st.migration is not None for st in self.subtables):
            return self._buckets_per_target
        masks = np.array([st.n_buckets - 1 for st in self.subtables],
                         dtype=np.int64)
        return lambda targets, raw: raw & masks[targets]

    def geometry_changed(self) -> None:
        """Drop the cached :meth:`bucket_resolver`.

        Whatever changes a subtable's ``n_buckets`` or opens or closes
        its migration epoch calls this: the resize controller at each
        epoch open and finish and at a snapshot restore, :meth:`clear`,
        :meth:`copy` and :func:`~repro.core.persistence.load_table`.
        Code that rebuilds a subtable directly must call it too.  The
        cached :attr:`total_slots` goes with the resolver.
        """
        self._resolver = None
        self._total_slots = None

    def _buckets_per_target(self, targets: np.ndarray,
                            raw: np.ndarray) -> np.ndarray:
        buckets = np.empty(len(raw), dtype=np.int64)
        for t in range(self.num_tables):
            g = (targets == t).nonzero()[0]
            if len(g):
                buckets[g] = self.bucket_of_raw(t, raw[g])
        return buckets

    def flat_storage(self) -> FlatStorage:
        """All subtables' storage as one arena; subtables become views.

        Bucket ``b`` of subtable ``t`` is arena row
        ``row_offset[t] + b``, so a kernel addresses every subtable
        with one gather or scatter.  The arena is cached: a call
        rebuilds it only when some subtable's arrays are no longer its
        views (after a resize step, a snapshot restore, a persistence
        load or :meth:`clear`), and is otherwise a check of ``d`` views.
        The cohort insert engine fetches it once per launch; the host
        path and the warp engine never do.

        Memory bound: arrays that replace a subtable's views are fresh
        allocations, while the views keep the previous arena alive.  A
        table that resizes after a launch therefore holds at most one
        stale arena (this table's only arena) until its next call here
        drops it.
        """
        arena = self._arena
        if arena is None or not arena.backs(self.subtables):
            arena = self._arena = FlatStorage.adopt(self.subtables)
        return arena

    def _drain_migration(self) -> int:
        """Batch-end hook: advance any open resize epoch by one slice."""
        return self._resizer.drain_migration()

    def finalize_resizes(self) -> int:
        """Complete any open migration epoch now; returns pairs moved.

        Needed before operations that assume settled geometry
        (persistence snapshots); harmless no-op otherwise.
        """
        return self._resizer.finalize_migration()

    def _probe(self, batch: EncodedBatch, touch: Touch, stash_op
               ) -> OpBody:
        """An op body's probe step: request the two-bucket probe, then
        look up the stash for keys still missed.

        Yields the request ``(batch, touch)`` (see
        :func:`~repro.core.batch_ops.probe_parts`); ``stash_op(pending)``
        serves the positions both buckets missed and returns the mask
        of those the stash hit.  Counts the reads of a first-then-second
        walk: one bucket read per key, and one more read and one chain
        hop per key its first bucket missed.  Returns the hit mask and
        the number of such second reads.
        """
        hit, retried = yield batch, touch
        self.stats.bucket_reads += len(batch) + retried
        self.stats.chain_hops += retried
        if len(self.stash):
            pending = (~hit).nonzero()[0]
            if len(pending):
                hit[pending[stash_op(pending)]] = True
        return hit, retried

    def _update_existing(self, batch: EncodedBatch,
                         values: np.ndarray) -> OpBody:
        """Overwrite values of keys already stored; return updated mask.

        A table holding no entries (``len`` counts the stash) cannot be
        hit, so the probe is skipped and only booked: every key misses
        its first bucket, which is what the probe would have counted.
        """
        if not len(self):
            n = len(batch)
            self.stats.bucket_reads += 2 * n
            self.stats.chain_hops += n
            return np.zeros(n, dtype=bool)
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

    def _insert_pending(self, codes: np.ndarray, values: np.ndarray,
                        targets: np.ndarray, raw: np.ndarray,
                        excluded: int | None) -> OpBody:
        """Round-synchronous cuckoo insertion of fresh keys: a body step.

        ``targets[i]`` is the subtable each key currently attempts and
        ``raw[i]`` its raw hash under that subtable's function, or
        :data:`~repro.core.hashing.UNHASHED` when not yet computed.  A
        key is hashed once per target: retries keep their hash, and an
        evicted victim enters the next round unhashed.  When
        ``excluded`` is set (a migration slice's residual spill),
        eviction victims whose alternate is the excluded subtable are
        never chosen, and an exhausted eviction chain parks the pending
        keys in the overflow stash instead of upsizing, so a slice never
        unwinds table state.

        Each round is one vectorized step over every pending key, as a
        device round is (Section V).  The table first does its own part:
        the fault check, the beta upsize, one sort grouping the keys by
        target, one call hashing the unhashed ones and one bucket
        resolution.  It then yields one
        :class:`~repro.core.batch_ops.PlaceRequest` and is sent back
        ``(placed, leaders, n_placed)`` from
        :func:`~repro.core.batch_ops.place_parts`, which ranks each
        bucket's claimants, claims the free slots and has the table
        write them (:meth:`_settle_round`).  An insert body yields from
        this one, so its rounds share its wave's stacked passes;
        :meth:`_drain_stash` and a resize spill run it as a wave of its
        own through :func:`~repro.core.batch_ops.run_bodies`.  Victim
        choice, the swaps, the next round's order, the stall upsize and
        stash parking stay with the table.  The outcome is the
        sequential one of visiting subtables ``0..d-1`` in turn, which
        the next round's order keeps: each subtable's victims, then its
        retries.
        """
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
        d = self.num_tables
        target_dtype = np.min_scalar_type(d - 1)
        emit_dtype = np.min_scalar_type(2 * d - 1)
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
                # A resize moves entries but never changes their count,
                # so the live count is read once per round.
                live = len(self) + len(codes)
                while live / self.total_slots > self.config.beta:
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
            # One stable sort groups the pending keys by target; each
            # subtable's keys stay in the order they were pending.  The
            # targets sort in a narrow unsigned type, which numpy's
            # stable sort orders by radix instead of by merging.
            order = targets.astype(target_dtype).argsort(kind="stable")
            codes = codes[order]
            values = values[order]
            targets = targets[order]
            raw = raw[order]
            if track_depths:
                depths = depths[order]
            todo = (raw == UNHASHED).nonzero()[0]
            if len(todo):
                raw[todo] = self.hash_stack.raw(codes[todo], targets[todo])
            buckets = self.bucket_resolver()(targets, raw)
            self.stats.bucket_reads += len(codes)
            self.stats.lock_acquisitions += len(codes)
            if prof.enabled:
                # Attribute the per-bucket lock grants to the contention
                # heatmap (bucket < 2^40, so + == |).
                prof.lock_grants_many(buckets + (targets << 40))
            placed, leaders, n_placed = yield PlaceRequest(
                self, codes, values, targets, buckets, excluded,
                retry_hist if traced else None)

            lead = leaders.nonzero()[0]
            good = lead
            if len(lead):
                slots, ok, victim_alts = self._choose_victims(
                    targets[lead], buckets[lead], n_placed, excluded)
                # Eviction leaders without an eligible victim retry.
                leaders[lead[~ok]] = False
                good = lead[ok]
                slots = slots[ok]
                victim_alts = victim_alts[ok]
            n_good = len(good)
            if n_good:
                victim_codes = np.empty(n_good, dtype=np.uint64)
                victim_values = np.empty(n_good, dtype=np.uint64)
                cuts = targets[good].searchsorted(np.arange(d + 1)).tolist()
                for st, a, b in zip(self.subtables, cuts, cuts[1:]):
                    if a < b:
                        g = good[a:b]
                        victim_codes[a:b], victim_values[a:b] = st.swap_slot(
                            buckets[g], slots[a:b], codes[g], values[g])
                self.stats.evictions += n_good
                self.stats.bucket_writes += n_good
            if track_depths:
                done = placed | leaders
                if traced:
                    chain_hist.observe_many(depths[done])
                if prof.enabled:
                    prof.observe_chains(depths[done])

            # The next round holds, for each subtable in turn, its
            # victims and then its retries.
            retry = (~(placed | leaders)).nonzero()[0]
            if n_good:
                emit = np.concatenate(
                    (2 * targets[good], 2 * targets[retry] + 1)
                ).astype(emit_dtype).argsort(kind="stable")
                codes = np.concatenate((victim_codes, codes[retry]))[emit]
                values = np.concatenate((victim_values,
                                         values[retry]))[emit]
                targets = np.concatenate((victim_alts,
                                          targets[retry]))[emit]
                raw = np.concatenate((unhashed(n_good), raw[retry]))[emit]
                if track_depths:
                    depths = np.concatenate((depths[good] + 1,
                                             depths[retry]))[emit]
            else:
                codes = codes[retry]
                values = values[retry]
                targets = targets[retry]
                raw = raw[retry]
                if track_depths:
                    depths = depths[retry]
            if traced:
                tel.metrics.counter("eviction.rounds").inc()
                tel.metrics.counter("evictions").inc(n_good)
                tel.tracer.instant(
                    "evict.round", "insert", pending=before_pending,
                    evictions=n_good, carried=len(codes))

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

    def _stash_pending(self, codes: np.ndarray, values: np.ndarray,
                       reason: str) -> None:
        """Park pending inserts in the overflow stash (degraded mode).

        Mirrors the CUDA reference's ``cg_error_handle``: keys whose
        eviction chain is exhausted while the upsize that would make
        room is unavailable are appended to a bounded error table
        rather than lost.  Overflowing the stash raises
        :class:`StashOverflowError` — the error of last resort.
        """
        absorbed = self.stash.push(codes, values)
        n_absorbed = int(np.count_nonzero(absorbed))
        self.stats.stash_pushes += n_absorbed
        if self.profiler.enabled:
            self.profiler.sample_stash(len(self.stash))
        if self.recorder.enabled:
            self.recorder.record("stash.push", n=n_absorbed,
                                 occupancy=len(self.stash), reason=reason)
        tel = self.telemetry
        if tel.enabled:
            tel.tracer.instant("stash.push", "stash", n=n_absorbed,
                               occupancy=len(self.stash), reason=reason)
            tel.metrics.counter("stash.pushes").inc(n_absorbed)
            tel.metrics.gauge("stash.occupancy").set(len(self.stash))
        overflow = len(codes) - n_absorbed
        if overflow:
            self.stats.insert_failures += overflow
            if tel.enabled:
                tel.tracer.instant("stash.overflow", "stash", dropped=overflow,
                                   capacity=self.stash.capacity)
                tel.metrics.counter("stash.overflows").inc(overflow)
            raise StashOverflowError(
                f"overflow stash full: {overflow} keys could not be parked "
                f"(stash_capacity={self.stash.capacity}); last resize "
                f"failure: {reason}"
            )

    def _drain_stash(self) -> int:
        """Retry stashed inserts through the normal path; return count.

        Bounded retry-with-revote: at most one drain attempt per resize
        *epoch* (total completed upsizes + downsizes), so a stash that
        cannot be emptied does not add per-batch retry churn.  The
        attempt is all-or-nothing with respect to key survival — on a
        hard :class:`CapacityError` mid-drain the table and stash are
        rolled back from a snapshot and the table stays in degraded
        mode.
        """
        if self._draining or not len(self.stash):
            return 0
        epoch = self.stats.upsizes + self.stats.downsizes
        if epoch == self._drain_epoch:
            return 0
        from repro.core.resize import _TableSnapshot

        snapshot = _TableSnapshot(self)
        codes, values = self.stash.pop_all()
        before = len(codes)
        self._draining = True
        try:
            first, second = self.pair_hash.tables_for(codes)
            targets = self._router.choose(codes, first, second,
                                          self.subtable_sizes(),
                                          self.subtable_loads())
            batch_ops.run_bodies([self._insert_pending(
                codes, values, targets, unhashed(len(codes)),
                excluded=None)])
        except CapacityError:
            # Hard failure mid-drain (e.g. max_total_slots): no key may
            # be lost, so restore the pre-drain state (the snapshot
            # covers the stash) and stay degraded.
            snapshot.restore(self)
            if self.telemetry.enabled:
                self.telemetry.tracer.instant("stash.drain_failed", "stash",
                                              attempted=before)
            return 0
        finally:
            self._draining = False
            self._drain_epoch = self.stats.upsizes + self.stats.downsizes
        # Count the popped keys that left the stash.  A downsize epoch
        # the drain's upsize finalizes may stash other keys meanwhile;
        # those are pushes, not a negative drain.
        drained = before - sum(code in self.stash for code in codes)
        self.stats.stash_drained += drained
        if self.profiler.enabled:
            self.profiler.sample_stash(len(self.stash))
        if self.recorder.enabled:
            self.recorder.record("stash.drain", attempted=before,
                                 drained=drained,
                                 remaining=len(self.stash))
        if self.telemetry.enabled:
            self.telemetry.tracer.instant("stash.drain", "stash",
                                          attempted=before, drained=drained,
                                          remaining=len(self.stash))
            self.telemetry.metrics.counter("stash.drained").inc(drained)
            self.telemetry.metrics.gauge("stash.occupancy").set(
                len(self.stash))
        return drained

    def _settle_round(self, request: PlaceRequest, leaders: np.ndarray,
                      flat: np.ndarray, codes: np.ndarray,
                      values: np.ndarray, cuts: list[list[int]]) -> None:
        """Book one round's claims (see
        :func:`~repro.core.batch_ops.place_parts`).

        Subtable ``t``'s keys are ``cuts[0][t]:cuts[0][t + 1]`` of the
        request, and its placed keys ``cuts[1][t]:cuts[1][t + 1]`` of
        ``flat``/``codes``/``values``: each placed key's flat slot index
        in its subtable (``bucket * capacity + slot``), code and value.
        Subtables settle in index order: each books its bucket locks and
        writes its slots, and a full bucket in an upsizing subtable is
        migrated on access right after its own subtable places, so the
        migration sees exactly the placements of subtables ``0..t`` and
        its bucket's leader (cleared in ``leaders``) retries.
        """
        bounds, item_cuts = cuts
        retry_hist = request.retry_hist
        stats = self.stats
        tel = self.telemetry
        for t, st in enumerate(self.subtables):
            lo, hi = bounds[t], bounds[t + 1]
            if lo == hi:
                continue
            # One bucket-lock CAS per operation; collisions estimated
            # from device occupancy (only resident warps contend).
            conflicts = estimate_lock_conflicts(hi - lo, st.n_buckets)
            stats.lock_conflicts += conflicts
            if retry_hist is not None:
                tel.metrics.counter("lock.acquisitions").inc(hi - lo)
                tel.metrics.counter("lock.conflicts").inc(conflicts)
                retry_hist.observe(conflicts)
                tel.tracer.instant("lock.acquire", "lock", subtable=t,
                                   requests=hi - lo, conflicts=conflicts)
            a, b = item_cuts[t], item_cuts[t + 1]
            if a < b:
                st.keys.put(flat[a:b], codes[a:b])
                st.values.put(flat[a:b], values[a:b])
                st.size += b - a
            mig = st.migration
            if (request.excluded is None and mig is not None
                    and mig.kind == "upsize"):
                ev = lo + leaders[lo:hi].nonzero()[0]
                # Migrate-on-access: a full bucket in an upsizing
                # subtable gets split to its post-resize view instead
                # of evicting — the blocked keys retry next round
                # against the (half-empty) migrated pair.
                ev_pairs = request.buckets[ev] & np.int64(mig.num_pairs - 1)
                unmig = ~mig.migrated[ev_pairs]
                if unmig.any():
                    self._resizer.migrate_on_access(
                        t, np.unique(ev_pairs[unmig]))
                    leaders[ev[unmig]] = False
        stats.bucket_writes += item_cuts[-1]

    def _choose_victims(self, targets: np.ndarray, buckets: np.ndarray,
                        n_placed: np.ndarray, excluded: int | None
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Pick one eviction victim per full bucket, in one pass.

        ``targets``/``buckets`` address the round's eviction leaders,
        grouped by subtable; ``n_placed`` is the round's per-subtable
        placement count.  Victims rotate deterministically around the
        bucket so repeated evictions do not thrash the same slot.  With
        ``excluded`` set, only occupants whose alternate subtable
        differs from ``excluded`` are eligible.

        Returns ``(slots, ok, alternates)`` — the chosen slot per bucket,
        whether an eligible victim exists, and the victim's alternate
        subtable.
        """
        d = self.num_tables
        cap = self.config.bucket_capacity
        m = len(buckets)
        cuts = targets.searchsorted(np.arange(d + 1)).tolist()
        bucket_keys = np.concatenate([                        # (m, cap), full
            st.bucket_keys(buckets[a:b])
            for st, a, b in zip(self.subtables, cuts, cuts[1:]) if a < b])
        pair_hash = self.pair_hash
        parts = pair_hash.raw_mod(bucket_keys.ravel()).reshape(m, cap)
        # Theorem-1-guided choice (Section V-A: "one can pick a KV pair
        # for re-insertion into a desired hash table based on the
        # balancing strategy"): prefer the occupant whose alternate
        # subtable currently has the best routing weight, so evictions
        # drain toward the least-loaded subtables — this is where a
        # larger d pays off for insertion.  Row t of the load matrix
        # is the loads once subtables 0..t have placed: the round
        # chooses as if it visited the subtables in order.
        steps = np.arange(d)
        loads = (self.subtable_loads() - n_placed
                 + n_placed * (steps[:, None] >= steps))
        weights = distribution.theorem1_weights(self.subtable_sizes(), loads)
        preference = pair_hash.alternate_weights(     # (m, cap)
            weights, targets[:, None], parts)
        # Random tie-breaking jitter: victims must still be effectively
        # random or dense eviction cycles persist for hundreds of
        # rounds (random-walk cuckoo).  A multiplicative hash of
        # (event counter, bucket, slot) provides the jitter without an
        # RNG stream; each subtable with leaders takes the next counter.
        per_table = [b - a for a, b in zip(cuts, cuts[1:]) if b > a]
        nonces = []
        for _ in per_table:
            self._victim_counter += 1
            nonces.append((self._victim_counter * 0x9E3779B97F4A7C15)
                          & 0xFFFFFFFFFFFFFFFF)
        nonce = np.repeat(np.array(nonces, dtype=np.uint64), per_table)
        mixed = (nonce[:, None]
                 + buckets.astype(np.uint64)[:, None] * np.uint64(0xBF58476D1CE4E5B9)
                 + np.arange(cap, dtype=np.uint64)[None, :] * np.uint64(0x94D049BB133111EB))
        jitter = ((mixed >> np.uint64(40)).astype(np.float64)
                  / float(1 << 24))                           # [0, 1)
        score = preference * (0.5 + jitter)
        rows = np.arange(m)
        if excluded is None:
            slots = score.argmax(axis=1)
            return (slots, np.ones(m, dtype=bool),
                    pair_hash.alternates_of(targets, parts[rows, slots]))
        alternates = pair_hash.alternates_of(targets[:, None], parts)
        eligible = alternates != excluded
        slots = np.where(eligible, score, -1.0).argmax(axis=1)
        return slots, eligible[rows, slots], alternates[rows, slots]
