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

import numpy as np

from repro.core import distribution
from repro.core.batch_ops import EncodedBatch
from repro.core.config import DyCuckooConfig
from repro.core.grouping import first_occurrence_mask, last_occurrence_mask
from repro.core.hashing import (UNHASHED, PairHash, UniversalHash,
                                make_table_hashes, unhashed)
from repro.core.resize import ResizeController
from repro.core.stash import Stash
from repro.core.stats import MemoryFootprint, TableStats
from repro.core.subtable import Subtable
from repro.errors import (CapacityError, InvalidKeyError, ResizeError,
                          StashOverflowError)
from repro.faults import NO_FAULTS, FaultPlan
from repro.gpusim.kernel import estimate_lock_conflicts
from repro.sanitizer import NULL_SANITIZER, Sanitizer
from repro.telemetry import NULL_TELEMETRY, Telemetry
from repro.telemetry.profiler import NULL_PROFILER, Profiler
from repro.telemetry.recorder import NULL_RECORDER, FlightRecorder

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
    if len(codes) and bool(np.any(codes == np.uint64(MAX_KEY + 1))):
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
        self.subtables = [
            Subtable(self.config.initial_buckets, self.config.bucket_capacity)
            for _ in range(self.config.num_tables)
        ]
        self.stats = TableStats()
        self._router = distribution.make_router(self.config.routing,
                                                self.config.seed ^ 0xA5A5)
        self._resizer = ResizeController(self)
        self._victim_counter = 0
        #: Observability hooks; the null default makes every gate a
        #: single attribute check (see :mod:`repro.telemetry`).
        self.telemetry = NULL_TELEMETRY
        #: Fault-injection hooks; same gating discipline as telemetry.
        self.faults = NO_FAULTS
        #: SIMT sanitizer hooks; same gating discipline as telemetry.
        self.sanitizer = NULL_SANITIZER
        #: Deep kernel profiler; same gating discipline as telemetry.
        self.profiler = NULL_PROFILER
        #: Flight recorder (post-mortem ring); same gating discipline.
        self.recorder = NULL_RECORDER
        #: Bounded overflow stash (the CUDA reference's error table);
        #: empty in every fault-free run.
        self.stash = Stash(self.config.stash_capacity)
        self._draining = False
        #: Resize epoch (upsizes + downsizes) of the last drain attempt;
        #: bounds retries to one per completed resize.
        self._drain_epoch = -1

    def set_fault_plan(self, plan: FaultPlan | None) -> FaultPlan:
        """Attach a fault-injection plan (``None`` detaches); returns it.

        With the default :data:`repro.faults.NO_FAULTS` attached the
        table's behaviour is bit-identical to a build without the fault
        layer: every hook is a single attribute check and the stash
        stays empty.
        """
        self.faults = plan if plan is not None else NO_FAULTS
        if self.recorder.enabled and self.faults.enabled:
            self.faults.recorder = self.recorder
        return self.faults

    def set_telemetry(self, telemetry: Telemetry | None) -> Telemetry:
        """Attach a telemetry handle (``None`` detaches); returns it.

        All spans, instants, and metric updates flow into the attached
        handle's tracer and registry from then on.
        """
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        return self.telemetry

    def set_sanitizer(self, sanitizer: Sanitizer | None) -> Sanitizer:
        """Attach a SIMT sanitizer (``None`` detaches); returns it.

        While attached, the kernel engines log lock operations and
        bucket accesses into it and the resize controller brackets its
        subtable locks (see :mod:`repro.sanitizer`).  The null default
        keeps every hook a single attribute check.
        """
        self.sanitizer = sanitizer if sanitizer is not None else NULL_SANITIZER
        if self.recorder.enabled and self.sanitizer.enabled:
            self.sanitizer.recorder = self.recorder
        # The stash reports occupancy into memcheck's stash-overflow
        # check; detaching restores the null default.
        self.stash.sanitizer = self.sanitizer
        return self.sanitizer

    def set_profiler(self, profiler: Profiler | None) -> Profiler:
        """Attach a deep kernel profiler (``None`` detaches); returns it.

        While attached, the kernel engines feed it per-round occupancy
        snapshots, lock grant/conflict events, probe-length and
        eviction-chain-depth observations, and the resize controller
        samples fill factors into it (see
        :mod:`repro.telemetry.profiler`).  The null default keeps every
        hook a single attribute check.
        """
        self.profiler = profiler if profiler is not None else NULL_PROFILER
        return self.profiler

    def set_recorder(self, recorder: FlightRecorder | None) -> FlightRecorder:
        """Attach a flight recorder (``None`` detaches); returns it.

        The recorder keeps a bounded ring of recent events and dumps a
        post-mortem bundle (ring + profiler snapshot + table state) when
        a fault fires, a sanitizer violation is raised, or
        :func:`repro.core.analysis.check_invariants` fails.  Attaching
        also wires the table's current fault plan and sanitizer (if
        enabled) to trip it.
        """
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        if self.recorder.enabled:
            self.recorder.attach(self)
            # Never mutate the shared NO_FAULTS / NULL_SANITIZER
            # singletons — that would leak the recorder globally.
            if self.faults.enabled:
                self.faults.recorder = self.recorder
            if self.sanitizer.enabled:
                self.sanitizer.recorder = self.recorder
        else:
            if self.faults.enabled:
                self.faults.recorder = NULL_RECORDER
            if self.sanitizer.enabled:
                self.sanitizer.recorder = NULL_RECORDER
        return self.recorder

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return sum(st.size for st in self.subtables) + len(self.stash)

    @property
    def num_tables(self) -> int:
        """Number of subtables ``d``."""
        return self.config.num_tables

    @property
    def total_slots(self) -> int:
        """Allocated key slots across all subtables."""
        return sum(st.total_slots for st in self.subtables)

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

    def copy(self) -> "DyCuckooTable":
        """Deep copy: same hash functions, independent storage."""
        import copy as _copy

        clone = DyCuckooTable(self.config)
        clone.pair_hash = _copy.deepcopy(self.pair_hash)
        clone.table_hashes = _copy.deepcopy(self.table_hashes)
        for src, dst in zip(self.subtables, clone.subtables):
            dst.n_buckets = src.n_buckets
            dst.keys = src.keys.copy()
            dst.values = src.values.copy()
            dst.size = src.size
            dst.migration = (src.migration.copy()
                             if src.migration is not None else None)
        clone.stash = self.stash.copy()
        clone._victim_counter = self._victim_counter
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
        """
        return self._traced_op("find", self._find_encoded,
                               EncodedBatch(self, keys))

    def _traced_op(self, name: str, body, batch: EncodedBatch, *args):
        """Run one batched op ``body(batch, *args)`` inside its span."""
        if self.telemetry.enabled:
            with self.telemetry.tracer.span(name, "op", n=len(batch)):
                return body(batch, *args)
        return body(batch, *args)

    def _find_encoded(self, batch: EncodedBatch
                      ) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`find` body over an encoded batch."""
        codes = batch.codes
        n = len(codes)
        self.stats.finds += n
        values = np.zeros(n, dtype=np.uint64)
        if n == 0:
            return values, np.zeros(0, dtype=bool)

        def lookup(t: int, buckets: np.ndarray, sel: np.ndarray):
            hit, vals = self.subtables[t].lookup(buckets, codes[sel])
            values[sel[hit]] = vals[hit]
            return hit

        def stash_lookup(pending: np.ndarray):
            stash_values, hit = self.stash.lookup(codes[pending])
            values[pending[hit]] = stash_values[hit]
            self.stats.stash_hits += int(hit.sum())
            return hit

        found, retried = self._probe(batch, lookup, stash_lookup)
        hits = int(found.sum())
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
        self._traced_op("insert", self._insert_encoded,
                        EncodedBatch(self, keys), values)

    def _insert_encoded(self, batch: EncodedBatch, values) -> None:
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

        updated = self._update_existing(batch, values)
        fresh = np.flatnonzero(~updated)
        self.stats.updates += int(updated.sum())
        if len(fresh):
            fresh_codes = batch.codes[fresh]
            targets = self._router.choose(fresh_codes, batch.first[fresh],
                                          batch.second[fresh],
                                          self.subtable_sizes(),
                                          self.subtable_loads())
            # Each fresh key starts with its target's hash, read from the
            # batch cache the update probe already filled.
            raw = np.empty(len(fresh), dtype=np.uint32)
            for t in range(self.num_tables):
                into = np.flatnonzero(targets == t)
                if len(into):
                    raw[into] = batch.raw(t)[fresh[into]]
            self._insert_pending(fresh_codes, values[fresh], targets, raw,
                                 excluded=None)
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
        return self._traced_op("delete", self._delete_encoded,
                               EncodedBatch(self, keys))

    def _delete_encoded(self, batch: EncodedBatch) -> np.ndarray:
        """:meth:`delete` body over an encoded batch."""
        n = len(batch)
        self.stats.deletes += n
        removed = np.zeros(n, dtype=bool)
        if n == 0:
            return removed
        # Duplicate keys in one delete batch: only the first occurrence
        # can observe (and clear) the entry.
        unique_idx = np.flatnonzero(first_occurrence_mask(batch.codes))
        unique = batch[unique_idx]
        codes = unique.codes

        def erase(t: int, buckets: np.ndarray, sel: np.ndarray):
            erased = self.subtables[t].erase(buckets, codes[sel])
            self.stats.bucket_writes += int(erased.sum())
            return erased

        removed_unique, _ = self._probe(
            unique, erase, lambda pending: self.stash.erase(codes[pending]))
        removed[unique_idx] = removed_unique
        self.stats.delete_hits += int(removed_unique.sum())
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
        """Manually halve the largest subtable (Section IV-D)."""
        self._resizer.downsize()
        if len(self.stash):
            self._drain_stash()

    # ------------------------------------------------------------------
    # Internal machinery
    # ------------------------------------------------------------------

    def bucket_for(self, t: int, codes: np.ndarray) -> np.ndarray:
        """Bucket indices for ``codes`` in subtable ``t``, epoch-aware.

        Hashes ``codes`` and resolves them through :meth:`bucket_of_raw`;
        the kernel engines' bucket-resolution point.  The host path
        carries raw hashes and calls :meth:`bucket_of_raw` directly.
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

    def _drain_migration(self) -> int:
        """Batch-end hook: advance any open resize epoch by one slice."""
        return self._resizer.drain_migration()

    def finalize_resizes(self) -> int:
        """Complete any open migration epoch now; returns pairs moved.

        Needed before operations that assume settled geometry
        (persistence snapshots); harmless no-op otherwise.
        """
        return self._resizer.finalize_migration()

    def _probe(self, batch: EncodedBatch, op, stash_op
               ) -> tuple[np.ndarray, int]:
        """Grouped two-bucket probe, then the stash for keys still missed.

        ``op`` serves the bucket probes (see :meth:`EncodedBatch.probe`);
        ``stash_op(pending)`` serves the positions both buckets missed
        and returns the mask of those the stash hit.  Counts one bucket
        read per probe and one chain hop per second-bucket probe.
        Returns the hit mask and the number of second-bucket probes.
        """
        hit, retried = batch.probe(op)
        self.stats.bucket_reads += len(batch) + retried
        self.stats.chain_hops += retried
        if len(self.stash):
            pending = np.flatnonzero(~hit)
            if len(pending):
                hit[pending[stash_op(pending)]] = True
        return hit, retried

    def _update_existing(self, batch: EncodedBatch,
                         values: np.ndarray) -> np.ndarray:
        """Overwrite values of keys already stored; return updated mask."""
        codes = batch.codes

        def update(t: int, buckets: np.ndarray, sel: np.ndarray):
            upd = self.subtables[t].update_existing(buckets, codes[sel],
                                                    values[sel])
            self.stats.bucket_writes += int(upd.sum())
            return upd

        updated, _ = self._probe(
            batch, update,
            lambda pending: self.stash.update(codes[pending],
                                              values[pending]))
        return updated

    def _insert_pending(self, codes: np.ndarray, values: np.ndarray,
                        targets: np.ndarray, raw: np.ndarray,
                        excluded: int | None,
                        stall_to_stash: bool = False) -> None:
        """Round-synchronous cuckoo insertion of fresh keys.

        ``targets[i]`` is the subtable each key currently attempts and
        ``raw[i]`` its raw hash under that subtable's function, or
        :data:`~repro.core.hashing.UNHASHED` when not yet computed.  A
        key is hashed once per target: retries keep their hash, and an
        evicted victim enters the next round unhashed.  When
        ``excluded`` is set (downsize residual spill), eviction victims
        whose alternate is the excluded subtable are never chosen and the
        eviction budget exhaustion raises :class:`ResizeError` instead of
        upsizing — unless ``stall_to_stash`` is also set (migration-slice
        spill), in which case the pending keys are parked in the overflow
        stash so an incremental slice never unwinds table state.
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
                        if stall_to_stash:
                            self._stash_pending(
                                codes, values,
                                reason="injected eviction-chain exhaustion "
                                       "during migration-slice spill")
                            return
                        raise ResizeError(
                            "injected eviction-chain exhaustion during "
                            "residual spill"
                        )
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
                while ((len(self) + len(codes)) / self.total_slots
                       > self.config.beta):
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
            round_evictions = 0
            next_codes: list[np.ndarray] = []
            next_values: list[np.ndarray] = []
            next_targets: list[np.ndarray] = []
            next_raw: list[np.ndarray] = []
            next_depths: list[np.ndarray] = []
            for t in range(self.num_tables):
                sel = np.flatnonzero(targets == t)
                if len(sel) == 0:
                    continue
                st = self.subtables[t]
                sel_codes = codes[sel]
                sel_values = values[sel]
                sel_raw = raw[sel]
                todo = np.flatnonzero(sel_raw == UNHASHED)
                if len(todo):
                    sel_raw[todo] = self.table_hashes[t].raw(sel_codes[todo])
                buckets = self.bucket_of_raw(t, sel_raw)
                self.stats.bucket_reads += len(sel)
                # One bucket-lock CAS per operation; collisions estimated
                # from device occupancy (only resident warps contend).
                conflicts = estimate_lock_conflicts(len(sel), st.n_buckets)
                self.stats.lock_acquisitions += len(sel)
                self.stats.lock_conflicts += conflicts
                if traced:
                    tel.metrics.counter("lock.acquisitions").inc(len(sel))
                    tel.metrics.counter("lock.conflicts").inc(conflicts)
                    retry_hist.observe(conflicts)
                    tel.tracer.instant("lock.acquire", "lock", subtable=t,
                                       requests=len(sel), conflicts=conflicts)
                if prof.enabled:
                    # Attribute the per-bucket lock grants to the
                    # contention heatmap (bucket < 2^40, so + == |).
                    prof.lock_grants_many(buckets.astype(np.int64)
                                          + (t << 40))
                placed, full_leader = st.place_round(buckets, sel_codes,
                                                     sel_values)
                self.stats.bucket_writes += int(placed.sum())

                ev = np.flatnonzero(full_leader)
                mig = st.migration
                if (len(ev) and excluded is None and mig is not None
                        and mig.kind == "upsize"):
                    # Migrate-on-access: a full bucket in an upsizing
                    # subtable gets split to its post-resize view instead
                    # of evicting — the blocked keys retry next round
                    # against the (half-empty) migrated pair.
                    ev_pairs = (buckets[ev].astype(np.int64)
                                & np.int64(mig.num_pairs - 1))
                    unmig = ~mig.migrated[ev_pairs]
                    if np.any(unmig):
                        self._resizer.migrate_on_access(
                            t, np.unique(ev_pairs[unmig]))
                        full_leader[ev[unmig]] = False
                        ev = ev[~unmig]
                good = np.zeros(0, dtype=np.int64)
                if len(ev):
                    ev_buckets = buckets[ev]
                    slots, ok, victim_alts = self._choose_victims(
                        t, ev_buckets, excluded)
                    good = np.flatnonzero(ok)
                    if len(good):
                        old_codes, old_values = st.swap_slot(
                            ev_buckets[good], slots[good],
                            sel_codes[ev[good]], sel_values[ev[good]])
                        self.stats.evictions += len(good)
                        self.stats.bucket_writes += len(good)
                        round_evictions += len(good)
                        next_codes.append(old_codes)
                        next_values.append(old_values)
                        next_targets.append(victim_alts[good])
                        next_raw.append(unhashed(len(good)))
                        if track_depths:
                            next_depths.append(depths[sel[ev[good]]] + 1)
                    # Eviction leaders without an eligible victim retry.
                    full_leader[ev[~ok]] = False

                retry = ~(placed | full_leader)
                if np.any(retry):
                    next_codes.append(sel_codes[retry])
                    next_values.append(sel_values[retry])
                    next_targets.append(np.full(int(retry.sum()), t,
                                                dtype=np.int64))
                    next_raw.append(sel_raw[retry])
                    if track_depths:
                        next_depths.append(depths[sel[retry]])
                if track_depths:
                    done = placed | full_leader
                    if np.any(done):
                        if traced:
                            chain_hist.observe_many(depths[sel[done]])
                        if prof.enabled:
                            prof.observe_chains(depths[sel[done]])
            if traced:
                tel.metrics.counter("eviction.rounds").inc()
                tel.metrics.counter("evictions").inc(round_evictions)
                tel.tracer.instant(
                    "evict.round", "insert", pending=before_pending,
                    evictions=round_evictions,
                    carried=sum(len(c) for c in next_codes))
            if next_codes:
                codes = np.concatenate(next_codes)
                values = np.concatenate(next_values)
                targets = np.concatenate(next_targets)
                raw = np.concatenate(next_raw)
                if track_depths:
                    depths = (np.concatenate(next_depths) if next_depths
                              else np.zeros(0, dtype=np.int64))
            else:
                codes = np.zeros(0, dtype=np.uint64)
                values = np.zeros(0, dtype=np.uint64)
                targets = np.zeros(0, dtype=np.int64)
                raw = unhashed(0)
                if track_depths:
                    depths = np.zeros(0, dtype=np.int64)

            if len(codes) >= before_pending:
                rounds_since_progress += 1
            else:
                rounds_since_progress = 0
            if rounds_since_progress >= self.config.max_eviction_rounds:
                if excluded is not None:
                    if stall_to_stash:
                        self._stash_pending(
                            codes, values,
                            reason="migration-slice spill stalled while the "
                                   "downsizing subtable is excluded")
                        return
                    raise ResizeError(
                        "residual spill stalled while a subtable is locked "
                        "for downsizing"
                    )
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
        n_absorbed = int(absorbed.sum())
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
            self._insert_pending(codes, values, targets,
                                 unhashed(len(codes)), excluded=None)
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
        drained = before - len(self.stash)
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

    def _choose_victims(self, table_idx: int, buckets: np.ndarray,
                        excluded: int | None
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Pick one eviction victim per (full) bucket.

        Victims rotate deterministically around the bucket so repeated
        evictions do not thrash the same slot.  With ``excluded`` set,
        only occupants whose alternate subtable differs from ``excluded``
        are eligible.

        Returns ``(slots, ok, alternates)`` — the chosen slot per bucket,
        whether an eligible victim exists, and the victim's alternate
        subtable.
        """
        st = self.subtables[table_idx]
        cap = st.bucket_capacity
        m = len(buckets)
        bucket_keys = st.bucket_keys(buckets)                 # (m, cap), full
        flat = bucket_keys.ravel()
        current = np.full(len(flat), table_idx, dtype=np.int64)
        alternates = self.pair_hash.alternate_table(flat, current).reshape(m, cap)
        if excluded is None:
            eligible = np.ones((m, cap), dtype=bool)
        else:
            eligible = alternates != excluded
        # Theorem-1-guided choice (Section V-A: "one can pick a KV pair
        # for re-insertion into a desired hash table based on the
        # balancing strategy"): prefer the occupant whose alternate
        # subtable currently has the best routing weight, so evictions
        # drain toward the least-loaded subtables — this is where a
        # larger d pays off for insertion.
        weights = distribution.theorem1_weights(self.subtable_sizes(),
                                                self.subtable_loads())
        preference = weights[alternates]                      # (m, cap)
        # Random tie-breaking jitter: victims must still be effectively
        # random or dense eviction cycles persist for hundreds of
        # rounds (random-walk cuckoo).  A multiplicative hash of
        # (event counter, bucket, slot) provides the jitter without an
        # RNG stream.
        self._victim_counter += 1
        nonce = (self._victim_counter * 0x9E3779B97F4A7C15) & 0xFFFFFFFFFFFFFFFF
        mixed = (np.uint64(nonce)
                 + buckets.astype(np.uint64)[:, None] * np.uint64(0xBF58476D1CE4E5B9)
                 + np.arange(cap, dtype=np.uint64)[None, :] * np.uint64(0x94D049BB133111EB))
        jitter = ((mixed >> np.uint64(40)).astype(np.float64)
                  / float(1 << 24))                           # [0, 1)
        score = preference * (0.5 + jitter)
        score = np.where(eligible, score, -1.0)
        slots = score.argmax(axis=1)
        ok = eligible[np.arange(m), slots]
        return slots, ok, alternates[np.arange(m), slots]
