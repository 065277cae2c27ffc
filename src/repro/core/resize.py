"""Subtable resizing policy (Sections IV-B and IV-D).

The policy keeps the global filled factor ``theta`` inside the user range
``[alpha, beta]`` while only ever touching one subtable:

* **Upsize** — double the *smallest* subtable.  Because bucket counts are
  powers of two and bucket indices are low hash bits, an entry in bucket
  ``loc`` moves to ``loc`` or ``loc + old_n``: a conflict-free scatter
  needing no locks (Figure 4).
* **Downsize** — halve the *largest* subtable.  Buckets ``loc`` and
  ``loc + new_n`` merge into ``loc``; entries beyond bucket capacity are
  *residuals*, spilled into the other subtables with the downsizing
  subtable excluded from the eviction graph.

The invariant that no subtable exceeds twice the size of any other is a
consequence of always picking the extreme subtable and is asserted by
:meth:`repro.core.table.DyCuckooTable.validate`.

A failed residual spill (possible in adversarial corner cases) rolls the
downsize back from a snapshot, so downsizing is all-or-nothing.

When a :class:`~repro.faults.FaultPlan` is attached to the table, every
resize consults it at four lifecycle stages — ``trigger`` (before
anything happens), ``plan`` (target picked, nothing mutated), ``rehash``
(storage already rebuilt) and ``spill`` (residual relocation) — and an
injected abort raises :class:`~repro.errors.ResizeError` after rolling
any mutation back from a :class:`_TableSnapshot`.  Resizes are therefore
all-or-nothing even under injected failure at the worst possible moment.

**Incremental migration epochs** (``config.incremental_resize``, the
DHash-style extension): automatic resizes do not rehash inside the
triggering batch.  :meth:`ResizeController.open_upsize_epoch` /
:meth:`~ResizeController.open_downsize_epoch` switch the target
subtable to its new geometry immediately (so capacity and ``theta``
respond at once) and leave a
:class:`~repro.core.subtable.MigrationState` behind; entries then move
one *bucket pair* at a time through
:meth:`~ResizeController.drain_migration` (a bounded batch-end budget)
and :meth:`~ResizeController.migrate_on_access` (an insert that finds a
full, unmigrated bucket splits it instead of evicting).  Probes stay
correct throughout because
:meth:`repro.core.table.DyCuckooTable.bucket_for` resolves every key to
its pre- or post-resize bucket via the epoch check.  Under injected
faults a slice aborts *alone* — the epoch stays open, the dual view
keeps every key reachable, and a later batch retries.  Manual
:meth:`upsize`/:meth:`downsize` keep the one-shot all-or-nothing
semantics above (finalizing any open epoch first).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.core.grouping import rank_within_group
from repro.core.hashing import UniversalHash, unhashed
from repro.core.subtable import EMPTY
from repro.errors import CapacityError, ResizeError
from repro.sanitizer import NULL_SANITIZER

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.table import DyCuckooTable

_SITE_UPSIZE = "repro/core/resize.py:ResizeController.upsize"
_SITE_DOWNSIZE = "repro/core/resize.py:ResizeController.downsize"
_SITE_MIGRATE = "repro/core/resize.py:ResizeController._migrate_slice"
_SITE_FINISH = "repro/core/resize.py:ResizeController._finish_epoch"


class ResizeController:
    """Owns the resize policy for one :class:`DyCuckooTable`."""

    def __init__(self, table: "DyCuckooTable") -> None:
        self._table = table
        # Round-robin position for fair budget sharing across
        # concurrently open migration epochs (see drain_migration).
        self._drain_cursor = 0

    # ------------------------------------------------------------------
    # Bound enforcement
    # ------------------------------------------------------------------

    def enforce_bounds(self) -> None:
        """Upsize/downsize until ``theta`` is inside ``[alpha, beta]``.

        Downsizing stops early when every subtable is at minimum size or
        when halving the largest would overshoot ``beta``.  A
        :class:`CapacityError` from the ``max_total_slots`` ceiling is
        absorbed like an injected abort — the triggering batch already
        landed, so the table simply stays above ``beta`` (recorded in
        ``stats.capacity_blocked``) until deletes make room; the error
        keeps raising only on the insert-stall path, where the insert
        genuinely cannot proceed without the doubling.
        """
        table = self._table
        config = table.config
        tel = table.telemetry
        while table.total_slots and table.load_factor > config.beta:
            if tel.enabled:
                tel.tracer.instant("resize.trigger", "resize",
                                   reason="theta>beta",
                                   theta=table.load_factor)
            try:
                self.upsize_auto()
            except ResizeError:
                # Injected abort: theta stays above beta for now; the
                # next mutating batch re-enters this loop and retries.
                break
            except CapacityError:
                # The ceiling blocks the doubling.  The batch that got
                # theta here has already landed — failing it now would
                # report failure for keys that were stored successfully.
                table.stats.capacity_blocked += 1
                if tel.enabled:
                    tel.tracer.instant("resize.capacity_blocked", "resize",
                                       theta=table.load_factor,
                                       ceiling=config.max_total_slots)
                break
        while table.load_factor < config.alpha:
            if tel.enabled:
                tel.tracer.instant("resize.trigger", "resize",
                                   reason="theta<alpha",
                                   theta=table.load_factor)
            target = self._pick_downsize_target()
            if target is None:
                break
            largest = table.subtables[target]
            projected_slots = table.total_slots - largest.total_slots // 2
            if projected_slots and len(table) / projected_slots > config.beta:
                break
            try:
                self.downsize_auto()
            except ResizeError:
                break

    def upsize_for_insert_failure(self) -> None:
        """Upsize in response to a stalled insert.

        By default performs a single doubling, matching the paper.  With
        ``anticipatory_upsize`` (our future-work extension), doublings
        repeat until the projected filled factor reaches the midpoint of
        ``[alpha, beta]``, avoiding the repeated upsize cascades the
        paper observes in Figure 12.  Only the first doubling is
        mandatory: an error on an anticipatory extra doubling (ceiling
        reached, injected abort) stops the anticipation and lets the
        insert retry against the capacity the first doubling created.

        The mandatory doubling always completes synchronously, even
        under ``incremental_resize``: a stalled insert needs empty
        slots *now*, and an epoch that migrates lazily would leave the
        pending keys spinning eviction rounds against pre-resize bucket
        density.  Only bound-driven resizes (``enforce_bounds`` and the
        pre-round beta check), where nothing is blocked waiting, are
        spread across batches.
        """
        table = self._table
        if table.telemetry.enabled:
            table.telemetry.tracer.instant("resize.trigger", "resize",
                                           reason="insert_stall",
                                           theta=table.load_factor)
        self.upsize_under_pressure()
        if not table.config.anticipatory_upsize:
            return
        midpoint = (table.config.alpha + table.config.beta) / 2.0
        while table.load_factor > midpoint:
            try:
                self.upsize_auto()
            except (ResizeError, CapacityError):
                break

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------

    def _fire_abort(self, stage: str,
                    snapshot: "_TableSnapshot | None" = None) -> None:
        """Abort the running resize if the fault plan says so.

        With ``snapshot`` given, storage is restored before raising —
        the already-mutated stages (``rehash``) stay all-or-nothing.
        Callers gate on ``table.faults.enabled`` so the fault-free path
        pays one attribute check.
        """
        table = self._table
        fault = table.faults.fire(f"resize.abort.{stage}")
        if fault is None:
            return
        if snapshot is not None:
            snapshot.restore(table)
        table.stats.resize_aborts += 1
        if table.telemetry.enabled:
            table.telemetry.tracer.instant(
                "fault.inject", "fault", site=fault.site, index=fault.index,
                rolled_back=snapshot is not None)
            table.telemetry.metrics.counter("faults.injected").inc()
        raise ResizeError(
            f"injected resize abort at {stage} stage"
            + (" (rolled back)" if snapshot is not None else ""))

    # ------------------------------------------------------------------
    # Incremental migration epochs (DHash-style)
    # ------------------------------------------------------------------

    def _open_epochs(self) -> list[int]:
        """Subtables with an open migration epoch (possibly several).

        Epochs on *different* subtables coexist — a growth cascade
        doubles each subtable in turn, and forcing the previous epoch
        to finish before the next opens would re-serialize the rehash
        into the triggering batch.  A subtable never has two epochs at
        once, and migration slices still lock one subtable at a time,
        so the sanitizer's one-subtable contract holds per slice.
        """
        return [idx for idx, st in enumerate(self._table.subtables)
                if st.migration is not None]

    def upsize_auto(self) -> int:
        """Upsize on an automatic trigger: incremental epoch or one-shot."""
        if self._table.config.incremental_resize:
            return self.open_upsize_epoch()
        return self.upsize()

    def downsize_auto(self) -> int:
        """Downsize on an automatic trigger: incremental epoch or one-shot."""
        if self._table.config.incremental_resize:
            return self.open_downsize_epoch()
        return self.downsize()

    def upsize_under_pressure(self) -> int:
        """Upsize while inserts are pending: the epoch drains at once.

        Laziness only pays when nothing is waiting on the new capacity.
        A doubling triggered *mid-insert* (the pre-round beta check or a
        stalled eviction chain) has pending keys that would otherwise
        spin further rounds against pre-resize bucket density — the
        unmigrated half of a lazy epoch is exactly as full as before the
        resize — so the epoch is finalized immediately.  Bound-driven
        resizes between batches (:meth:`enforce_bounds`) stay lazy.
        """
        target = self.upsize_auto()
        if self._table.config.incremental_resize:
            self._finalize_one(target)
        return target

    def open_upsize_epoch(self) -> int:
        """Open a doubling epoch on the smallest subtable; returns it.

        Capacity (and therefore ``theta``) responds immediately — the
        subtable adopts its doubled geometry before this returns — but
        no entry moves: migration is deferred to bounded per-batch
        slices, so the triggering batch pays an allocation instead of a
        rehash.  Fault stages ``trigger``/``plan``/``rehash`` fire here
        (``rehash`` after the storage grew, rolled back from a
        snapshot); ``spill`` cannot occur at open.
        """
        table = self._table
        tracer = table.telemetry.tracer
        faulty = table.faults.enabled
        if faulty:
            self._fire_abort("trigger")
        with tracer.span("resize.upsize_epoch", "resize"):
            with tracer.span("resize.plan", "resize"):
                target = self._pick_upsize_target()
                st = table.subtables[target]
                if st.migration is not None:
                    # A subtable holds one epoch at a time: the target's
                    # own unfinished epoch (and only that one) must
                    # drain before its geometry changes again.
                    self._finalize_one(target)
                ceiling = table.config.max_total_slots
                if ceiling and table.total_slots + st.total_slots > ceiling:
                    raise CapacityError(
                        f"upsizing subtable {target} would exceed "
                        f"max_total_slots={ceiling} (currently "
                        f"{table.total_slots} slots, "
                        f"{len(table)} live entries)")
            if faulty:
                self._fire_abort("plan")
            snapshot = _TableSnapshot(table) if faulty else None
            san = getattr(table, "sanitizer", NULL_SANITIZER)
            if san.enabled:
                san.on_subtable_lock(target, "upsize", site=_SITE_UPSIZE)
            try:
                mig = st.begin_upsize_epoch()
                if faulty:
                    self._fire_abort("rehash", snapshot=snapshot)
            finally:
                if san.enabled:
                    san.on_subtable_unlock(target, site=_SITE_UPSIZE)
            table.stats.upsizes += 1
            if table.telemetry.enabled:
                table.telemetry.metrics.counter("resize.upsizes").inc()
                tracer.instant("resize.epoch_open", "resize",
                               subtable=target, kind="upsize",
                               pairs=mig.num_pairs)
            if table.profiler.enabled:
                table.profiler.sample_fill("upsize", table)
            if table.recorder.enabled:
                table.recorder.record("resize.epoch_open", subtable=target,
                                      direction="upsize",
                                      pairs=mig.num_pairs)
        return target

    def open_downsize_epoch(self) -> int:
        """Open a halving epoch on the largest subtable; returns it.

        The logical geometry halves immediately (so ``theta`` recovers
        at once); upper buckets merge down pair by pair in later slices,
        and only :meth:`~repro.core.subtable.Subtable.finish_migration`
        releases the physical rows.  Residual spills happen per slice,
        not here.
        """
        table = self._table
        tracer = table.telemetry.tracer
        faulty = table.faults.enabled
        if faulty:
            self._fire_abort("trigger")
        with tracer.span("resize.downsize_epoch", "resize"):
            with tracer.span("resize.plan", "resize"):
                target = self._pick_downsize_target()
                if target is None:
                    raise ResizeError(
                        "no subtable can be downsized (all at min_buckets)"
                    )
                st = table.subtables[target]
                if st.migration is not None:
                    self._finalize_one(target)
            if faulty:
                self._fire_abort("plan")
            snapshot = _TableSnapshot(table) if faulty else None
            san = getattr(table, "sanitizer", NULL_SANITIZER)
            if san.enabled:
                san.on_subtable_lock(target, "downsize", site=_SITE_DOWNSIZE)
            try:
                mig = st.begin_downsize_epoch()
                if faulty:
                    self._fire_abort("rehash", snapshot=snapshot)
            finally:
                if san.enabled:
                    san.on_subtable_unlock(target, site=_SITE_DOWNSIZE)
            table.stats.downsizes += 1
            if table.telemetry.enabled:
                table.telemetry.metrics.counter("resize.downsizes").inc()
                tracer.instant("resize.epoch_open", "resize",
                               subtable=target, kind="downsize",
                               pairs=mig.num_pairs)
            if table.profiler.enabled:
                table.profiler.sample_fill("downsize", table)
            if table.recorder.enabled:
                table.recorder.record("resize.epoch_open", subtable=target,
                                      direction="downsize",
                                      pairs=mig.num_pairs)
        return target

    def drain_migration(self, max_pairs: int | None = None) -> int:
        """Advance open epochs by one bounded slice; returns pairs moved.

        The batch-end hook: every public batched operation drains up to
        ``config.migration_budget`` pairs (0 = an eighth of the largest
        open epoch, at least 32).  The budget is a *per-batch total*,
        shared round-robin across however many epochs are open —
        concurrent epochs must not multiply the tax, or a churn wave
        that opens four epochs would hand the next batch four slices
        and recreate the spike the epochs exist to avoid.  An injected
        ``resize.abort.rehash`` skips one epoch's share (counted, the
        epoch stays open); the dual view keeps every key reachable
        regardless.
        """
        table = self._table
        epochs = self._open_epochs()
        if not epochs:
            return 0
        if max_pairs is not None:
            budget = max_pairs
        else:
            open_migs = [mig for t in epochs
                         if (mig := table.subtables[t].migration)
                         is not None]
            budget = table.config.migration_budget or max(
                32, max(mig.num_pairs for mig in open_migs) // 8)
        # Rotate the starting epoch so a small budget still makes
        # progress on every epoch over consecutive batches.
        cursor = self._drain_cursor % len(epochs)
        self._drain_cursor += 1
        moved = 0
        for target in epochs[cursor:] + epochs[:cursor]:
            if moved >= budget:
                break
            st = table.subtables[target]
            mig = st.migration
            if mig is None:  # pragma: no cover - epochs listed while open
                continue
            pairs = np.flatnonzero(~mig.migrated)[:budget - moved]
            if len(pairs) == 0:  # pragma: no cover - closed when drained
                self._finish_epoch(target, st)
                continue
            if table.faults.enabled:
                try:
                    self._fire_abort("rehash")
                except ResizeError:
                    continue
            moved += self._migrate_slice(target, pairs, reason="budget")
        return moved

    def migrate_on_access(self, target: int, pairs: np.ndarray) -> int:
        """Migrate specific pairs an operation needs right now.

        Used by the insert path when a placement lands on a full,
        unmigrated bucket of an upsizing subtable: splitting the bucket
        pair relieves the pressure exactly where it appeared, instead of
        starting an eviction chain against pre-resize density.
        """
        return self._migrate_slice(target, np.asarray(pairs, dtype=np.int64),
                                   reason="access")

    def finalize_migration(self) -> int:
        """Drain every open epoch to completion (manual resizes, saves)."""
        return sum(self._finalize_one(target)
                   for target in self._open_epochs())

    def _finish_epoch(self, target: int, st) -> None:
        """Close ``target``'s completed epoch.

        A downsize finalize truncates the physical arrays back to the
        new view, retiring the epoch's source rows — memcheck is told
        first, so a stale dual-view access afterwards is attributed as
        ``use-after-retire`` instead of a bare ``oob-access``.
        """
        mig = st.migration
        san = self._table.sanitizer
        if san.enabled and mig is not None and mig.kind == "downsize":
            san.on_epoch_retire(self._table, target, mig.old_n,
                                mig.new_n, site=_SITE_FINISH)
        st.finish_migration()

    def _finalize_one(self, target: int) -> int:
        """Drain one subtable's epoch to completion; returns pairs moved."""
        st = self._table.subtables[target]
        moved = 0
        while st.migration is not None:
            mig = st.migration
            pairs = np.flatnonzero(~mig.migrated)
            if len(pairs) == 0:
                self._finish_epoch(target, st)
                break
            moved += self._migrate_slice(target, pairs, reason="finalize")
        return moved

    def _migrate_slice(self, target: int, pairs: np.ndarray,
                       reason: str) -> int:
        """Move the entries of ``pairs`` to their new-view buckets.

        Upsize: entries of bucket ``s`` whose post-resize bucket is
        ``s + old_n`` scatter up (conflict-free, Figure 4).  Downsize:
        bucket ``s + new_n`` merges into ``s``; entries beyond capacity
        are residuals, spilled to their alternate subtables with this
        subtable excluded — and parked in the stash if even the spill
        stalls, so a slice never loses a key.  The sanitizer lock
        brackets exactly this slice (the one-subtable contract holds
        *per batch*, not across the epoch).  Charges the cost model 1
        read + 2 writes per upsize pair and 2 reads + 1 write per
        downsize pair — summed over the epoch, exactly the one-shot
        totals, just spread across batches.
        """
        table = self._table
        st = table.subtables[target]
        mig = st.migration
        assert mig is not None, "migrate slice on a subtable with no epoch"
        pairs = np.asarray(pairs, dtype=np.int64)
        up = mig.kind == "upsize"
        src_buckets = pairs if up else pairs + mig.new_n

        san = getattr(table, "sanitizer", NULL_SANITIZER)
        if san.enabled:
            san.on_subtable_lock(target, "migrate", site=_SITE_MIGRATE)
        try:
            examined = 0
            if not up:
                examined += int(np.count_nonzero(st.keys[pairs] != EMPTY))
            src_keys = st.keys[src_buckets]                    # (p, cap)
            occupied = src_keys != EMPTY
            examined += int(np.count_nonzero(occupied))
            row_idx, slot_idx = np.nonzero(occupied)
            codes = src_keys[row_idx, slot_idx]
            if up:
                raw = table.table_hashes[target].raw(codes)
                dest = UniversalHash.bucket_from_raw(raw, mig.new_n)
                move = dest != src_buckets[row_idx]
            else:
                dest = pairs[row_idx]
                move = np.ones(len(codes), dtype=bool)

            mv_rows = row_idx[move]
            mv_slots = slot_idx[move]
            mv_codes = codes[move]
            mv_values = st.values[src_buckets[mv_rows], mv_slots]
            mv_dest = dest[move]
            residual_codes = np.zeros(0, dtype=np.uint64)
            residual_values = np.zeros(0, dtype=np.uint64)
            if len(mv_codes):
                st.keys[src_buckets[mv_rows], mv_slots] = EMPTY
                st.size -= len(mv_codes)
                ranks, unique_dest, inverse = rank_within_group(mv_dest)
                free_mask = st.keys[unique_dest] == EMPTY
                free_counts = free_mask.sum(axis=1)
                fits = ranks < free_counts[inverse]
                if np.any(fits):
                    fit_rows = free_mask[inverse[fits]]
                    running = fit_rows.cumsum(axis=1)
                    slot_target = (ranks[fits] + 1)[:, None]
                    dslots = (running == slot_target).argmax(axis=1)
                    st.keys[mv_dest[fits], dslots] = mv_codes[fits]
                    st.values[mv_dest[fits], dslots] = mv_values[fits]
                    st.size += int(fits.sum())
                residual_codes = mv_codes[~fits]
                residual_values = mv_values[~fits]

            mig.migrated[pairs] = True
            mig.pending -= len(pairs)
            table.stats.migration_slices += 1
            table.stats.migrated_pairs += len(pairs)
            table.stats.rehashed_entries += examined
            table.stats.bucket_reads += len(pairs) * (1 if up else 2)
            table.stats.bucket_writes += len(pairs) * (2 if up else 1)

            if len(residual_codes):
                table.stats.residuals += len(residual_codes)
                self._spill_residuals(target, residual_codes, residual_values)
        finally:
            if san.enabled:
                san.on_subtable_unlock(target, site=_SITE_MIGRATE)

        if table.telemetry.enabled:
            table.telemetry.tracer.instant(
                "resize.migrate", "resize", subtable=target, reason=reason,
                pairs=len(pairs), moved=int(len(mv_codes)),
                remaining=mig.pending)
            table.telemetry.metrics.counter(
                "resize.rehashed_entries").inc(examined)
            table.telemetry.metrics.counter(
                "resize.migrated_pairs").inc(len(pairs))
        if table.profiler.enabled:
            table.profiler.sample_fill("migrate", table)
        if table.recorder.enabled:
            table.recorder.record("resize.migrate", subtable=target,
                                  reason=reason, pairs=len(pairs),
                                  remaining=mig.pending)
        if mig.complete:
            self._finish_epoch(target, st)
            if table.telemetry.enabled:
                table.telemetry.tracer.instant("resize.epoch_complete",
                                               "resize", subtable=target,
                                               kind=mig.kind)
            if table.recorder.enabled:
                table.recorder.record("resize.epoch_complete",
                                      subtable=target, direction=mig.kind)
        return len(pairs)

    def _spill_residuals(self, target: int, codes: np.ndarray,
                         values: np.ndarray) -> None:
        """Relocate merge residuals of one slice, never losing a key.

        An injected ``resize.abort.spill`` degrades the slice to the
        stash (counted as an abort) instead of unwinding the epoch —
        with the dual view there is nothing to unwind, and the stash
        already is the sanctioned degraded home for keys the table
        cannot place right now.
        """
        table = self._table
        if table.faults.enabled:
            fault = table.faults.fire("resize.abort.spill")
            if fault is not None:
                table.stats.resize_aborts += 1
                if table.telemetry.enabled:
                    table.telemetry.tracer.instant(
                        "fault.inject", "fault", site=fault.site,
                        index=fault.index, rolled_back=False)
                    table.telemetry.metrics.counter("faults.injected").inc()
                table._stash_pending(
                    codes, values,
                    reason="injected spill abort during migration slice")
                return
        current = np.full(len(codes), target, dtype=np.int64)
        alternates = table.pair_hash.alternate_table(codes, current)
        table._insert_pending(codes, values, alternates,
                              unhashed(len(codes)), excluded=target,
                              stall_to_stash=True)

    # ------------------------------------------------------------------
    # Single-subtable resizes
    # ------------------------------------------------------------------

    def _pick_upsize_target(self) -> int:
        """Index of the smallest subtable (ties: lowest index)."""
        sizes = [st.n_buckets for st in self._table.subtables]
        return int(np.argmin(sizes))

    def _pick_downsize_target(self) -> int | None:
        """Index of the largest shrinkable subtable, or ``None``."""
        table = self._table
        best = None
        best_size = -1
        for idx, st in enumerate(table.subtables):
            if st.n_buckets <= table.config.min_buckets:
                continue
            if st.n_buckets > best_size:
                best = idx
                best_size = st.n_buckets
        return best

    def upsize(self) -> int:
        """Double the smallest subtable; returns its index.

        The rehash is conflict-free: every entry either stays in its
        bucket or moves to ``bucket + old_n`` according to one additional
        hash bit, so distinct source buckets can never collide.  Growth
        past ``max_total_slots`` raises :class:`CapacityError` — the
        backstop against workloads no amount of doubling can absorb.
        """
        table = self._table
        tracer = table.telemetry.tracer
        faulty = table.faults.enabled
        if faulty:
            self._fire_abort("trigger")
        self.finalize_migration()
        with tracer.span("resize.upsize", "resize"):
            with tracer.span("resize.plan", "resize"):
                target = self._pick_upsize_target()
                st = table.subtables[target]
                ceiling = table.config.max_total_slots
                if ceiling and table.total_slots + st.total_slots > ceiling:
                    raise CapacityError(
                        f"upsizing subtable {target} would exceed "
                        f"max_total_slots={ceiling} (currently "
                        f"{table.total_slots} slots, "
                        f"{len(table)} live entries)")
            if faulty:
                self._fire_abort("plan")
            snapshot = _TableSnapshot(table) if faulty else None
            # The paper's one-subtable guarantee: a resize locks exactly
            # its target subtable for the mutating stages.  The bracket
            # is try/finally so an injected rehash abort still releases
            # — a leak here wedges the subtable for every later resize.
            san = getattr(table, "sanitizer", NULL_SANITIZER)
            if san.enabled:
                san.on_subtable_lock(target, "upsize", site=_SITE_UPSIZE)
            try:
                with tracer.span("resize.rehash", "resize", subtable=target,
                                 old_buckets=st.n_buckets,
                                 new_buckets=st.n_buckets * 2):
                    codes, values, _old_buckets = st.export_entries()
                    new_n = st.n_buckets * 2
                    new_buckets = table.table_hashes[target].bucket(codes,
                                                                    new_n)
                    st.rebuild(new_n, codes, values, new_buckets)
                    if faulty:
                        self._fire_abort("rehash", snapshot=snapshot)
                table.stats.upsizes += 1
                table.stats.rehashed_entries += len(codes)
                # One coalesced read + write per touched bucket pair.
                table.stats.bucket_reads += st.n_buckets // 2
                table.stats.bucket_writes += st.n_buckets
            finally:
                if san.enabled:
                    san.on_subtable_unlock(target, site=_SITE_UPSIZE)
            if table.telemetry.enabled:
                table.telemetry.metrics.counter("resize.upsizes").inc()
                table.telemetry.metrics.counter(
                    "resize.rehashed_entries").inc(len(codes))
            if table.profiler.enabled:
                table.profiler.sample_fill("upsize", table)
            if table.recorder.enabled:
                table.recorder.record("resize.upsize", subtable=target,
                                      new_buckets=st.n_buckets,
                                      rehashed=len(codes))
        return target

    def downsize(self) -> int:
        """Halve the largest subtable; returns its index.

        Residual entries that do not fit the merged buckets are spilled
        into their alternate subtables (the downsized subtable stays
        excluded, per Section IV-D).  On spill failure the downsize is
        rolled back and :class:`ResizeError` propagates.
        """
        table = self._table
        tracer = table.telemetry.tracer
        faulty = table.faults.enabled
        if faulty:
            self._fire_abort("trigger")
        self.finalize_migration()
        with tracer.span("resize.downsize", "resize"):
            with tracer.span("resize.plan", "resize"):
                target = self._pick_downsize_target()
                if target is None:
                    raise ResizeError(
                        "no subtable can be downsized (all at min_buckets)"
                    )
                st = table.subtables[target]
                snapshot = _TableSnapshot(table)
                # Rollback must be symmetric: everything below mutates
                # counters, so remember them all (not just `downsizes`)
                # before the first mutation.
                stats_before = table.stats.snapshot()
            if faulty:
                self._fire_abort("plan")
            # One-subtable guarantee (Section IV-D): only the downsizing
            # subtable is locked; the residual spill targets the *other*
            # subtables, which stay unlocked and service queries.  The
            # try/finally covers rehash, spill, and rollback so every
            # abort path releases.
            san = getattr(table, "sanitizer", NULL_SANITIZER)
            if san.enabled:
                san.on_subtable_lock(target, "downsize",
                                     site=_SITE_DOWNSIZE)
            try:
                with tracer.span("resize.rehash", "resize", subtable=target,
                                 old_buckets=st.n_buckets,
                                 new_buckets=st.n_buckets // 2):
                    codes, values, _old_buckets = st.export_entries()
                    new_n = st.n_buckets // 2
                    new_buckets = table.table_hashes[target].bucket(codes,
                                                                    new_n)
                    ranks, _unique, _inverse = rank_within_group(new_buckets)
                    keep = ranks < st.bucket_capacity
                    st.rebuild(new_n, codes[keep], values[keep],
                               new_buckets[keep])
                    if faulty:
                        self._fire_abort("rehash", snapshot=snapshot)
                table.stats.bucket_reads += new_n * 2
                table.stats.bucket_writes += new_n

                residual_codes = codes[~keep]
                residual_values = values[~keep]
                table.stats.downsizes += 1
                table.stats.rehashed_entries += len(codes)
                table.stats.residuals += len(residual_codes)
                with tracer.span("resize.spill", "resize", subtable=target,
                                 residuals=len(residual_codes)):
                    if len(residual_codes):
                        current = np.full(len(residual_codes), target,
                                          dtype=np.int64)
                        alternates = table.pair_hash.alternate_table(
                            residual_codes, current)
                        try:
                            if faulty:
                                self._fire_abort("spill")
                            table._insert_pending(
                                residual_codes, residual_values, alternates,
                                unhashed(len(residual_codes)),
                                excluded=target)
                        except ResizeError:
                            snapshot.restore(table)
                            self._restore_stats(stats_before)
                            tracer.instant("resize.rollback", "resize",
                                           subtable=target,
                                           residuals=len(residual_codes))
                            raise
            finally:
                if san.enabled:
                    san.on_subtable_unlock(target, site=_SITE_DOWNSIZE)
            # Telemetry counters are monotonic (no decrement exists), so
            # they are only published once the spill — the last stage
            # that can roll the downsize back — has succeeded.
            if table.telemetry.enabled:
                table.telemetry.metrics.counter("resize.downsizes").inc()
                table.telemetry.metrics.counter(
                    "resize.rehashed_entries").inc(len(codes))
                table.telemetry.metrics.counter(
                    "resize.residuals").inc(len(residual_codes))
            if table.profiler.enabled:
                table.profiler.sample_fill("downsize", table)
            if table.recorder.enabled:
                table.recorder.record("resize.downsize", subtable=target,
                                      new_buckets=st.n_buckets,
                                      rehashed=len(codes),
                                      residuals=len(residual_codes))
        return target

    def _restore_stats(self, stats_before: dict) -> None:
        """Roll every counter back to ``stats_before``.

        ``resize_aborts`` is exempt: an injected abort that triggered
        the rollback is a real event that must stay counted.
        """
        stats = self._table.stats
        aborts = stats.resize_aborts
        for name, value in stats_before.items():
            setattr(stats, name, value)
        stats.resize_aborts = max(aborts, stats.resize_aborts)


class _TableSnapshot:
    """Copy-on-demand snapshot used to roll back a failed resize or drain.

    Captures *all* places a key can live — subtable storage, any open
    migration epoch, and the overflow stash — so every rollback path
    restores a consistent ``len(table)``.  (The stash used to be backed
    up ad hoc by ``_drain_stash``; rollbacks that interleaved stash
    mutation with a resize would restore storage but not the stash.)

    Downsizing only happens at low filled factors, so copying the raw
    arrays is cheap relative to how rarely the rollback path runs.
    """

    def __init__(self, table: "DyCuckooTable") -> None:
        self._storage = [
            (st.n_buckets, st.keys.copy(), st.values.copy(), st.size,
             st.migration.copy() if st.migration is not None else None)
            for st in table.subtables
        ]
        self._stash = table.stash.copy()

    def restore(self, table: "DyCuckooTable") -> None:
        for st, (n_buckets, keys, values, size,
                 migration) in zip(table.subtables, self._storage):
            st.n_buckets = n_buckets
            st.keys = keys
            st.values = values
            st.size = size
            st.migration = migration
        table.stash = self._stash.copy()
