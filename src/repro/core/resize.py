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

Every resize is a DHash-style **migration epoch**.
:meth:`ResizeController.open_upsize_epoch` /
:meth:`~ResizeController.open_downsize_epoch` switch the target
subtable to its new geometry immediately (so capacity and ``theta``
respond at once) and leave a
:class:`~repro.core.subtable.MigrationState` behind; entries then move
one *bucket pair* at a time through
:meth:`~ResizeController.drain_migration` (a bounded batch-end budget),
:meth:`~ResizeController.migrate_on_access` (an insert that finds a
full, unmigrated bucket splits it instead of evicting) and
:meth:`~ResizeController.finalize_migration` (everything at once).
Probes stay correct throughout because
:meth:`repro.core.table.DyCuckooTable.bucket_for` resolves every key to
its pre- or post-resize bucket via the epoch check.  Bound-driven
resizes stay lazy; a doubling that pending inserts wait on, and a
manual :meth:`~ResizeController.upsize` /
:meth:`~ResizeController.downsize`, run their epoch to completion at
once.  A manual downsize refuses up front when halving would put
``theta`` above ``beta``.

When a :class:`~repro.faults.FaultPlan` is attached to the table, an
epoch open consults it at three lifecycle stages — ``trigger`` (before
anything happens), ``plan`` (target picked, nothing mutated) and
``rehash`` (geometry already swapped, rolled back from a
:class:`_TableSnapshot`) — and an injected abort raises
:class:`~repro.errors.ResizeError` with the table as it was.  Each
batch-end slice consults ``rehash`` too, and aborts *alone*: the epoch
stays open, the dual view keeps every key reachable, and a later batch
retries.  A slice's residual spill consults ``spill``; an abort there
(or a spill whose eviction chains stall) parks the residuals in the
overflow stash, so a slice never loses a key and never unwinds.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.core import batch_ops
from repro.core.grouping import rank_within_group
from repro.core.hashing import UniversalHash, unhashed
from repro.core.subtable import EMPTY, claim_slots
from repro.errors import CapacityError, ResizeError

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
            if target is None or self._halving_overshoots(target):
                break
            try:
                self.downsize_auto()
            except ResizeError:
                break

    def _halving_overshoots(self, target: int) -> bool:
        """Whether halving subtable ``target`` would put ``theta`` above
        ``beta`` — the projection every downsize must pass first."""
        table = self._table
        projected_slots = (table.total_slots
                           - table.subtables[target].total_slots // 2)
        return bool(projected_slots) and (
            len(table) / projected_slots > table.config.beta)

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

        The mandatory doubling always completes synchronously: a
        stalled insert needs empty slots *now*, and an epoch that
        migrates lazily would leave the pending keys spinning eviction
        rounds against pre-resize bucket density.
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
    # Migration epochs (DHash-style)
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
        return self._open_epoch("upsize")

    def open_downsize_epoch(self) -> int:
        """Open a halving epoch on the largest subtable; returns it.

        The logical geometry halves immediately (so ``theta`` recovers
        at once); upper buckets merge down pair by pair in later slices,
        and only :meth:`~repro.core.subtable.Subtable.finish_migration`
        releases the physical rows.  Residual spills happen per slice,
        not here.
        """
        return self._open_epoch("downsize")

    def _open_epoch(self, kind: str) -> int:
        """Open an ``"upsize"`` or ``"downsize"`` epoch; returns its target."""
        table = self._table
        tracer = table.telemetry.tracer
        faulty = table.faults.enabled
        upsize = kind == "upsize"
        if faulty:
            self._fire_abort("trigger")
        with tracer.span(f"resize.{kind}_epoch", "resize"):
            with tracer.span("resize.plan", "resize"):
                target = (self._pick_upsize_target() if upsize
                          else self._pick_downsize_target())
                if target is None:
                    raise ResizeError(
                        "no subtable can be downsized (all at min_buckets)"
                    )
                st = table.subtables[target]
                if st.migration is not None:
                    # A subtable holds one epoch at a time: the target's
                    # own unfinished epoch (and only that one) must
                    # drain before its geometry changes again.
                    self._finalize_one(target)
                ceiling = table.config.max_total_slots
                if (upsize and ceiling
                        and table.total_slots + st.total_slots > ceiling):
                    raise CapacityError(
                        f"upsizing subtable {target} would exceed "
                        f"max_total_slots={ceiling} (currently "
                        f"{table.total_slots} slots, "
                        f"{len(table)} live entries)")
            if faulty:
                self._fire_abort("plan")
            snapshot = _TableSnapshot(table) if faulty else None
            site = _SITE_UPSIZE if upsize else _SITE_DOWNSIZE
            san = table.sanitizer
            if san.enabled:
                san.on_subtable_lock(target, kind, site=site)
            try:
                mig = (st.begin_upsize_epoch() if upsize
                       else st.begin_downsize_epoch())
                table.geometry_changed()
                if faulty:
                    self._fire_abort("rehash", snapshot=snapshot)
            finally:
                if san.enabled:
                    san.on_subtable_unlock(target, site=site)
            if upsize:
                table.stats.upsizes += 1
            else:
                table.stats.downsizes += 1
            if table.telemetry.enabled:
                table.telemetry.metrics.counter(f"resize.{kind}s").inc()
                tracer.instant("resize.epoch_open", "resize",
                               subtable=target, kind=kind,
                               pairs=mig.num_pairs)
            if table.profiler.enabled:
                table.profiler.sample_fill(kind, table)
            if table.recorder.enabled:
                table.recorder.record("resize.epoch_open", subtable=target,
                                      direction=kind, pairs=mig.num_pairs)
        return target

    #: An automatic trigger opens an epoch and leaves it to drain lazily.
    upsize_auto = open_upsize_epoch
    downsize_auto = open_downsize_epoch

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
            pairs = (~mig.migrated).nonzero()[0][:budget - moved]
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
        self._table.geometry_changed()

    def _finalize_one(self, target: int) -> int:
        """Drain one subtable's epoch to completion; returns pairs moved."""
        st = self._table.subtables[target]
        moved = 0
        while st.migration is not None:
            mig = st.migration
            pairs = (~mig.migrated).nonzero()[0]
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
        downsize pair: summed over the epoch, one coalesced pass over
        every bucket pair, whether it drains in one slice or many.
        """
        table = self._table
        st = table.subtables[target]
        mig = st.migration
        assert mig is not None, "migrate slice on a subtable with no epoch"
        pairs = np.asarray(pairs, dtype=np.int64)
        up = mig.kind == "upsize"
        src_buckets = pairs if up else pairs + mig.new_n

        san = table.sanitizer
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
                fits, dslots = claim_slots(st.keys[unique_dest] == EMPTY,
                                           ranks, inverse)
                fit_dest = mv_dest[fits]
                st.keys[fit_dest, dslots] = mv_codes[fits]
                st.values[fit_dest, dslots] = mv_values[fits]
                st.size += len(dslots)
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
            if len(residual_codes):
                table.telemetry.metrics.counter(
                    "resize.residuals").inc(len(residual_codes))
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
        batch_ops.run_bodies([table._insert_pending(
            codes, values, alternates, unhashed(len(codes)),
            excluded=target)])

    # ------------------------------------------------------------------
    # Targets and manual resizes
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
        """Double the smallest subtable now; returns its index.

        A manual resize is an upsize epoch run to completion: the epoch
        opens (fault stages ``trigger``/``plan``/``rehash``), then every
        open epoch drains.  Growth past ``max_total_slots`` raises
        :class:`CapacityError` before anything moves.
        """
        target = self.open_upsize_epoch()
        self.finalize_migration()
        return target

    def downsize(self) -> int:
        """Halve the largest subtable now; returns its index.

        A downsize epoch run to completion; residuals the spill cannot
        place land in the stash.  Refuses with :class:`ResizeError`,
        before any fault site is consulted and before anything moves,
        when halving would put ``theta`` above ``beta``.
        """
        target = self._pick_downsize_target()
        if target is not None and self._halving_overshoots(target):
            raise ResizeError(
                f"halving subtable {target} would put theta above "
                f"beta={self._table.config.beta}")
        target = self.open_downsize_epoch()
        self.finalize_migration()
        return target


class _TableSnapshot:
    """Copy-on-demand snapshot used to roll back a failed epoch open or
    stash drain.

    Captures *all* places a key can live — subtable storage, any open
    migration epoch, and the overflow stash — so every rollback path
    restores a consistent ``len(table)``.  (The stash used to be backed
    up ad hoc by ``_drain_stash``; rollbacks that interleaved stash
    mutation with a resize would restore storage but not the stash.)

    An epoch open only snapshots while a fault plan is attached, and a
    stash drain only runs with a non-empty stash, so the copies stay
    off the fault-free path.
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
        table.geometry_changed()
