"""Compute-sanitizer analogue for the simulated GPU (``repro.gpusim``).

The paper's correctness story rests on two machine-checkable disciplines:

* every **bucket mutation** happens under the bucket's ``atomicCAS``
  lock (Algorithm 1), and
* a **resize** locks exactly *one* subtable (Section IV-B), so the other
  subtables stay online.

Nothing in the simulator enforced either — a kernel that forgot a
``release()`` or wrote a bucket without holding its lock would only
surface as a flaky differential-fuzz failure.  This package is the
``compute-sanitizer`` of the simulator: six passes, the dynamic ones
reporting :class:`Violation` records with file/round/warp attribution.

racecheck (dynamic)
    The kernels log every storage access — ``(warp, kind, space,
    address, held-locks, site)`` — into a per-device-round window.  At
    each round boundary the pass flags any write/write or read/write
    pair on the same word from different warps whose locksets are
    disjoint: a dynamic lockset (Eraser-style) check over the
    simulator's round-based happens-before.  Kernels additionally
    declare a *locking contract* (``begin_kernel(..., locking=True)``);
    under it, a structural bucket write whose writer does not hold that
    bucket's lock is flagged immediately (``unlocked-write``).

lockcheck (dynamic)
    Acquire/release pairing per warp across
    :class:`~repro.gpusim.kernel.LockArbiter`, the cohort engine and
    :class:`~repro.core.resize.ResizeController`: double acquire,
    double release, locks still held at kernel exit (``leaked-lock``),
    and the one-subtable resize guarantee (``second-subtable-lock``).
    Exception unwinds that *do* release their locks are accounted as
    ``unwind_releases`` instead of violations.

memcheck (dynamic)
    Every bucket/value access is decoded (``subtable = addr >> 40``,
    ``bucket = addr & MASK40``) and checked against the owning
    subtable's *live* physical extent, read lazily so incremental
    resize epochs (which grow/shrink the extent mid-stream) and
    snapshot rollbacks are handled for free (``oob-access``).  When a
    downsize epoch finalizes, :meth:`Sanitizer.on_epoch_retire` records
    the truncated source-view rows; a later access to them is the
    epoch-migration bug class DHash makes possible
    (``use-after-retire``).  The pass also audits stash occupancy
    against capacity (``stash-overflow``) and device-allocation
    lifetimes via :class:`~repro.gpusim.memory_manager.\
DeviceMemoryManager` (``double-free``, and ``alloc-leak`` at
    :meth:`Sanitizer.end_alloc_scope`).

initcheck (dynamic)
    Reads of bucket rows never written since allocation.  All real
    allocations are ``np.zeros`` — the EMPTY sentinel — so the
    per-subtable initialized bitmap is all-set by construction and the
    pass is structurally clean on real workloads; rows explicitly
    marked via :meth:`Sanitizer.mark_uninitialized` (fixtures, or any
    future non-zeroing allocator) report ``uninit-read`` until a write
    initializes them.  Marks survive resize copy-over: only rows
    truncated by an epoch retirement are cleared.

synccheck (dynamic)
    Warp-divergence discipline at the three places the simulator can
    express it: leader-election ballots whose vote mask includes an
    inactive lane (``divergent-sync``, hooked at the two engines'
    election sites), a kernel completing normally with live lanes
    (``divergent-exit``), and mismatched ``begin_kernel`` /
    ``end_kernel`` bracket pairing (``unmatched-kernel-bracket``).

determinism lint + protocol contracts (static)
    :mod:`repro.sanitizer.lint` — an AST pass over ``src/repro``
    forbidding nondeterminism sources in kernel/gpusim/core/shard/
    scenario code — and :mod:`repro.sanitizer.contracts` — an AST pass
    over ``kernels/``, ``gpusim/`` and ``core/resize.py`` proving every
    lock acquire is released on all paths, every kernel bracket pairs,
    and every structural bucket write is access-logged.

Access kinds and intentional exemptions
---------------------------------------
The protocol itself performs lock-free reads (FIND/DELETE probe without
locks; the insert kernel's alternate-bucket probe reads a bucket it has
not locked) and lock-free single-word value updates (the upsert path,
matching the vectorized engine).  Those are *protocol-sanctioned* and
must not drown the report, so accesses carry a kind:

``write``
    A structural key-slot write.  Participates in racecheck pairing and
    the ``unlocked-write`` check.
``read``
    A locked bucket read (the insert kernel's phase-one inspection).
    Participates in read/write pairing.
``probe``
    A protocol-sanctioned lock-free read (FIND/DELETE probes, the
    alternate-bucket upsert probe).  Exempt from pairing.
``atomic``
    A word that is only ever touched atomically (the single-word value
    update of an upsert).  Ordered by definition; exempt from pairing.

All four kinds participate in the memcheck extent decode and the
initcheck bitmap (any kind of read can observe garbage; any write
initializes).

Kernels without a locking contract (FIND and DELETE declare
``locking=False``; DELETE's slot clear is lock-free by design — at most
one lane can match a unique key) are exempt from ``unlocked-write``.

Injected faults (:mod:`repro.faults`) are *intentional* events: an
injected ``lock.acquire`` failure never acquires (nothing to pair), an
injected ``lock.stall`` camps a phantom holder that is not a tracked
warp, and both are tallied under ``stats["injected_events"]`` rather
than reported as violations.

Zero-overhead gating follows :data:`repro.telemetry.NULL_TELEMETRY` and
:data:`repro.faults.NO_FAULTS`: every hook site checks a single
``enabled`` attribute, and the default :data:`NULL_SANITIZER` makes the
instrumented build bit-identical to an uninstrumented one — including
across migration-epoch (mid-resize) paths on both engines, which is
pinned by a regression test.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.nulls import NullSingleton
from repro.telemetry.recorder import NULL_RECORDER

__all__ = [
    "Sanitizer",
    "NULL_SANITIZER",
    "Violation",
    "ACCESS_KINDS",
    "VIOLATION_KINDS",
]

#: Every access kind the dynamic passes understand (see module docs).
ACCESS_KINDS = ("read", "write", "probe", "atomic")

#: Violation taxonomy, by pass.  The static passes (determinism lint,
#: protocol contracts) report :class:`~repro.sanitizer.lint.LintFinding`
#: / :class:`~repro.sanitizer.contracts.ContractFinding` instead of
#: :class:`Violation` and are tabulated in their own modules.
VIOLATION_KINDS = {
    "racecheck": ("race", "unlocked-write"),
    "lockcheck": ("double-acquire", "double-release", "leaked-lock",
                  "lock-not-exclusive", "second-subtable-lock"),
    "memcheck": ("oob-access", "use-after-retire", "stash-overflow",
                 "alloc-leak", "double-free"),
    "initcheck": ("uninit-read",),
    "synccheck": ("divergent-sync", "divergent-exit",
                  "unmatched-kernel-bracket"),
}

#: Bucket/value addresses pack ``(subtable << 40) | bucket`` — the same
#: encoding :meth:`repro.kernels.insert._InsertWarp._lock_id` uses, so
#: "holds the word's lock" is an address-set membership test and the
#: memcheck decode is a shift and a mask.
_ADDR_BITS = 40
_ADDR_MASK = (1 << _ADDR_BITS) - 1


@dataclass(frozen=True)
class Violation:
    """One sanitizer finding, attributed to file/round/warp."""

    #: Which pass produced it (a key of :data:`VIOLATION_KINDS`).
    pass_name: str
    #: Taxonomy entry (see :data:`VIOLATION_KINDS`).
    kind: str
    #: Human-readable description of the specific event.
    message: str
    #: ``path:function`` of the instrumented code that observed it.
    site: str = ""
    #: Device round the event happened in (-1 outside any round).
    round_index: int = -1
    #: Warp id of the offender (-1 when not warp-attributable).
    warp: int = -1
    #: The other warp of a racing pair (-1 when not applicable).
    other_warp: int = -1
    #: Address space of the word involved ("bucket", "value", "lock").
    space: str = ""
    #: Word address (bucket lock id for bucket/value space).
    address: int = -1

    def __str__(self) -> str:  # pragma: no cover - formatting helper
        where = f" at {self.site}" if self.site else ""
        when = (f" [round {self.round_index}]"
                if self.round_index >= 0 else "")
        return (f"{self.pass_name}:{self.kind}{when} "
                f"{self.message}{where}")

    def to_dict(self) -> dict:
        return {
            "pass": self.pass_name, "kind": self.kind,
            "message": self.message, "site": self.site,
            "round": self.round_index, "warp": self.warp,
            "other_warp": self.other_warp, "space": self.space,
            "address": self.address,
        }


_EMPTY_LOCKSET: frozenset = frozenset()


@dataclass
class _Access:
    """One logged storage access inside the current device round."""

    warp: int
    kind: str
    space: str
    address: int
    lockset: frozenset
    site: str = field(default="")


class Sanitizer:
    """Dynamic racecheck/lockcheck/memcheck/initcheck/synccheck state.

    Attach to a table with ``table.attach(Instruments(sanitizer=san))``
    (:meth:`repro.core.table.DyCuckooTable.attach`); every kernel
    launch and resize on that table is then audited.  One instance can
    observe many kernels (and many tables — the fault audit shares one
    across stages): per-launch state is reset by
    :meth:`begin_kernel`/:meth:`end_kernel`, while per-table state
    (retired epoch extents, initcheck bitmaps) is keyed weakly by the
    table object passed to :meth:`begin_kernel`.
    """

    #: Gate checked by every hook; the null subclass overrides to False.
    enabled = True

    #: Flight recorder tripped on every recorded violation.  A class
    #: attribute so attaching one needs no constructor change;
    #: :meth:`repro.core.table.DyCuckooTable.attach` sets it on
    #: the *instance* of an enabled sanitizer, never on
    #: :data:`NULL_SANITIZER`.
    recorder: Any = NULL_RECORDER

    def __init__(self, *, racecheck: bool = True, lockcheck: bool = True,
                 memcheck: bool = True, initcheck: bool = True,
                 synccheck: bool = True,
                 max_violations: int = 1000) -> None:
        self.racecheck = racecheck
        self.lockcheck = lockcheck
        self.memcheck = memcheck
        self.initcheck = initcheck
        self.synccheck = synccheck
        self.max_violations = max_violations
        self.violations: list[Violation] = []
        self.stats: dict[str, int] = {
            "kernels": 0,
            "rounds": 0,
            "accesses": 0,
            "words_checked": 0,
            "lock_acquires": 0,
            "lock_releases": 0,
            "unwind_releases": 0,
            "subtable_locks": 0,
            "injected_events": 0,
            "memory_transactions": 0,
            "extent_checks": 0,
            "init_checks": 0,
            "votes_checked": 0,
            "kernel_exits": 0,
            "stash_writes": 0,
            "allocs": 0,
            "frees": 0,
            "retired_epochs": 0,
        }
        #: Current device round (-1 between kernels).
        self._round = -1
        #: Access log of the current round.
        self._log: list[_Access] = []
        #: Per-warp locksets (resource ids currently held).
        self._held: dict[int, set[int]] = {}
        #: Active kernel context, ``(name, locking_contract)`` or None.
        self._kernel: tuple[str, bool] | None = None
        #: The table whose storage the active kernel addresses (memcheck
        #: geometry source); None for table-less launches (fixtures).
        self._table: Any = None
        #: Subtable resize locks currently held: index -> operation.
        self._subtable_locks: dict[int, str] = {}
        #: Dedup keys of already-reported violations.
        self._reported: set[tuple] = set()
        #: Per-table retired source-view extents: table -> {subtable:
        #: physical rows *before* the downsize epoch finalized}.
        self._retired: weakref.WeakKeyDictionary[Any, dict[int, int]] = (
            weakref.WeakKeyDictionary())
        #: Per-table initcheck bitmaps, sparse form: table ->
        #: {subtable: set of *uninitialized* bucket rows}.  Real
        #: allocations zero-fill (EMPTY sentinel), so this is empty
        #: unless :meth:`mark_uninitialized` seeded it.
        self._uninit: weakref.WeakKeyDictionary[
            Any, dict[int, set[int]]] = weakref.WeakKeyDictionary()
        #: Device allocations currently live: client -> bytes.
        self._live_allocs: dict[str, int] = {}
        #: Clients allocated inside the open alloc scope (None = no
        #: scope open); leak accounting at :meth:`end_alloc_scope`.
        self._alloc_scope: set[str] | None = None

    def __getstate__(self) -> dict[str, Any]:
        """The process-pool shard executor ships tables (and their
        attached sanitizer) by pickle.  The per-table attribution maps
        are WeakKeyDictionaries keyed by object identity — neither the
        weak callbacks nor the identities survive a process hop, so
        they cross empty and are rebuilt by ``__setstate__``."""
        state = self.__dict__.copy()
        state["_retired"] = None
        state["_uninit"] = None
        return state

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._retired = weakref.WeakKeyDictionary()
        self._uninit = weakref.WeakKeyDictionary()

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    @property
    def ok(self) -> bool:
        """True iff no violation has been recorded."""
        return not self.violations

    def report(self) -> dict:
        """Machine-readable summary of everything observed so far."""
        return {
            "ok": self.ok,
            "stats": dict(self.stats),
            "subtable_locks_held": len(self._subtable_locks),
            "violations": [v.to_dict() for v in self.violations],
        }

    def _violate(self, pass_name: str, kind: str, message: str, *,
                 site: str = "", warp: int = -1, other_warp: int = -1,
                 space: str = "", address: int = -1,
                 dedup: tuple | None = None) -> None:
        if len(self.violations) >= self.max_violations:
            return
        if dedup is not None:
            key = (pass_name, kind) + dedup
            if key in self._reported:
                return
            self._reported.add(key)
        self.violations.append(Violation(
            pass_name=pass_name, kind=kind, message=message, site=site,
            round_index=self._round, warp=warp, other_warp=other_warp,
            space=space, address=address))
        if self.recorder.enabled:
            self.recorder.trip("sanitizer_violation",
                               **self.violations[-1].to_dict())

    # ------------------------------------------------------------------
    # Kernel and round lifecycle
    # ------------------------------------------------------------------

    def begin_kernel(self, name: str, locking: bool = True,
                     table: Any = None) -> None:
        """Open a kernel scope.

        ``locking`` declares the kernel's contract: True means every
        structural bucket write must happen under that bucket's lock
        (the insert kernels); False exempts the kernel from the
        ``unlocked-write`` check (FIND/DELETE are lock-free by design).

        ``table`` is the table whose storage the kernel addresses; when
        given, memcheck validates every decoded bucket/value access
        against that table's live subtable extents (and initcheck
        against its bitmap).  Fixtures that fabricate raw addresses
        omit it and skip extent checking.
        """
        if self.synccheck and self._kernel is not None:
            self._violate(
                "synccheck", "unmatched-kernel-bracket",
                f"begin_kernel('{name}') while kernel "
                f"'{self._kernel[0]}' is still open — a previous "
                "end_kernel() is missing",
                site=f"kernel:{name}")
        self.stats["kernels"] += 1
        self._kernel = (name, locking)
        self._table = table
        self._round = -1
        self._log.clear()
        self._held.clear()

    def end_kernel(self) -> None:
        """Close the kernel scope; flag locks that outlived the kernel."""
        self._flush_round()
        if self._kernel is None:
            if self.synccheck:
                self._violate(
                    "synccheck", "unmatched-kernel-bracket",
                    "end_kernel() with no kernel open — a begin_kernel()"
                    " is missing or the bracket closed twice",
                    site="kernel:<none>")
            return
        name, _locking = self._kernel
        if self.lockcheck:
            for warp in sorted(self._held):
                for resource in sorted(self._held[warp]):
                    self._violate(
                        "lockcheck", "leaked-lock",
                        f"warp {warp} exited kernel '{name}' still "
                        f"holding lock {resource:#x}",
                        site=f"kernel:{name}", warp=warp, space="lock",
                        address=resource)
        self._held.clear()
        self._kernel = None
        self._table = None
        self._round = -1

    def begin_round(self, index: int) -> None:
        """Start device round ``index``; closes the previous round."""
        self._flush_round()
        self._round = index
        self.stats["rounds"] += 1

    # ------------------------------------------------------------------
    # racecheck + memcheck + initcheck access stream
    # ------------------------------------------------------------------

    def record_access(self, warp: int, kind: str, space: str,
                      address: int, site: str = "") -> None:
        """Log one storage access of the current round.

        ``address`` is the word identity used for same-word pairing;
        bucket-space accesses use the bucket's lock id, so "holds the
        word's lock" is exactly ``address in lockset`` and the memcheck
        decode recovers ``(subtable, bucket)`` from the same word.
        """
        self.stats["accesses"] += 1
        held = self._held.get(warp)
        lockset = frozenset(held) if held else _EMPTY_LOCKSET
        if self.racecheck:
            self._log.append(_Access(warp, kind, space, address,
                                     lockset, site))
            if (kind == "write" and space == "bucket"
                    and self._kernel is not None and self._kernel[1]
                    and address not in lockset):
                self._violate(
                    "racecheck", "unlocked-write",
                    f"warp {warp} wrote bucket word {address:#x} without "
                    f"holding its lock (kernel '{self._kernel[0]}' "
                    "declares a locking contract)",
                    site=site, warp=warp, space=space, address=address)
        if ((self.memcheck or self.initcheck)
                and self._table is not None
                and space in ("bucket", "value")):
            self._check_word(warp, kind, space, address, site)

    def _check_word(self, warp: int, kind: str, space: str,
                    address: int, site: str) -> None:
        """memcheck extent decode + initcheck bitmap for one word."""
        self.stats["extent_checks"] += 1
        table = self._table
        subtable = address >> _ADDR_BITS
        bucket = address & _ADDR_MASK
        subtables = table.subtables
        if not 0 <= subtable < len(subtables):
            if self.memcheck:
                self._violate(
                    "memcheck", "oob-access",
                    f"warp {warp} {kind} addressed subtable {subtable} "
                    f"but the table has {len(subtables)} subtables",
                    site=site, warp=warp, space=space, address=address,
                    dedup=(space, address))
            return
        rows = int(subtables[subtable].keys.shape[0])
        if bucket >= rows:
            if not self.memcheck:
                return
            retired = self._retired.get(table)
            limit = retired.get(subtable, 0) if retired else 0
            if bucket < limit:
                self._violate(
                    "memcheck", "use-after-retire",
                    f"warp {warp} {kind} bucket {bucket} of subtable "
                    f"{subtable} — retired with its downsize epoch's "
                    f"source view (live extent {rows}, pre-retire "
                    f"extent {limit})",
                    site=site, warp=warp, space=space, address=address,
                    dedup=(space, address))
            else:
                self._violate(
                    "memcheck", "oob-access",
                    f"warp {warp} {kind} bucket {bucket} of subtable "
                    f"{subtable}, beyond its live extent of {rows} "
                    "buckets",
                    site=site, warp=warp, space=space, address=address,
                    dedup=(space, address))
            return
        if self.initcheck and self._uninit:
            marks = self._uninit.get(table)
            rowset = marks.get(subtable) if marks else None
            if rowset:
                self.stats["init_checks"] += 1
                if kind == "write":
                    rowset.discard(bucket)
                elif bucket in rowset:
                    self._violate(
                        "initcheck", "uninit-read",
                        f"warp {warp} {kind} bucket {bucket} of "
                        f"subtable {subtable} never written since "
                        "allocation (EMPTY-sentinel discipline)",
                        site=site, warp=warp, space=space,
                        address=address, dedup=(space, address))

    def _flush_round(self) -> None:
        """Lockset-pair the closing round's access log."""
        log = self._log
        if not self.racecheck or len(log) < 2:
            log.clear()
            return
        by_word: dict[tuple[str, int], list[_Access]] = {}
        for acc in log:
            if acc.kind in ("read", "write"):
                by_word.setdefault((acc.space, acc.address),
                                   []).append(acc)
        self.stats["words_checked"] += len(by_word)
        for (space, address), accs in by_word.items():
            if len(accs) < 2:
                continue
            for i, a in enumerate(accs):
                for b in accs[i + 1:]:
                    if a.warp == b.warp:
                        continue
                    if a.kind != "write" and b.kind != "write":
                        continue
                    if a.lockset & b.lockset:
                        continue  # ordered by a common lock
                    self._violate(
                        "racecheck", "race",
                        f"warps {a.warp} and {b.warp} touched word "
                        f"{address:#x} in the same round "
                        f"({a.kind}/{b.kind}) with no common lock",
                        site=b.site or a.site, warp=a.warp,
                        other_warp=b.warp, space=space, address=address,
                        dedup=(space, address, self._round))
        log.clear()

    # ------------------------------------------------------------------
    # lockcheck: warp-level bucket locks
    # ------------------------------------------------------------------

    def on_lock_acquire(self, warp: int, resource: int,
                        site: str = "") -> None:
        self.stats["lock_acquires"] += 1
        if not self.lockcheck:
            self._held.setdefault(warp, set()).add(resource)
            return
        for holder, locks in self._held.items():
            if resource in locks:
                if holder == warp:
                    self._violate(
                        "lockcheck", "double-acquire",
                        f"warp {warp} re-acquired lock {resource:#x} it "
                        "already holds",
                        site=site, warp=warp, space="lock",
                        address=resource)
                else:
                    self._violate(
                        "lockcheck", "lock-not-exclusive",
                        f"warp {warp} acquired lock {resource:#x} while "
                        f"warp {holder} still holds it",
                        site=site, warp=warp, other_warp=holder,
                        space="lock", address=resource)
        self._held.setdefault(warp, set()).add(resource)

    def on_lock_release(self, warp: int, resource: int,
                        site: str = "") -> None:
        self.stats["lock_releases"] += 1
        locks = self._held.get(warp)
        if locks is not None and resource in locks:
            locks.remove(resource)
            return
        if self.lockcheck:
            self._violate(
                "lockcheck", "double-release",
                f"warp {warp} released lock {resource:#x} it does not "
                "hold",
                site=site, warp=warp, space="lock", address=resource)

    def on_unwind_release(self, warp: int, resource: int,
                          site: str = "") -> None:
        """A lock released while unwinding from an exception.

        Not a violation — it is the *fix* for the release-on-exception
        gap — but it is accounted separately so tests can assert the
        unwind actually ran.
        """
        self.stats["unwind_releases"] += 1
        locks = self._held.get(warp)
        if locks is not None:
            locks.discard(resource)

    # ------------------------------------------------------------------
    # lockcheck: subtable resize locks
    # ------------------------------------------------------------------

    def on_subtable_lock(self, subtable: int, op: str,
                         site: str = "") -> None:
        self.stats["subtable_locks"] += 1
        if self.lockcheck:
            if subtable in self._subtable_locks:
                self._violate(
                    "lockcheck", "double-acquire",
                    f"{op} re-locked subtable {subtable} already locked "
                    f"by {self._subtable_locks[subtable]}",
                    site=site, space="subtable", address=subtable)
            elif self._subtable_locks:
                held = ", ".join(
                    f"{idx} ({what})"
                    for idx, what in self._subtable_locks.items())
                self._violate(
                    "lockcheck", "second-subtable-lock",
                    f"{op} locked subtable {subtable} while holding "
                    f"subtable lock(s) {held} — a resize must touch "
                    "exactly one subtable",
                    site=site, space="subtable", address=subtable)
        self._subtable_locks[subtable] = op

    def on_subtable_unlock(self, subtable: int, site: str = "") -> None:
        if subtable in self._subtable_locks:
            del self._subtable_locks[subtable]
            return
        if self.lockcheck:
            self._violate(
                "lockcheck", "double-release",
                f"released subtable lock {subtable} that is not held",
                site=site, space="subtable", address=subtable)

    # ------------------------------------------------------------------
    # memcheck: epoch retirement, stash and device allocations
    # ------------------------------------------------------------------

    def on_epoch_retire(self, table: Any, subtable: int, old_rows: int,
                        new_rows: int, site: str = "") -> None:
        """A downsize epoch finalized: rows ``[new_rows, old_rows)`` of
        ``subtable`` — the epoch's source view — were just truncated.

        Later accesses to them are ``use-after-retire`` rather than a
        bare ``oob-access``, which is the attribution that matters when
        a stale dual-view probe survives :meth:`finish_migration`.
        """
        self.stats["retired_epochs"] += 1
        if not (self.memcheck or self.initcheck):
            return
        extents = self._retired.get(table)
        if extents is None:
            extents = {}
            self._retired[table] = extents
        extents[subtable] = max(extents.get(subtable, 0), int(old_rows))
        marks = self._uninit.get(table)
        if marks and subtable in marks:
            # Truncated rows no longer exist; keep only surviving marks
            # (the bitmap "survives resize copy-over" for live rows).
            marks[subtable] = {b for b in marks[subtable]
                               if b < int(new_rows)}

    def mark_uninitialized(self, table: Any, subtable: int,
                           buckets: Iterable[int]) -> None:
        """Seed initcheck's bitmap: ``buckets`` of ``subtable`` hold
        garbage (allocated without the EMPTY-sentinel zero fill).

        Real allocations zero-fill, so production code never calls
        this; fixtures (and any future raw-``np.empty`` allocator)
        do.  A structural write clears a row's mark.
        """
        marks = self._uninit.get(table)
        if marks is None:
            marks = {}
            self._uninit[table] = marks
        marks.setdefault(subtable, set()).update(
            int(b) for b in buckets)

    def on_stash_write(self, occupancy: int, capacity: int,
                       site: str = "") -> None:
        """The stash absorbed a pair; ``occupancy`` is its new size."""
        self.stats["stash_writes"] += 1
        if self.memcheck and occupancy > capacity:
            self._violate(
                "memcheck", "stash-overflow",
                f"stash holds {occupancy} pairs, over its capacity of "
                f"{capacity} — an over-capacity write corrupts the "
                "spill contract",
                site=site, space="stash", address=occupancy,
                dedup=("stash", capacity))

    def on_alloc(self, client: str, num_bytes: int,
                 site: str = "") -> None:
        """A device allocation was created or resized for ``client``."""
        self.stats["allocs"] += 1
        self._live_allocs[client] = int(num_bytes)
        if self._alloc_scope is not None:
            self._alloc_scope.add(client)

    def on_free(self, client: str, known: bool = True,
                site: str = "") -> None:
        """``client``'s device allocation was freed.

        ``known`` is whether the memory manager actually held a record
        for it; freeing an unknown (never-allocated or already-freed)
        client is the classic double-free.
        """
        self.stats["frees"] += 1
        was_live = self._live_allocs.pop(client, None) is not None
        if self._alloc_scope is not None:
            self._alloc_scope.discard(client)
        if self.memcheck and not known and not was_live:
            self._violate(
                "memcheck", "double-free",
                f"freed device allocation '{client}' that is not live "
                "(double free or never allocated)",
                site=site, space="device")

    def begin_alloc_scope(self) -> None:
        """Start leak accounting: allocations made from here must be
        freed by :meth:`end_alloc_scope` (kernel-exit discipline)."""
        self._alloc_scope = set()

    def end_alloc_scope(self, site: str = "") -> None:
        """Close the alloc scope; surviving allocations are leaks."""
        scope = self._alloc_scope
        self._alloc_scope = None
        if not scope or not self.memcheck:
            return
        for client in sorted(scope):
            if client in self._live_allocs:
                self._violate(
                    "memcheck", "alloc-leak",
                    f"device allocation '{client}' "
                    f"({self._live_allocs[client]} B) outlived its "
                    "scope without a free()",
                    site=site, space="device")

    # ------------------------------------------------------------------
    # synccheck
    # ------------------------------------------------------------------

    def on_vote(self, warp: int, vote_mask: int, active_mask: int,
                site: str = "") -> None:
        """A leader-election ballot completed on ``warp``.

        Hooked only at election sites (``_InsertWarp._elect`` and the
        cohort's ``_phase_one`` rotate) — slot-match ballots legally
        involve lanes whose predicate is False, so they are exempt.
        A vote bit from a lane outside the active mask means an exited
        lane participated in ``__ballot_sync``: undefined behaviour on
        real hardware.
        """
        self.stats["votes_checked"] += 1
        if self.synccheck and vote_mask & ~active_mask:
            rogue = vote_mask & ~active_mask
            self._violate(
                "synccheck", "divergent-sync",
                f"warp {warp} ballot includes inactive lane(s) "
                f"{rogue:#x} outside the active mask "
                f"{active_mask:#x}",
                site=site, warp=warp, space="warp", address=rogue,
                dedup=(warp, site))

    def on_kernel_exit(self, live_lanes: int, site: str = "") -> None:
        """The kernel's scheduler completed normally.

        ``live_lanes`` counts lanes still active at that point — zero
        by construction on both engines (the round loop runs until no
        warp has work); a nonzero count means the kernel exited with
        divergent lanes still resident.
        """
        self.stats["kernel_exits"] += 1
        if self.synccheck and live_lanes > 0:
            name = self._kernel[0] if self._kernel else "<none>"
            self._violate(
                "synccheck", "divergent-exit",
                f"kernel '{name}' exited normally with {live_lanes} "
                "live lane(s) still resident",
                site=site or f"kernel:{name}", space="warp",
                address=live_lanes)

    # ------------------------------------------------------------------
    # Classification hooks (never violations)
    # ------------------------------------------------------------------

    def note_injected(self, site: str) -> None:
        """An injected fault fired at ``site`` — intentional, not a bug."""
        del site
        self.stats["injected_events"] += 1

    def on_transactions(self, count: int) -> None:
        """Memory transactions one kernel launch counted (stats only)."""
        self.stats["memory_transactions"] += count


class _NullSanitizer(NullSingleton, Sanitizer):
    """Disabled singleton: every hook gates on ``enabled`` and skips."""

    enabled = False
    SINGLETON = "NULL_SANITIZER"

    def __init__(self) -> None:
        super().__init__(racecheck=False, lockcheck=False,
                         memcheck=False, initcheck=False,
                         synccheck=False)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "NULL_SANITIZER"


#: The default, disabled sanitizer (see module docs for the pattern).
NULL_SANITIZER = _NullSanitizer()
