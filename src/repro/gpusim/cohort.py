"""Structure-of-arrays warp-cohort execution engine.

The reference kernel path (:mod:`repro.kernels` over
:class:`~repro.gpusim.kernel.RoundScheduler`) steps every warp as a
separate Python object per device round, which is lane-faithful but
100-1000x slower than the vectorized table path.  This module executes
the *same* warp programs with the whole launch held as parallel numpy
arrays — one row per resident warp — and advances every warp per round
with a handful of vectorized mask operations:

* lane ballots are ``uint32`` masks in a ``(W,)`` array instead of
  per-warp bool vectors;
* leader election (including the voter scheme's rotating start lane) is
  a bitwise rotate plus a count-trailing-zeros over all warps at once;
* per-round lock arbitration replaces the per-resource
  :class:`~repro.gpusim.kernel.LockArbiter` loop with sorted-group
  winner selection over ``(lock_id, round_position)`` pairs;
* every lane carries its key's raw hashes under its target and
  alternate subtables, so a round resolves buckets with one masked
  gather (the launch's
  :meth:`~repro.core.table.DyCuckooTable.bucket_resolver`) and only
  evicted victims are hashed again;
* bucket inspection and writes (existing-key ballot, alternate probe,
  free-slot ballot, victim choice, upsert/place/evict) address every
  subtable through one flat arena
  (:meth:`~repro.core.table.DyCuckooTable.flat_storage`): bucket ``b``
  of subtable ``t`` is arena row ``row_offset[t] + b``, so each is one
  gather or scatter per round.  Lock ids, sanitizer addresses and
  profiler keys stay ``(t << 40) | b``.

Conformance contract
--------------------
The cohort engine is **bit-for-bit conformant** with the per-warp
engine: identical table storage after a run, identical
``(values, found, removed)`` outputs, and identical aggregate cost
counters (rounds, memory transactions, lock acquisitions/conflicts,
evictions, votes).  Three mechanisms make that exact rather than
approximate:

1. **Identical scheduling randomness.**  The round loop consumes
   ``np.random.default_rng(0).permutation(W)`` exactly like
   :class:`RoundScheduler`, and every order-sensitive decision (lock
   arbitration, victim-counter consumption) is ranked by each warp's
   position in that permutation — the order the reference engine would
   have stepped them in.

2. **Hazard-exact phase-two vectorization.**  Within one round, a
   locked warp only ever writes *keys* into its own locked bucket, so
   every other warp's own-bucket ballots are stable and the round can
   be applied from a start-of-round snapshot — *except* when carried
   keys coincide.  Two precise hazard conditions (duplicate carried
   keys in the cohort; an eviction whose victim key equals another
   warp's carried key aimed at the evicting bucket) are detected per
   round; a hazardous round re-resolves the alternate-bucket probes
   with a vectorized fixpoint over the round's key writes
   (:func:`_resolve_hazard`) and lands the value writes
   last-writer-wins in permutation order (:func:`_apply_hazard_round`)
   — the reference replay semantics at array speed.  Fault-free
   unique-key workloads essentially never trip the hazards.

3. **Fault plans in the SoA path.**  :class:`repro.faults.FaultPlan`
   decisions are a pure hash of the per-site *invocation index*.  In a
   fault-free round the warps that consult the plan are exactly the
   round's lock winners, in permutation order, so phase one asks the
   plan whether any decision inside that consult window could fire
   (:meth:`~repro.faults.FaultPlan.window_may_fire`); if none can, it
   advances the per-site counters wholesale and stays vectorized.
   Only rounds where an injected fault actually lands replay the
   reference arbitration walk (:func:`_phase_one_fault_walk`), keeping
   injected behaviour byte-identical to the per-warp engine's
   :class:`~repro.gpusim.kernel.LockArbiter` without delegating whole
   kernels.

FIND and DELETE have no scheduler and no locks in the reference engine
(one warp processes ops sequentially), so their cohort forms are plain
grouped-gather pipelines with transaction accounting reproduced from
the probe/hit structure.
"""

from __future__ import annotations

import numpy as np

from repro.core.subtable import EMPTY
from repro.errors import CapacityError
from repro.sanitizer import NULL_SANITIZER
from repro.telemetry.profiler import NULL_PROFILER

#: Lane count of a warp (fixed by the reference kernels).
WARP_WIDTH = 32

_SITE_PH1 = "repro/gpusim/cohort.py:_phase_one"
_SITE_PH2 = "repro/gpusim/cohort.py:_phase_two"
_SITE_DELETE = "repro/gpusim/cohort.py:cohort_delete"
_SITE_UNWIND = "repro/gpusim/cohort.py:cohort_insert"
_SITE_EXIT = "repro/gpusim/cohort.py:cohort_insert"

_U32_MASK = np.uint64(0xFFFFFFFF)
_ONE = np.uint64(1)


def _ctz(masks: np.ndarray) -> np.ndarray:
    """Count trailing zeros of nonzero uint64 masks (vectorized ffs)."""
    low = masks & (~masks + _ONE)
    # Isolated low bits are exact powers of two < 2**53: log2 is exact.
    return np.log2(low.astype(np.float64)).astype(np.int64)


def _first_slot(match: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row first True column of a 2-D predicate, as (any, argmax)."""
    return match.any(axis=1), match.argmax(axis=1)


# ----------------------------------------------------------------------
# FIND
# ----------------------------------------------------------------------

def cohort_find(table, batch):
    """Vectorized form of :func:`repro.kernels.find.run_find_kernel`.

    ``batch`` is the :class:`~repro.core.batch_ops.EncodedBatch` of
    keys to look up.  Returns ``(values, found, result)`` with
    transaction counts equal to the sequential warp walk: one per
    first-bucket probe plus one per second probe on a miss.
    """
    from repro.kernels.insert import KernelRunResult

    codes = batch.codes
    n = len(codes)
    values = np.zeros(n, dtype=np.uint64)
    result = KernelRunResult()
    if n == 0:
        return values, np.zeros(0, dtype=bool), result

    def probe(t: int, buckets: np.ndarray, sel: np.ndarray) -> np.ndarray:
        st = table.subtables[t]
        hit, slots = _first_slot(st.keys[buckets] == codes[sel][:, None])
        values[sel[hit]] = st.values[buckets[hit], slots[hit]]
        return hit

    found, missed = batch.probe(probe)
    result.memory_transactions = n + missed
    result.completed_ops = n
    result.rounds = n  # one warp processes queries sequentially
    san = table.sanitizer
    if san.enabled:
        # Mirror the per-warp MemoryTracker's sanitizer feed (one
        # notification per counted transaction) so stats conform.
        san.on_transactions(result.memory_transactions)
    prof = table.profiler
    if prof.enabled:
        # Ops resolved on the first bucket probed length 1; the rest
        # read the second bucket too — identical to the per-warp walk.
        prof.observe_probes(n, n - missed)
    return values, found, result


# ----------------------------------------------------------------------
# DELETE
# ----------------------------------------------------------------------

def cohort_delete(table, batch):
    """Vectorized form of :func:`repro.kernels.delete.run_delete_kernel`.

    Sequential duplicate semantics are reproduced exactly: only a
    key's first occurrence can observe (and clear) the entry; later
    duplicates probe both buckets, miss, and pay two transactions.
    Returns ``(removed, result)``.
    """
    from repro.core.grouping import first_occurrence_mask
    from repro.kernels.insert import KernelRunResult

    n = len(batch)
    removed = np.zeros(n, dtype=bool)
    result = KernelRunResult()
    if n == 0:
        return removed, result

    # Distinct keys never interact (clearing one key's slot cannot make
    # another key appear or vanish), so only first occurrences can hit.
    unique_idx = np.flatnonzero(first_occurrence_mask(batch.codes))
    unique = batch[unique_idx]
    codes = unique.codes
    san = table.sanitizer

    def clear(t: int, buckets: np.ndarray, sel: np.ndarray) -> np.ndarray:
        st = table.subtables[t]
        hit, slots = _first_slot(st.keys[buckets] == codes[sel][:, None])
        if np.any(hit):
            st.keys[buckets[hit], slots[hit]] = EMPTY
            st.size -= int(hit.sum())
            if san.enabled:
                # Same access log as the per-warp engine: one
                # lock-free slot-clear write per removal (exempt
                # from the locking contract — see run_delete_kernel).
                for b in buckets[hit]:
                    san.record_access(0, "write", "bucket",
                                      (t << 40) | int(b),
                                      site=_SITE_DELETE)
        return hit

    removed_unique, missed = unique.probe(clear)
    removed[unique_idx] = removed_unique
    hit_first = len(unique) - missed

    n_removed = int(removed.sum())
    # Every op reads its first bucket; ops that miss there (including
    # every non-first duplicate) read the second; each removal is one
    # slot-clear write.
    result.memory_transactions = n + (n - hit_first) + n_removed
    result.completed_ops = n_removed
    result.rounds = n
    if san.enabled:
        san.on_transactions(result.memory_transactions)
    prof = table.profiler
    if prof.enabled:
        prof.observe_probes(n, hit_first)
    return removed, result


# ----------------------------------------------------------------------
# INSERT (Algorithm 1, voter and spin variants)
# ----------------------------------------------------------------------

class _CohortState:
    """All resident warps of one insert launch, structure-of-arrays."""

    def __init__(self, table, batch, values: np.ndarray,
                 targets: np.ndarray) -> None:
        #: The launch's storage arena and bucket resolver; a launch never
        #: resizes, so both hold for every round.
        self.arena = table.flat_storage()
        self.bucket_of = table.bucket_resolver()
        n = len(batch)
        width = WARP_WIDTH
        self.num_warps = (n + width - 1) // width
        W = self.num_warps
        self.keys = np.zeros((W, width), dtype=np.uint64)
        self.values = np.zeros((W, width), dtype=np.uint64)
        self.targets = np.zeros((W, width), dtype=np.int64)
        self.keys.ravel()[:n] = batch.codes
        self.values.ravel()[:n] = values
        self.targets.ravel()[:n] = targets
        #: Per lane: the other subtable of its key's pair, and the key's
        #: 31-bit raw hashes under its target and that alternate.  The
        #: rounds read these; only an evicted victim is hashed again
        #: (:func:`_rehash_victims`).
        alts = batch.first + batch.second - targets
        raws = np.stack([batch.raw(t) for t in range(batch.table.num_tables)])
        lanes = np.arange(n)
        self.alts = np.zeros((W, width), dtype=np.int64)
        self.raw = np.zeros((W, width), dtype=np.uint32)
        self.alt_raw = np.zeros((W, width), dtype=np.uint32)
        self.alts.ravel()[:n] = alts
        self.raw.ravel()[:n] = raws[targets, lanes]
        self.alt_raw.ravel()[:n] = raws[alts, lanes]
        #: Lane ballots: bit ``l`` set while lane ``l`` still has work.
        self.active = np.zeros(W, dtype=np.uint64)
        full, rem = divmod(n, width)
        self.active[:full] = _U32_MASK
        if rem:
            self.active[full] = (_ONE << np.uint64(rem)) - _ONE
        #: Voter scheme: lane the next election starts scanning from.
        self.next_start = np.zeros(W, dtype=np.int64)
        #: Consecutive lock-failure rounds (stall detector).
        self.stalled = np.zeros(W, dtype=np.int64)
        #: Program counter, effectively: a locked warp is in phase two.
        self.locked = np.zeros(W, dtype=bool)
        self.lk_leader = np.zeros(W, dtype=np.int64)
        self.lk_target = np.zeros(W, dtype=np.int64)
        self.lk_bucket = np.zeros(W, dtype=np.int64)
        self.lk_lockid = np.zeros(W, dtype=np.int64)
        #: Per-lane eviction-chain depth; allocated only when a profiler
        #: is attached (see :func:`cohort_insert`), ``None`` otherwise.
        self.depth: np.ndarray | None = None


def cohort_insert(table, batch, values: np.ndarray,
                  targets: np.ndarray, voter: bool,
                  max_rounds: int = 1_000_000,
                  max_rounds_per_op: int = 4096,
                  faults=None):
    """Vectorized Algorithm-1 insert over pre-routed ``(code, value)``s.

    ``batch`` is the launch's :class:`~repro.core.batch_ops.EncodedBatch`;
    its pair and raw-hash caches give every lane its hashes up front.
    ``targets`` must come from the same router call the per-warp engine
    would make (see :func:`repro.kernels.insert._run_insert`, which
    computes them before dispatching on the engine).  ``faults`` is the
    table's :class:`~repro.faults.FaultPlan` (or None); injected lock
    faults reproduce the per-warp arbiter byte for byte.  Returns a
    :class:`~repro.kernels.insert.KernelRunResult` whose every field
    matches the per-warp engine on the same inputs; the engine-specific
    hazard diagnostics ride along as non-field attributes
    ``hazard_rounds`` / ``hazard_lanes``.
    """
    from repro.kernels.insert import KernelRunResult

    result = KernelRunResult()
    result.hazard_rounds = 0
    result.hazard_lanes = 0
    if len(batch) == 0:
        return result
    state = _CohortState(table, batch, np.asarray(values, dtype=np.uint64),
                         np.asarray(targets, dtype=np.int64))
    rng = np.random.default_rng(0)
    W = state.num_warps
    rounds = 0
    san = table.sanitizer
    prof = table.profiler
    fp = faults if (faults is not None and faults.enabled) else None
    #: Buckets camped on by an injected holder stall -> rounds left;
    #: the cohort-local mirror of ``LockArbiter._stalled``.
    stalled_locks: dict[int, int] = {}
    if prof.enabled:
        state.depth = np.zeros((W, WARP_WIDTH), dtype=np.int64)
    if san.enabled:
        san.begin_kernel("insert", locking=True, table=table)
    # Round-invariant scratch, hoisted out of the loop: the permutation
    # -> position scatter buffer and its identity source.
    pos = np.empty(W, dtype=np.int64)
    base = np.arange(W, dtype=np.int64)
    # Occupancy tracked as plain ints so the per-round profiler sample
    # costs no array reductions: live lanes fall as ops complete, a
    # warp leaves residency when its ballot empties, and the locked
    # count entering a round is exactly last round's winner count
    # (every held lock is released in its phase two).
    live_lanes = len(batch)
    resident = W
    locked_count = 0
    hazard_rounds = 0
    hazard_lanes = 0
    round_samples: list[tuple] = []
    try:
        while live_lanes or locked_count:
            if rounds >= max_rounds:
                raise RuntimeError(
                    f"kernel did not converge within {max_rounds} rounds"
                )
            if san.enabled:
                san.begin_round(rounds)
            if prof.enabled:
                # Same round-boundary snapshot the reference engine's
                # before_round hook takes: a warp is resident while it
                # holds a lock or has live lanes.
                round_samples.append((resident, live_lanes, locked_count,
                                      result.evictions,
                                      result.completed_ops))
            perm = rng.permutation(W)
            pos[perm] = base
            ph2 = np.flatnonzero(state.locked)
            ph1 = np.flatnonzero(~state.locked & (state.active != 0))
            # Lock holders at round start: they complete and release at
            # their permutation position, which phase-one arbitration
            # needs.
            holder_ids = state.lk_lockid[ph2]
            holder_pos = pos[ph2]
            if len(ph2):
                hazard, n_done, n_dead = _phase_two(
                    table, state, result, ph2, pos, san, prof)
                live_lanes -= n_done
                resident -= n_dead
                if hazard:
                    hazard_rounds += 1
                    hazard_lanes += len(ph2)
                    if prof.enabled:
                        prof.note_hazard(len(ph2))
            locked_count = 0
            if len(ph1):
                locked_count = _phase_one(
                    table, state, result, ph1, pos, holder_ids,
                    holder_pos, voter, max_rounds_per_op, san, prof,
                    fp, stalled_locks)
            if fp is not None and stalled_locks:
                # Mirror of LockArbiter.tick(): injected holder stalls
                # age at the end of every device round.
                for lid in list(stalled_locks):
                    remaining = stalled_locks[lid] - 1
                    if remaining <= 0:
                        del stalled_locks[lid]
                    else:
                        stalled_locks[lid] = remaining
            rounds += 1
        if san.enabled:
            # Normal completion: the loop condition drains every lane,
            # so a live lane here is a divergent exit (synccheck).
            san.on_kernel_exit(
                sum(bin(int(lanes)).count("1") for lanes in state.active),
                site=_SITE_EXIT)
    except BaseException:
        # Release-on-exception: _phase_one raises CapacityError *after*
        # the same round's winners entered phase two, and the
        # non-convergence abort fires with warps mid-critical-section.
        # Their bucket locks must be cleared on the way out (the warp
        # engine does the same via _InsertWarp.unwind_locks).
        for w in np.flatnonzero(state.locked):
            if san.enabled:
                san.on_unwind_release(int(w), int(state.lk_lockid[w]),
                                      site=_SITE_UNWIND)
        state.locked[:] = False
        raise
    finally:
        if prof.enabled and round_samples:
            prof.record_rounds_many(round_samples)
        if san.enabled:
            if result.memory_transactions:
                # Mirror the per-warp MemoryTracker's sanitizer feed
                # (one notification per counted transaction).
                san.on_transactions(result.memory_transactions)
            san.end_kernel()
    result.rounds = rounds
    result.hazard_rounds = hazard_rounds
    result.hazard_lanes = hazard_lanes
    return result


def _phase_one(table, state: _CohortState, result, ph1: np.ndarray,
               pos: np.ndarray, holder_ids: np.ndarray,
               holder_pos: np.ndarray, voter: bool,
               max_stall: int, san=NULL_SANITIZER,
               prof=NULL_PROFILER, fp=None,
               stalled_locks: dict | None = None) -> int:
    """Elect leaders, resolve buckets, arbitrate locks — all warps at once.

    Returns the number of locks granted (the warps entering phase two).
    """
    m = state.active[ph1]
    result.votes += len(ph1)
    if san.enabled:
        # One election ballot per unlocked warp with live lanes — the
        # same count (and vote masks) the reference engine's
        # _InsertWarp._elect feeds synccheck.
        for i in range(len(ph1)):
            vote = int(m[i])
            san.on_vote(int(ph1[i]), vote, vote, site=_SITE_PH1)
    if voter:
        s = state.next_start[ph1].astype(np.uint64)
        # Rotate the ballot so bit j is lane (start + j) % 32, then the
        # first set bit is the first active lane at-or-after start.
        rot = ((m >> s) | (m << (np.uint64(WARP_WIDTH) - s))) & _U32_MASK
        leader = (state.next_start[ph1] + _ctz(rot)) % WARP_WIDTH
    else:
        leader = _ctz(m)
    target = state.targets[ph1, leader]
    bucket = state.bucket_of(target, state.raw[ph1, leader])
    lock_id = (target << 40) | bucket
    my_pos = pos[ph1]

    # Arbitration: within this round, a request succeeds iff its lock is
    # not blocked by a phase-two holder stepping later (holders release
    # at their own position) and no earlier request already took it —
    # exactly what the per-request LockArbiter sees when the reference
    # scheduler steps warps in permutation order.
    order = np.lexsort((my_pos, lock_id))
    lid_s = lock_id[order]
    pos_s = my_pos[order]
    if len(holder_ids):
        h_order = np.argsort(holder_ids)
        h_ids = holder_ids[h_order]
        h_pos = holder_pos[h_order]
        where = np.searchsorted(h_ids, lid_s)
        where_c = np.clip(where, 0, len(h_ids) - 1)
        held = h_ids[where_c] == lid_s
        blocker = np.where(held, h_pos[where_c], np.int64(-1))
    else:
        blocker = np.full(len(lid_s), -1, dtype=np.int64)
    eligible = pos_s > blocker
    if stalled_locks:
        # Buckets held down by an injected stall deny without ever
        # consulting the plan (the arbiter's stalled check comes first).
        eligible &= ~np.isin(lid_s, np.fromiter(
            stalled_locks.keys(), dtype=np.int64,
            count=len(stalled_locks)))
    group_start = np.empty(len(lid_s), dtype=bool)
    group_start[0] = True
    group_start[1:] = lid_s[1:] != lid_s[:-1]
    grp = np.cumsum(group_start) - 1
    running = np.cumsum(eligible)
    starts = np.flatnonzero(group_start)
    before_group = np.concatenate(
        [[0], running[starts[1:] - 1]]) if len(starts) > 1 else np.zeros(
            1, dtype=np.int64)
    winner_s = eligible & ((running - before_group[grp]) == 1)
    win = np.zeros(len(ph1), dtype=bool)
    win[order] = winner_s

    n_win = int(win.sum())
    if fp is not None:
        # In a fault-free round the plan is consulted exactly once per
        # winner at each lock site, in permutation order: every other
        # candidate is denied by the stalled/held/taken checks *before*
        # the consult.  So the round's consult window at each site is
        # [counter, counter + n_win); if no decision inside either
        # window can fire, advance both counters wholesale and keep the
        # vectorized winners.  Otherwise replay the reference
        # arbitration walk so indices and side effects stay exact.
        if (fp.window_may_fire("lock.acquire", n_win)
                or fp.window_may_fire("lock.stall", n_win)):
            blocker_row = np.empty(len(ph1), dtype=np.int64)
            blocker_row[order] = blocker
            win = _phase_one_fault_walk(fp, stalled_locks, lock_id,
                                        my_pos, blocker_row, san)
            n_win = int(win.sum())
        else:
            fp.advance("lock.acquire", n_win)
            fp.advance("lock.stall", n_win)
    result.lock_acquisitions += n_win
    result.lock_conflicts += len(ph1) - n_win
    # Phase one of a won lock: one coalesced bucket read issued.
    result.memory_transactions += n_win
    if prof.enabled:
        # Same grant/conflict attribution the LockArbiter hook makes on
        # the reference path: winners acquired their leader's bucket
        # lock, losers conflicted on theirs.
        prof.lock_grants_many(lock_id[win])
        prof.lock_conflicts_many(lock_id[~win])

    w_idx = ph1[win]
    state.locked[w_idx] = True
    state.lk_leader[w_idx] = leader[win]
    state.lk_target[w_idx] = target[win]
    state.lk_bucket[w_idx] = bucket[win]
    state.lk_lockid[w_idx] = lock_id[win]
    state.stalled[w_idx] = 0
    if san.enabled:
        won_ids = lock_id[win]
        for i, w in enumerate(w_idx):
            san.on_lock_acquire(int(w), int(won_ids[i]), site=_SITE_PH1)
            san.record_access(int(w), "read", "bucket", int(won_ids[i]),
                              site=_SITE_PH1)

    l_idx = ph1[~win]
    if len(l_idx):
        if voter:
            state.next_start[l_idx] = (leader[~win] + 1) % WARP_WIDTH
        state.stalled[l_idx] += 1
        if bool(np.any(state.stalled[l_idx] > max_stall)):
            raise CapacityError(
                "insert kernel stalled: no lock progress "
                f"after {max_stall} rounds"
            )
    return n_win


def _phase_one_fault_walk(fp, stalled_locks: dict, lock_id: np.ndarray,
                          my_pos: np.ndarray, blocker_row: np.ndarray,
                          san=NULL_SANITIZER) -> np.ndarray:
    """Reference-order lock arbitration for a round where a fault fires.

    Steps the phase-one candidates in permutation order, replaying the
    exact consult sequence of ``LockArbiter.try_acquire``: a stalled or
    held (or already-taken) lock denies *without* consulting the plan;
    everyone else fires ``lock.acquire`` and, if that passes, fires
    ``lock.stall`` before winning.  An injected stall camps on the
    bucket for ``max(1, param)`` rounds, denying same-round and
    later-round candidates alike.  Returns the win mask over the
    candidates.
    """
    win = np.zeros(len(lock_id), dtype=bool)
    won: set[int] = set()
    lids = lock_id.tolist()
    blockers = blocker_row.tolist()
    posl = my_pos.tolist()
    for j in np.argsort(my_pos).tolist():
        lid = lids[j]
        if lid in stalled_locks or blockers[j] > posl[j] or lid in won:
            continue
        fault = fp.fire("lock.acquire")
        if fault is not None:
            if san.enabled:
                san.note_injected("lock.acquire")
            continue
        fault = fp.fire("lock.stall")
        if fault is not None:
            stalled_locks[lid] = max(1, fault.param)
            if san.enabled:
                san.note_injected("lock.stall")
            continue
        win[j] = True
        won.add(lid)
    return win


def _phase_two(table, state: _CohortState, result, ph2: np.ndarray,
               pos: np.ndarray, san=NULL_SANITIZER,
               prof=NULL_PROFILER) -> tuple[bool, int, int]:
    """Complete every held lock: upsert, place, or evict, then release.

    Classifies all locked warps from a start-of-round snapshot and
    applies the whole round vectorized.  When a key-coincidence hazard
    makes the order of operations observable, the alternate-bucket
    probes are re-resolved by :func:`_resolve_hazard` and the value
    writes land last-writer-wins in permutation order — still without
    leaving the vectorized path.  Returns ``(hazard, n_done, n_dead)``:
    whether the round was hazardous, how many lanes completed, and how
    many warps finished their last lane.
    """
    arena = state.arena
    cap = arena.keys.shape[1]
    tgt = state.lk_target[ph2]
    bkt = state.lk_bucket[ph2]
    row = arena.row_offset[tgt] + bkt
    ldr = state.lk_leader[ph2]
    key = state.keys[ph2, ldr]
    val = state.values[ph2, ldr]
    mcount = len(ph2)

    own = arena.keys[row]
    has_exist, exist_slot = _first_slot(own == key[:, None])
    miss = np.flatnonzero(~has_exist)

    # Alternate-bucket probe for every own-bucket miss.
    m_warp = ph2[miss]
    m_lane = ldr[miss]
    m_key = key[miss]
    alt_t = state.alts[m_warp, m_lane]
    alt_b = state.bucket_of(alt_t, state.alt_raw[m_warp, m_lane])
    alt_row = arena.row_offset[alt_t] + alt_b
    a_hit, a_slot = _first_slot(arena.keys[alt_row] == m_key[:, None])

    has_free, free_slot = _first_slot(own[miss] == EMPTY)
    place = miss[~a_hit & has_free]
    evict = miss[~a_hit & ~has_free]

    # Hazard H1: two in-flight copies of one key — placement/update
    # order decides which value survives and whether a second probe
    # sees the first copy.  Hazard H2: an eviction removes (or has its
    # victim's value overwritten by) a key some other warp is probing
    # for in the evicting bucket this round.  Both require carried-key
    # coincidences; either forces the ordered hazard resolution.
    sorted_key = np.sort(key)
    hazard = bool(np.any(sorted_key[1:] == sorted_key[:-1]))
    vict_rank = np.empty(0, dtype=np.int64)
    if len(evict):
        vict_rank = np.empty(len(evict), dtype=np.int64)
        vict_rank[np.argsort(pos[ph2[evict]], kind="stable")] = np.arange(
            len(evict))
        vslot = (table._victim_counter + vict_rank + bkt[evict]) % cap
        victim_key = own[evict, vslot]
        if not hazard and len(miss):
            e_lock = state.lk_lockid[ph2[evict]]
            e_order = np.argsort(e_lock)
            e_lock_s = e_lock[e_order]
            e_vkey_s = victim_key[e_order]
            probe_lock = (alt_t << 40) | alt_b
            where = np.searchsorted(e_lock_s, probe_lock)
            where_c = np.clip(where, 0, len(e_lock_s) - 1)
            same = e_lock_s[where_c] == probe_lock
            hazard = bool(np.any(same & (e_vkey_s[where_c] == key[miss])))

    victim_val = None
    if hazard:
        (a_hit, a_slot, place, evict, vslot, victim_key,
         victim_val) = _resolve_hazard(
            table, state, ph2, pos, row, bkt, key, val, own, miss,
            alt_t, alt_b, a_hit, a_slot, has_free, free_slot, cap)

    # ---- vectorized apply (ordering resolved above if observable) ----
    n_miss = len(miss)
    n_up = mcount - n_miss
    n_ahit = int(a_hit.sum())
    # Upserts pay one write; every miss pays the alternate read, then
    # one more write whichever way it resolves (value / place / swap).
    result.memory_transactions += n_up + 2 * n_miss
    result.completed_ops += n_up + n_ahit + len(place)
    result.evictions += len(evict)

    exist = np.flatnonzero(has_exist)
    if hazard:
        _apply_hazard_round(table, state, ph2, pos, tgt, row, key, val,
                            exist, exist_slot, miss, alt_t, alt_b,
                            a_hit, a_slot, place, free_slot, evict,
                            vslot, cap)
    else:
        # No two writes of a hazard-free round share a slot, so each
        # kind lands as one scatter over every subtable at once.
        arena.values[row[exist], exist_slot[exist]] = val[exist]
        if len(place):
            pslot = free_slot[np.searchsorted(miss, place)]
            arena.keys[row[place], pslot] = key[place]
            arena.values[row[place], pslot] = val[place]
            _grow_sizes(table, tgt[place])
        if n_ahit:
            hit_rows = np.flatnonzero(a_hit)
            arena.values[alt_row[hit_rows], a_slot[hit_rows]] = val[
                miss[hit_rows]]
        if len(evict):
            e_row = row[evict]
            victim_val = arena.values[e_row, vslot]
            arena.keys[e_row, vslot] = key[evict]
            arena.values[e_row, vslot] = val[evict]
    if len(evict):
        table._victim_counter += len(evict)
        # The evicted pair continues on the leader's lane, retargeted
        # at the victim's alternate subtable; the lane stays active, and
        # the subtable it was evicted from becomes its alternate.
        e_warp = ph2[evict]
        e_lane = ldr[evict]
        left = tgt[evict]
        new_tgt = table.pair_hash.alternate_table(victim_key, left)
        state.keys[e_warp, e_lane] = victim_key
        state.values[e_warp, e_lane] = victim_val
        state.targets[e_warp, e_lane] = new_tgt
        state.alts[e_warp, e_lane] = left
        _rehash_victims(table, state, e_warp, e_lane, victim_key, new_tgt,
                        left)
        if state.depth is not None:
            # The victims continue on their lanes one eviction deeper.
            state.depth[e_warp, e_lane] += 1

    done = np.concatenate([exist, miss[a_hit], place])
    n_done = len(done)
    n_dead = 0
    if n_done:
        d_warp = ph2[done]
        d_lane = ldr[done]
        state.active[d_warp] &= ~(_ONE << d_lane.astype(np.uint64))
        n_dead = int((state.active[d_warp] == 0).sum())
        state.next_start[d_warp] = (d_lane + 1) % WARP_WIDTH
        if state.depth is not None:
            prof.observe_chains(state.depth[d_warp, d_lane])
    if san.enabled:
        # Mirror the warp engine's per-warp access log for this round:
        # upsert/place/evict are bucket writes under the warp's own
        # lock; an alternate-bucket probe is a sanctioned lock-free
        # read, and an alternate hit is a single-word value update.
        lids = state.lk_lockid[ph2]
        for i in range(mcount):
            w = int(ph2[i])
            lid = int(lids[i])
            if has_exist[i]:
                san.record_access(w, "write", "bucket", lid,
                                  site=_SITE_PH2)
            else:
                j = int(np.searchsorted(miss, i))
                a_lock = (int(alt_t[j]) << 40) | int(alt_b[j])
                san.record_access(w, "probe", "bucket", a_lock,
                                  site=_SITE_PH2)
                if a_hit[j]:
                    san.record_access(w, "atomic", "value", a_lock,
                                      site=_SITE_PH2)
                else:
                    san.record_access(w, "write", "bucket", lid,
                                      site=_SITE_PH2)
            san.on_lock_release(w, lid, site=_SITE_PH2)
    state.locked[ph2] = False
    return hazard, n_done, n_dead


def _rehash_victims(table, state: _CohortState, e_warp: np.ndarray,
                    e_lane: np.ndarray, victim_key: np.ndarray,
                    new_tgt: np.ndarray, left: np.ndarray) -> None:
    """Store each victim's raw hashes under its new target and the
    subtable it left: one hash call per subtable, each victim hashed
    exactly twice."""
    for t in range(table.num_tables):
        to_t = new_tgt == t
        g = np.flatnonzero(to_t | (left == t))
        if len(g):
            raw = table.table_hashes[t].raw(victim_key[g]).astype(np.uint32)
            as_tgt = to_t[g]
            state.raw[e_warp[g[as_tgt]], e_lane[g[as_tgt]]] = raw[as_tgt]
            as_alt = ~as_tgt
            state.alt_raw[e_warp[g[as_alt]], e_lane[g[as_alt]]] = raw[as_alt]


def _grow_sizes(table, targets: np.ndarray) -> None:
    """Count one placed entry per element of ``targets`` (subtables)."""
    counts = np.bincount(targets, minlength=table.num_tables).tolist()
    for st, n in zip(table.subtables, counts):
        st.size += n


def _resolve_hazard(table, state: _CohortState, ph2: np.ndarray,
                    pos: np.ndarray, row: np.ndarray, bkt: np.ndarray,
                    key: np.ndarray, val: np.ndarray, own: np.ndarray,
                    miss: np.ndarray, alt_t: np.ndarray,
                    alt_b: np.ndarray, a_hit0: np.ndarray,
                    a_slot0: np.ndarray, has_free: np.ndarray,
                    free_slot: np.ndarray, cap: int):
    """Re-resolve alternate-bucket probes under a key-coincidence hazard.

    In a hazardous round a warp's alternate probe can observe a key
    written earlier in the same round by the probed bucket's lock
    holder.  Own-bucket ballots stay snapshot-stable regardless (only
    the holder writes keys into a locked bucket), so the only mutable
    outcome is each miss row's alternate probe — and it depends solely
    on the single key write of the probed bucket's holder, a warp
    acting strictly earlier in the permutation.  That dependency graph
    is a forest pointing at strictly earlier positions, so iterating
    the probe recomputation from the start-of-round snapshot converges
    in at most ``mcount`` steps to exactly the outcomes the reference
    engine observes when it steps warps in permutation order.

    Returns the final ``(a_hit, a_slot, place, evict, vslot,
    victim_key, victim_val)``; storage is *not* touched.
    """
    mcount = len(ph2)
    nm = len(miss)
    pos2 = pos[ph2]
    lockids = state.lk_lockid[ph2]
    probe_lock = (alt_t << np.int64(40)) | alt_b
    # The ph2-local row holding each probed bucket's lock, if any; its
    # write is visible only to probers acting after it.
    ho = np.argsort(lockids)
    lsort = lockids[ho]
    where = np.clip(np.searchsorted(lsort, probe_lock), 0,
                    max(mcount - 1, 0))
    holder = np.where(lsort[where] == probe_lock, ho[where], -1)
    hvalid = holder >= 0
    hvalid[hvalid] = pos2[holder[hvalid]] < pos2[miss[hvalid]]

    vc0 = table._victim_counter
    nh = a_hit0.copy()
    ns = a_slot0.copy()
    ev_m = np.flatnonzero(~nh & ~has_free)
    vslot = np.empty(0, dtype=np.int64)
    for _ in range(mcount + 2):
        # Key-write slot of every ph2 row under the current outcomes:
        # EXIST and ALT_HIT write no key (an upsert rewrites the same
        # key — no content change); PLACE fills its snapshot-free slot;
        # EVICT overwrites its victim slot, counter ranked among the
        # current evictors in permutation order.
        wslot = np.full(mcount, -1, dtype=np.int64)
        pl_m = np.flatnonzero(~nh & has_free)
        wslot[miss[pl_m]] = free_slot[pl_m]
        ev_m = np.flatnonzero(~nh & ~has_free)
        vslot = np.empty(len(ev_m), dtype=np.int64)
        if len(ev_m):
            rank = np.empty(len(ev_m), dtype=np.int64)
            rank[np.argsort(pos2[miss[ev_m]],
                            kind="stable")] = np.arange(len(ev_m))
            vslot = (vc0 + rank + bkt[miss[ev_m]]) % cap
            wslot[miss[ev_m]] = vslot
        # Recompute every probe from the snapshot plus its holder's
        # single key write (if the holder acts first).
        sH = np.full(nm, -1, dtype=np.int64)
        kH = np.zeros(nm, dtype=np.uint64)
        sH[hvalid] = wslot[holder[hvalid]]
        kH[hvalid] = key[holder[hvalid]]
        no_write = sH < 0
        kmatch = ~no_write & (kH == key[miss])
        base = a_hit0 & (no_write | (a_slot0 != sH))
        new_nh = base | kmatch
        new_ns = np.where(
            kmatch & base, np.minimum(a_slot0, sH),
            np.where(kmatch, sH, np.where(base, a_slot0, 0)))
        if (np.array_equal(new_nh, nh)
                and np.array_equal(new_ns, ns)):
            break
        nh = new_nh
        ns = new_ns
    place = miss[np.flatnonzero(~nh & has_free)]
    evict = miss[ev_m]
    victim_key = own[evict, vslot]

    # Victim values are read live at the evictor's turn: start from the
    # snapshot and override with the latest earlier-position
    # alternate-hit value write landing in the same slot, if any.
    victim_val = state.arena.values[row[evict], vslot]
    ah_m = np.flatnonzero(nh)
    if len(ah_m) and len(evict):
        w_total = len(pos)
        w_addr = probe_lock[ah_m] * cap + ns[ah_m]
        w_pos = pos2[miss[ah_m]]
        e_addr = lockids[evict] * cap + vslot
        e_pos = pos2[evict]
        _uq, inv = np.unique(np.concatenate([w_addr, e_addr]),
                             return_inverse=True)
        winv = inv[:len(w_addr)]
        einv = inv[len(w_addr):]
        combined = winv * w_total + w_pos
        order = np.argsort(combined)
        srt = combined[order]
        r = np.searchsorted(srt, einv * w_total + e_pos)
        cand = order[np.maximum(r - 1, 0)]
        ok = (r > 0) & (winv[cand] == einv)
        victim_val[ok] = val[miss[ah_m[cand[ok]]]]
    return nh, ns, place, evict, vslot, victim_key, victim_val


def _apply_hazard_round(table, state: _CohortState, ph2: np.ndarray,
                        pos: np.ndarray, tgt: np.ndarray,
                        row: np.ndarray, key: np.ndarray,
                        val: np.ndarray, exist: np.ndarray,
                        exist_slot: np.ndarray, miss: np.ndarray,
                        alt_t: np.ndarray, alt_b: np.ndarray,
                        a_hit: np.ndarray, a_slot: np.ndarray,
                        place: np.ndarray, free_slot: np.ndarray,
                        evict: np.ndarray, vslot: np.ndarray,
                        cap: int) -> None:
    """Apply a hazardous round's writes with reference write ordering.

    Key writes are conflict-free (one lock holder per bucket) and land
    directly; value writes from different warps can collide on one
    slot (an upsert racing an alternate hit on a freshly written key),
    so every value write carries its warp's permutation position and
    each slot keeps the last writer — exactly the state the reference
    replay leaves behind.
    """
    # Keys and sizes: PLACE fills a snapshot-EMPTY slot, EVICT
    # overwrites its victim's key.  The hazard round's access stream is
    # emitted by _phase_two for the whole round (one record per held
    # lock), so these resolved writes are already on the sanitizer's
    # log — re-recording here would double-count them.
    arena = state.arena
    if len(place):
        pslot = free_slot[np.searchsorted(miss, place)]
        arena.keys[row[place], pslot] = key[place]  # sanitize: allow(unguarded-structural-write)
        _grow_sizes(table, tgt[place])
    arena.keys[row[evict], vslot] = key[evict]  # sanitize: allow(unguarded-structural-write)
    # Value writes, last-writer-wins by permutation position.
    pos2 = pos[ph2]
    lockids = state.lk_lockid[ph2]
    ah_m = np.flatnonzero(a_hit)
    pl_m = np.searchsorted(miss, place)
    addr = np.concatenate([
        lockids[exist] * cap + exist_slot[exist],
        (((alt_t[ah_m] << np.int64(40)) | alt_b[ah_m]) * cap
         + a_slot[ah_m]),
        lockids[place] * cap + free_slot[pl_m],
        lockids[evict] * cap + vslot,
    ])
    if not len(addr):
        return
    wval = np.concatenate([val[exist], val[miss[ah_m]], val[place],
                           val[evict]])
    wpos = np.concatenate([pos2[exist], pos2[miss[ah_m]], pos2[place],
                           pos2[evict]])
    order = np.lexsort((wpos, addr))
    addr_s = addr[order]
    last = np.empty(len(addr_s), dtype=bool)
    last[-1] = True
    last[:-1] = addr_s[1:] != addr_s[:-1]
    sel = order[last]
    lock = addr[sel] // cap
    arena.values[arena.row_offset[lock >> 40] + (lock & ((1 << 40) - 1)),
                 addr[sel] % cap] = wval[sel]
