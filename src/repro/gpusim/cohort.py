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
* leader election (including the voter scheme's rotating start lane,
  kept as a mask of the lanes it scans first) is a masked ballot plus
  a count-trailing-zeros over all warps at once;
* per-round lock arbitration replaces the per-resource
  :class:`~repro.gpusim.kernel.LockArbiter` loop: when no lock id
  repeats among the round's candidates and holders and no injected
  stall camps on a bucket, every candidate wins at once (the common
  case); otherwise sorted-group winner selection over
  ``(lock_id, round_position)`` pairs decides;
* every lane carries its address: the arena rows and lock ids of its
  key's buckets in its target and alternate subtables, resolved for the
  whole launch with one call of its
  :meth:`~repro.core.table.DyCuckooTable.bucket_resolver` (a launch
  never resizes), so phase one reads a leader's lock id with one gather
  and phase two both its rows with one.  An evicting round hashes its
  victims under the pair hash and every subtable's hash in one call of
  the table's :class:`~repro.core.hashing.HashStack`, which gives both
  each victim's new target and its raw hash there, and readdresses only
  their lanes: the bucket a victim leaves is its new alternate;
* phase two classifies every locked warp in one pass: ``np.equal``
  writes ``own|alt == key`` and ``own == EMPTY`` into a preallocated
  predicate buffer whose last row is all true, and one ``argmax`` per
  warp finds the first true entry, whose row is the outcome (upsert,
  alternate hit, place, evict) and offset the slot; a hazard-free
  round lands all its value writes as one scatter;
* bucket inspection and writes address every subtable through one flat
  arena (:meth:`~repro.core.table.DyCuckooTable.flat_storage`): bucket
  ``b`` of subtable ``t`` is arena row ``row_offset[t] + b``, so each
  is one gather or scatter per round.  Lock ids, sanitizer addresses
  and profiler keys stay ``(t << 40) | b``;
* placements are counted per subtable once, when the launch ends (also
  when it raises), from the lanes that completed, and added to
  ``Subtable.size``.

Conformance contract
--------------------
The cohort engine is **bit-for-bit conformant** with the per-warp
engine: identical table storage after a run, identical
``(values, found, removed)`` outputs, and identical aggregate cost
counters (rounds, memory transactions, lock acquisitions/conflicts,
evictions, votes).  Three mechanisms make that exact rather than
approximate:

1. **Identical scheduling randomness.**  Both engines take every
   round's scheduler permutation from
   :func:`~repro.gpusim.kernel.round_orders` over
   ``np.random.default_rng(0)``, and every order-sensitive decision
   (lock arbitration, victim-counter consumption) is ranked by each
   warp's position in that permutation — the order the reference
   engine steps them in.

2. **Hazard-exact phase two.**  Within one round, a locked warp only
   ever writes *keys* into its own locked bucket, so every other
   warp's own-bucket ballots are stable and the round can be applied
   from a start-of-round snapshot — *except* when carried keys
   coincide.  A round is hazardous iff some key is carried twice: by
   two locked warps, or by one warp and as another warp's victim (the
   victim then sits in the carrier's alternate bucket, which the
   carrier probes).  A hazardous round replays its locked warps one by
   one in permutation order on the live arena
   (:func:`_replay_in_order`), the way the reference scheduler steps
   them.  Fault-free unique-key workloads essentially never trip the
   hazard.

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
(one warp processes ops sequentially), so their cohort forms run the
host path's one-pass probe as a one-part
:func:`~repro.core.batch_ops.probe_parts` call, read or clear the
located slots, and reproduce the transaction accounting from the
probe/hit structure.
"""

from __future__ import annotations

import numpy as np

from repro.core import batch_ops
from repro.core.subtable import EMPTY
from repro.errors import CapacityError
from repro.gpusim.kernel import round_orders
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
#: Per lane ``l``: the ballot mask with bit ``l`` cleared.
_LANE_CLEAR = ~(_ONE << np.arange(32, dtype=np.uint64))
#: Per lane ``l``: the ballot mask of the lanes after ``l`` (none after
#: lane 31, where the voter's scan wraps to a full ballot anyway).
_LANES_AFTER = _U32_MASK & ~((_ONE << np.arange(1, 33, dtype=np.uint64))
                             - _ONE)
#: Bit positions of a warp's lanes, for expanding ballots per lane.
_LANE_BITS = np.arange(32, dtype=np.uint64)
_BUCKET_MASK = (1 << 40) - 1
_NO_WARPS = np.zeros(0, dtype=np.int64)
_NOTHING_HELD = (_NO_WARPS,) * 4

#: Phase-two outcomes, in predicate-block order (see :func:`_phase_two`).
_UPSERT, _ALT_HIT, _PLACE, _EVICT = range(4)


def _repeats(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether some value occurs twice among ``a`` and ``b``."""
    ids = np.concatenate((a, b))
    ids.sort()
    return bool(np.count_nonzero(ids[1:] == ids[:-1]))


def _ctz(masks: np.ndarray) -> np.ndarray:
    """Count trailing zeros of nonzero uint64 masks (vectorized ffs)."""
    low = masks & (~masks + _ONE)
    # Isolated low bits are exact powers of two < 2**53: log2 is exact.
    return np.log2(low.astype(np.float64)).astype(np.int64)


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

    n = len(batch)
    values = np.zeros(n, dtype=np.uint64)
    result = KernelRunResult()
    if n == 0:
        return values, np.zeros(0, dtype=bool), result

    def read(t: int, buckets: np.ndarray, slots: np.ndarray,
             sel: np.ndarray) -> None:
        values[sel] = table.subtables[t].values[buckets, slots]

    (found, missed), = batch_ops.probe_parts([(batch, read)])
    result.memory_transactions = n + missed
    result.completed_ops = n
    result.rounds = n  # one warp processes queries sequentially
    san = table.sanitizer
    if san.enabled:
        # One sanitizer feed per launch, the same count the per-warp
        # walk reports, so stats conform.
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
    result = KernelRunResult()
    if n == 0:
        return np.zeros(0, dtype=bool), result

    # Distinct keys never interact (clearing one key's slot cannot make
    # another key appear or vanish), so only first occurrences can hit.
    # Without duplicates the batch is probed as is.
    keep = first_occurrence_mask(batch.codes)
    unique_idx = None if keep.all() else keep.nonzero()[0]
    unique = batch if unique_idx is None else batch[unique_idx]
    san = table.sanitizer

    def clear(t: int, buckets: np.ndarray, slots: np.ndarray,
              sel: np.ndarray) -> None:
        table.subtables[t].clear_slots(buckets, slots)
        if san.enabled:
            # Same access log as the per-warp engine: one
            # lock-free slot-clear write per removal (exempt
            # from the locking contract — see run_delete_kernel).
            for b in buckets:
                san.record_access(0, "write", "bucket",
                                  (t << 40) | int(b),
                                  site=_SITE_DELETE)

    (removed_unique, missed), = batch_ops.probe_parts([(unique, clear)])
    removed = removed_unique
    if unique_idx is not None:
        removed = np.zeros(n, dtype=bool)
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
    """All resident warps of one insert launch, structure-of-arrays.

    Per-lane arrays are flat: lane ``l`` of warp ``w`` is element
    ``w * 32 + l``, so a round gathers its leaders with one index.
    """

    def __init__(self, table, batch, values: np.ndarray,
                 targets: np.ndarray, voter: bool) -> None:
        #: The launch's storage arena, bucket resolver and stacked
        #: hashes (subtable ``t``'s as member ``t``, the pair hash's as
        #: member ``d``); a launch never resizes, so all three hold for
        #: every round.
        self.arena = table.flat_storage()
        self.bucket_of = table.bucket_resolver()
        self.hashes = table.hash_stack
        self.voter = voter
        n = self.num_ops = len(batch)
        width = WARP_WIDTH
        self.num_warps = (n + width - 1) // width
        W = self.num_warps
        lanes = W * width
        #: Per lane: its key and value.
        self.keys = np.zeros(lanes, dtype=np.uint64)
        self.values = np.zeros(lanes, dtype=np.uint64)
        self.keys[:n] = batch.codes
        self.values[:n] = values
        #: Per lane, row 0 for its target subtable and row 1 for the
        #: other subtable of its key's pair: the arena row of the key's
        #: bucket there and that bucket's lock id ``(t << 40) | b``.
        #: Resolved here for the whole launch with one resolver call; a
        #: round readdresses only the lanes an eviction handed a victim.
        self.rows = np.zeros((2, lanes), dtype=np.int64)
        self.locks = np.zeros((2, lanes), dtype=np.int64)
        #: Row 0 of :attr:`locks`: each lane's target-bucket lock.
        self.lock = self.locks[0]
        tables = np.stack((targets, batch.first + batch.second - targets))
        pairs = batch.candidate_raw
        buckets = self.bucket_of(
            tables.ravel(),
            np.where(targets == batch.first, pairs, pairs[::-1]).ravel()
        ).reshape(tables.shape)
        self.rows[:, :n] = self.arena.row_offset[tables] + buckets
        self.locks[:, :n] = (tables << 40) | buckets
        #: Lane ballots: bit ``l`` set while lane ``l`` still has work.
        self.active = np.zeros(W, dtype=np.uint64)
        full, rem = divmod(n, width)
        self.active[:full] = _U32_MASK
        if rem:
            self.active[full] = (_ONE << np.uint64(rem)) - _ONE
        #: Voter scheme: the lanes the next election scans first (the
        #: start lane and those after it), as a ballot mask.
        self.start = np.full(W, _U32_MASK, dtype=np.uint64)
        #: Consecutive lock-failure rounds (stall detector).
        self.stalled = np.zeros(W, dtype=np.int64)
        #: Program counter, effectively: the warps holding a lock, in
        #: ascending order, with their leaders' flat lanes, the lock ids
        #: they hold (their lanes' target buckets) and their leaders'
        #: lanes within the warp.  Phase one sets them, and the next
        #: round's phase two completes and releases.
        self.held = _NOTHING_HELD
        self.num_tables = table.num_tables
        #: Per lane: its op completed by an upsert or an alternate hit,
        #: so its completion placed no entry (see :meth:`placements`).
        self.unplaced = np.zeros(lanes, dtype=bool)
        #: Phase two's predicates per locked warp: ``own == key``,
        #: ``alt == key``, ``own == EMPTY`` and an all-true "evict" row,
        #: so the first true entry is the outcome and the slot.
        self.cap = np.int64(self.arena.keys.shape[1])
        self.pred = np.ones((W, 4, self.cap), dtype=bool)
        #: Per-lane eviction-chain depth; allocated only when a profiler
        #: is attached (see :func:`cohort_insert`), ``None`` otherwise.
        self.depth: np.ndarray | None = None

    def placements(self) -> list[int]:
        """Entries placed so far, per subtable.

        A lane places at most once: its op completes by a placement
        unless :attr:`unplaced` says otherwise, and a completed lane
        keeps the target it completed on, so counting once per launch
        equals counting per round.
        """
        n = self.num_ops
        done = (self.active[:, None] >> _LANE_BITS) & _ONE == 0
        placed = done.ravel()[:n] & ~self.unplaced[:n]
        return np.bincount(self.lock[:n][placed] >> 40,
                           minlength=self.num_tables).tolist()


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
    state = _CohortState(table, batch, np.asarray(values, dtype=np.uint64),
                         np.asarray(targets, dtype=np.int64), voter)
    orders = round_orders(np.random.default_rng(0), state.num_warps)
    rounds = 0
    san = table.sanitizer
    prof = table.profiler
    fp = faults if (faults is not None and faults.enabled) else None
    #: Buckets camped on by an injected holder stall -> rounds left;
    #: the cohort-local mirror of ``LockArbiter._stalled``.
    stalled_locks: dict[int, int] = {}
    if prof.enabled:
        state.depth = np.zeros(len(state.keys), dtype=np.int64)
    # Occupancy tracked as plain ints so the per-round profiler sample
    # costs little: live lanes fall as ops complete, and the locked
    # count entering a round is exactly last round's winner count
    # (every held lock is released in its phase two).  A warp is
    # resident while its ballot is nonempty: a lock holder's leader lane
    # is still live.
    live_lanes = len(batch)
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
                round_samples.append((int(np.count_nonzero(state.active)),
                                      live_lanes, locked_count,
                                      result.evictions,
                                      result.completed_ops))
            _order, pos = next(orders)
            # Lock holders at round start complete and release at their
            # permutation position, which phase-one arbitration needs;
            # phase one takes the other warps with live lanes.
            ph2, h_lane, h_lock, h_leader = state.held
            holder_pos = pos[ph2]
            candidates = state.active != 0
            candidates[ph2] = False
            ph1 = candidates.nonzero()[0]
            if locked_count:
                hazard, n_done = _phase_two(
                    table, state, result, ph2, h_lane, h_lock, h_leader,
                    pos, san, prof)
                state.held = _NOTHING_HELD
                live_lanes -= n_done
                if hazard:
                    hazard_rounds += 1
                    hazard_lanes += locked_count
                    if prof.enabled:
                        prof.note_hazard(locked_count)
            locked_count = 0
            if len(ph1):
                locked_count = _phase_one(
                    table, state, result, ph1, pos, h_lock, holder_pos,
                    max_rounds_per_op, san, prof, fp, stalled_locks)
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
        held_warps, _lanes, held_locks, _leaders = state.held
        if san.enabled:
            for w, lid in zip(held_warps.tolist(), held_locks.tolist()):
                san.on_unwind_release(w, lid, site=_SITE_UNWIND)
        state.held = _NOTHING_HELD
        raise
    finally:
        # Every placement so far is in storage, raised or not; the warp
        # engine counts each one as it lands.
        for st, n in zip(table.subtables, state.placements()):
            st.size += n
        if prof.enabled and round_samples:
            prof.record_rounds_many(round_samples)
        if san.enabled and result.memory_transactions:
            # One sanitizer feed per launch, raised or not, like the
            # per-warp engine's.
            san.on_transactions(result.memory_transactions)
    result.rounds = rounds
    result.hazard_rounds = hazard_rounds
    result.hazard_lanes = hazard_lanes
    return result


def _phase_one(table, state: _CohortState, result, ph1: np.ndarray,
               pos: np.ndarray, holder_ids: np.ndarray,
               holder_pos: np.ndarray, max_stall: int, san=NULL_SANITIZER,
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
    if state.voter:
        # The first active lane at-or-after the start lane, else the
        # first active lane (the scan wraps around the warp).
        at_or_after = m & state.start[ph1]
        leader = _ctz(np.where(at_or_after != 0, at_or_after, m))
    else:
        leader = _ctz(m)
    lane = ph1 * WARP_WIDTH + leader
    lock_id = state.lock[lane]
    my_pos = pos[ph1]

    # Arbitration: within this round, a request succeeds iff its lock is
    # not blocked by a phase-two holder stepping later (holders release
    # at their own position) and no earlier request already took it —
    # exactly what the per-request LockArbiter sees when the reference
    # scheduler steps warps in permutation order.  When no lock id
    # repeats among the candidates and the holders, and no injected
    # stall camps on a bucket, every candidate wins.
    win = None
    if stalled_locks or _repeats(lock_id, holder_ids):
        win, blocker_row = _arbitrate(lock_id, my_pos, holder_ids,
                                      holder_pos, stalled_locks)
        n_win = int(np.count_nonzero(win))
    else:
        n_win = len(ph1)
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
            if win is None:
                blocker_row = np.full(len(ph1), -1, dtype=np.int64)
            win = _phase_one_fault_walk(fp, stalled_locks, lock_id,
                                        my_pos, blocker_row, san)
            n_win = int(np.count_nonzero(win))
        else:
            fp.advance("lock.acquire", n_win)
            fp.advance("lock.stall", n_win)
    result.lock_acquisitions += n_win
    result.lock_conflicts += len(ph1) - n_win
    # Phase one of a won lock: one coalesced bucket read issued.
    result.memory_transactions += n_win
    if win is not None:
        lose = ~win
        l_idx, l_leader, l_lock = ph1[lose], leader[lose], lock_id[lose]
        ph1, lane, lock_id, leader = (ph1[win], lane[win], lock_id[win],
                                      leader[win])
    if prof.enabled:
        # Same grant/conflict attribution the LockArbiter hook makes on
        # the reference path: winners acquired their leader's bucket
        # lock, losers conflicted on theirs.
        prof.lock_grants_many(lock_id)
        if win is not None:
            prof.lock_conflicts_many(l_lock)

    state.held = (ph1, lane, lock_id, leader)
    state.stalled[ph1] = 0
    if san.enabled:
        for i, w in enumerate(ph1):
            san.on_lock_acquire(int(w), int(lock_id[i]), site=_SITE_PH1)
            san.record_access(int(w), "read", "bucket", int(lock_id[i]),
                              site=_SITE_PH1)

    if win is not None and len(l_idx):
        if state.voter:
            state.start[l_idx] = _LANES_AFTER[l_leader]
        state.stalled[l_idx] += 1
        if np.count_nonzero(state.stalled[l_idx] > max_stall):
            raise CapacityError(
                "insert kernel stalled: no lock progress "
                f"after {max_stall} rounds"
            )
    return n_win


def _arbitrate(lock_id: np.ndarray, my_pos: np.ndarray,
               holder_ids: np.ndarray, holder_pos: np.ndarray,
               stalled_locks: dict | None) -> tuple[np.ndarray, np.ndarray]:
    """Sorted-group lock arbitration for a round whose lock ids collide.

    Returns the win mask over the candidates and, per candidate, the
    permutation position of the phase-two holder of its lock (-1 if
    none).
    """
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
    win = np.zeros(len(lock_id), dtype=bool)
    win[order] = winner_s
    blocker_row = np.empty(len(lock_id), dtype=np.int64)
    blocker_row[order] = blocker
    return win, blocker_row


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
               lane: np.ndarray, lock: np.ndarray, leader: np.ndarray,
               pos: np.ndarray, san=NULL_SANITIZER,
               prof=NULL_PROFILER) -> tuple[bool, int]:
    """Complete every held lock: upsert, place, or evict, then release.

    Classifies all locked warps from a start-of-round snapshot in one
    pass: one gather reads each warp's own and alternate bucket, and
    the first true entry of its ``[own == key | alt == key |
    own == EMPTY | True]`` predicate rows (:attr:`_CohortState.pred`)
    gives the outcome (its row: upsert, alternate hit, place, evict)
    and the slot (its offset).  When a key-coincidence hazard makes the
    order of operations observable, :func:`_replay_in_order` steps the
    warps in permutation order instead.  ``ph2``, ``lane``, ``lock``
    and ``leader`` are the held locks (:attr:`_CohortState.held`).  Returns
    ``(hazard, n_done)``: whether the round was hazardous and how many
    lanes completed.
    """
    arena = state.arena
    cap = state.cap
    mcount = len(ph2)
    rows = state.rows.take(lane, axis=1)
    row = rows[0]
    # Alternate-bucket lock ids for the access log, read before an
    # eviction below readdresses its lane.
    alt_lock = state.locks[1][lane] if san.enabled else None
    key = state.keys[lane]
    val = state.values[lane]

    # Own buckets then alternates, one gather: (2, mcount, cap).
    block = arena.keys.take(rows, axis=0)
    own = block[0]
    pred = state.pred[:mcount]
    np.equal(block.transpose(1, 0, 2), key[:, None, None],
             out=pred[:, :2])
    np.logical_not(own, out=pred[:, 2])  # own == EMPTY
    kind, slot = np.divmod(pred.reshape(mcount, -1).argmax(axis=1), cap)
    n_up, n_ahit, n_place, n_evict = np.bincount(
        kind, minlength=_EVICT + 1).tolist()
    if n_evict:
        evict = (kind == _EVICT).nonzero()[0]
        vict_rank = np.empty(n_evict, dtype=np.int64)
        vict_rank[pos[ph2[evict]].argsort(kind="stable")] = np.arange(
            n_evict)
        vslot = (table._victim_counter + vict_rank
                 + (lock[evict] & _BUCKET_MASK)) % cap
        victim_key = own[evict, vslot]

    # Hazard: a key carried twice, by two locked warps or by one warp
    # and as another's victim.  Only then can a warp observe what an
    # earlier one wrote this round: a second copy of its key, or its
    # alternate-bucket hit evicted (a victim stored in the evicting
    # bucket is in its carrier's alternate bucket).
    hazard = mcount > 1 and _repeats(key, victim_key if n_evict
                                     else _NO_WARPS)

    if hazard:
        # The replay steps the warps on a copy of the round's buckets
        # (own rows first, then alternates), which lands in one scatter.
        touched, local = np.unique(rows.ravel(), return_inverse=True)
        keys, values = arena.keys[touched], arena.values[touched]
        kind, evict, victim_key, victim_val = _replay_in_order(
            table, state, ph2, pos, keys, values, local, key, val, lock)
        arena.keys[touched] = keys
        arena.values[touched] = values
        n_up, n_ahit, n_place, n_evict = np.bincount(
            kind, minlength=_EVICT + 1).tolist()
    else:
        # Every outcome writes its value (an alternate hit into the
        # alternate bucket) and all but the alternate hit write their
        # key into the own bucket (an upsert rewrites its own key).
        # Without a hazard no two warps write one slot.
        if n_evict:
            victim_val = arena.values[row[evict], vslot]
            slot[evict] = vslot
        to_alt = kind == _ALT_HIT if n_ahit else None
        wrow = row if to_alt is None else np.where(to_alt, rows[1], row)
        arena.values[wrow, slot] = val
        kw = slice(None) if to_alt is None else (~to_alt).nonzero()[0]
        arena.keys[row[kw], slot[kw]] = key[kw]
    done = (kind != _EVICT).nonzero()[0] if n_evict else None

    # Upserts pay one write; every miss pays the alternate read, then
    # one more write whichever way it resolves (value / place / swap).
    result.memory_transactions += n_up + 2 * (mcount - n_up)
    result.completed_ops += n_up + n_ahit + n_place
    result.evictions += n_evict
    if n_up or n_ahit:
        state.unplaced[lane[kind < _PLACE]] = True
    d_warp, d_leader = (ph2, leader) if done is None else (ph2[done],
                                                           leader[done])
    n_done = len(d_warp)
    if n_done:
        state.active[d_warp] &= _LANE_CLEAR[d_leader]
        if state.voter:
            state.start[d_warp] = _LANES_AFTER[d_leader]
        if state.depth is not None:
            prof.observe_chains(state.depth[
                lane if done is None else lane[done]])
    if n_evict:
        table._victim_counter += n_evict
        # The evicted pair continues on the leader's lane, retargeted
        # at the victim's alternate subtable; the lane stays active.
        # The bucket the victim leaves is its bucket in the subtable it
        # leaves, now its alternate.  One hash pass under every member
        # gives the victim's pair (last column) and so its new target,
        # and its raw hash there.
        e_lane, e_lock = lane[evict], lock[evict]
        d = table.num_tables
        raw = state.hashes.raw_all(victim_key)
        pair_hash = table.pair_hash
        new_t = pair_hash.alternates_of(e_lock >> 40,
                                        pair_hash.partition_of_raw(raw[:, d]))
        bucket = state.bucket_of(
            new_t, raw[np.arange(len(new_t)), new_t].view(np.int64))
        state.keys[e_lane] = victim_key
        state.values[e_lane] = victim_val
        state.rows[1][e_lane] = row[evict]
        state.locks[1][e_lane] = e_lock
        state.rows[0][e_lane] = arena.row_offset[new_t] + bucket
        state.lock[e_lane] = (new_t << 40) | bucket
        if state.depth is not None:
            # The victims continue on their lanes one eviction deeper.
            state.depth[e_lane] += 1

    if san.enabled:
        # Mirror the warp engine's per-warp access log for this round:
        # upsert/place/evict are bucket writes under the warp's own
        # lock; an alternate-bucket probe is a sanctioned lock-free
        # read, and an alternate hit is a single-word value update.
        for w, lid, a_lock, k in zip(ph2.tolist(), lock.tolist(),
                                     alt_lock.tolist(), kind.tolist()):
            if k == _UPSERT:
                san.record_access(w, "write", "bucket", lid,
                                  site=_SITE_PH2)
            else:
                san.record_access(w, "probe", "bucket", a_lock,
                                  site=_SITE_PH2)
                if k == _ALT_HIT:
                    san.record_access(w, "atomic", "value", a_lock,
                                      site=_SITE_PH2)
                else:
                    san.record_access(w, "write", "bucket", lid,
                                      site=_SITE_PH2)
            san.on_lock_release(w, lid, site=_SITE_PH2)
    return hazard, n_done


def _replay_in_order(table, state: _CohortState, ph2: np.ndarray,
                     pos: np.ndarray, keys: np.ndarray, values: np.ndarray,
                     local: np.ndarray, key: np.ndarray, val: np.ndarray,
                     lock: np.ndarray):
    """Complete a hazardous round's locked warps one at a time.

    ``keys``/``values`` hold the round's buckets; ``local[i]`` is the
    row of ``ph2[i]``'s own bucket and ``local[len(ph2) + i]`` that of
    its alternate, and ``lock[i]`` its own bucket's lock id.  Steps the
    warps in permutation order, as the reference scheduler does: each
    takes the first true test of ``[own == key | alt == key |
    own == EMPTY | evict]`` — the order of
    :meth:`repro.kernels.insert._InsertWarp._complete_locked` — and
    writes into ``keys``/``values`` before the next warp looks.
    Returns ``(kind, evict, victim_key, victim_val)`` over the rows of
    ``ph2``.
    """
    m = len(ph2)
    cap = keys.shape[1]
    own_row, alt_row = local[:m].tolist(), local[m:].tolist()
    bkt = (lock & _BUCKET_MASK).tolist()
    pred = state.pred[0]
    kind = np.empty(m, dtype=np.int64)
    vkey = np.zeros(m, dtype=np.uint64)
    vval = np.zeros(m, dtype=np.uint64)
    counter = table._victim_counter
    for i in pos[ph2].argsort().tolist():
        r, a, k, v = own_row[i], alt_row[i], key[i], val[i]
        own = keys[r]
        np.equal(own, k, out=pred[0])
        np.equal(keys[a], k, out=pred[1])
        np.equal(own, EMPTY, out=pred[2])
        outcome, slot = divmod(int(pred.argmax()), cap)
        kind[i] = outcome
        if outcome == _ALT_HIT:
            values[a, slot] = v
            continue
        if outcome == _EVICT:
            slot = (counter + bkt[i]) % cap
            counter += 1
            vkey[i], vval[i] = keys[r, slot], values[r, slot]
        keys[r, slot] = k
        values[r, slot] = v
    evict = (kind == _EVICT).nonzero()[0]
    return kind, evict, vkey[evict], vval[evict]
