"""Mixed-operation batches (an extension beyond the paper).

The paper assumes every batch contains one operation type and notes
that a mixed batch's semantics are ambiguous under parallel execution.
We resolve the ambiguity the way bulk-synchronous systems do: a mixed
batch executes as a *deterministic sequence of homogeneous sub-batches*
(runs), one run at a time.  The contract is program order *per key*:
every FIND and DELETE answers as if the batch's operations ran one by
one in arrival order, so ``insert k; delete k; find k`` misses.  Within
a run the usual batched semantics apply (last-writer-wins for duplicate
inserts, first occurrence wins for duplicate deletes), which for a
key's consecutive same-kind operations is what running them in order
gives.  Operations on different keys commute, so the host path plans
its runs by key (:func:`plan_runs`): one run per kind wherever the
keys allow, and never more runs than the maximal same-kind runs of the
arrival order (:func:`op_runs`).  The kernel engines still run those
arrival runs: they lose in-run last-writer-wins upserts at high fill,
and a plan puts more of a key's upserts into one run.

This gives mixed workloads a well-defined, testable meaning while
preserving the batched execution model the cost accounting assumes.
A batch that raises part-way leaves each table with a prefix of its
plan applied (see :func:`run_waves`).

Key encoding and hashing are position-pure — they depend only on the
key, never on table geometry — so :class:`EncodedBatch` computes them
once for the whole mixed batch and every homogeneous run executes on a
view of it.  A key is hashed under its two candidate subtables only,
whatever ``d`` is: those hold the only buckets it ever reads.

Every host op is an op body (:func:`host_body`) run by
:func:`run_bodies`, whether one table runs it or every shard of a
sharded batch does: a lone table is a wave of one part.  Each round,
:func:`probe_parts` serves the bodies' probe requests in one pass and
:func:`place_parts` their eviction rounds' placement requests in
another.  :func:`run_waves` is the one host loop over a mixed batch's
runs, for one table (:func:`execute_mixed`) and for every shard of a
sharded batch alike.  ``engine="warp" | "cohort"`` routes the runs
through the lane-faithful kernels instead of the vectorized host path
(see :mod:`repro.kernels.engine`).
"""

from __future__ import annotations

from collections.abc import Callable, Generator, Iterable, Sequence
from contextlib import nullcontext
from dataclasses import dataclass
from itertools import accumulate
from typing import Any, NamedTuple

import numpy as np

from repro.core.grouping import rank_within_group
from repro.core.subtable import EMPTY, claim_slots, match_slots
from repro.errors import InvalidConfigError, InvalidKeyError

#: Human-readable names for op codes (trace event labelling).
_KIND_NAMES = {0: "insert", 1: "find", 2: "delete"}

#: Operation codes for the vectorized mixed interface.
OP_INSERT = 0
OP_FIND = 1
OP_DELETE = 2

_VALID_OPS = (OP_INSERT, OP_FIND, OP_DELETE)

#: Most bucket rows one probe block holds.  A probe gathers a (rows,
#: bucket_capacity) block of slots: 1 MB at 32 slots, where both
#: buckets of a 100k-key batch would be 51 MB.  Blocks that large may
#: land in fresh mappings on top of the heap, so an unbounded probe
#: sets the process's peak RSS.
PROBE_CHUNK = 4096

#: Most keys one round's stacked placement pass holds (see
#: :func:`run_bodies`).  A request that would take the pass past it
#: places at once, alone, so a bulk insert into several shards holds
#: one shard's large round at a time, as a lone table does, rather
#: than every shard's round and one block for all of them.
PLACE_CHUNK = 4096

#: Low 40 bits of a ``(t << 40) | bucket`` group id: the bucket.
_BUCKET_MASK = (1 << 40) - 1

#: ``touch(t, buckets, slots, sel)``: serves the probe hits in subtable
#: ``t`` (see :func:`probe_parts`).
Touch = Callable[[int, np.ndarray, np.ndarray, np.ndarray], None]

#: A probe request: a batch and the touch that serves its hits.
ProbeRequest = tuple["EncodedBatch", Touch]


class PlaceRequest(NamedTuple):
    """One eviction round's keys of one table (see :func:`place_parts`).

    ``targets`` is ascending (the round groups its keys by subtable) and
    ``buckets`` resolves each key in its target; ``excluded`` and
    ``retry_hist`` are the round's, as the table books its placements
    with them (see ``DyCuckooTable._settle_round``).
    """

    table: Any
    codes: np.ndarray
    values: np.ndarray
    targets: np.ndarray
    buckets: np.ndarray
    excluded: int | None
    retry_hist: Any


#: A placement reply: ``(placed, leaders, n_placed)``.
PlaceReply = tuple[np.ndarray, np.ndarray, np.ndarray]

#: An op body (see :func:`run_bodies`): yields probe and placement
#: requests, receives each one's reply and returns the op's result.
OpBody = Generator["ProbeRequest | PlaceRequest", Any, Any]


class EncodedBatch:
    """Hashes for one key batch, computed once and shared by its views.

    ``codes`` (the canonical uint64 encoding), the pair-hash targets
    ``first``/``second``, and :attr:`candidate_raw` — each code's 31-bit
    raw hash under its first and under its second subtable, the only
    two subtables a key ever reads — are pure functions of the keys.
    In particular the raw hashes survive resizes, because a resize only
    changes the power-of-two mask applied by
    :meth:`~repro.core.hashing.UniversalHash.bucket_from_raw`.
    Everything is evaluated lazily so a batch never pays for hashes it
    does not use.  Indexing a batch by a slice or an index array
    returns a view whose hashes are read from this batch's caches,
    never recomputed.  A batch built by :meth:`hashed` arrives with its
    caches filled and also carries the router's coin :attr:`draw`.
    """

    def __init__(self, table, keys) -> None:
        from repro.core.table import encode_keys

        self.table = table
        self.codes = encode_keys(np.asarray(keys, dtype=np.uint64))
        self._pair: np.ndarray | None = None
        self._candidates: np.ndarray | None = None
        self._draw: np.ndarray | None = None

    @classmethod
    def hashed(cls, table, codes: np.ndarray, pair: np.ndarray,
               candidate_raw: np.ndarray, draw: np.ndarray
               ) -> "EncodedBatch":
        """A batch of encoded ``codes`` whose caches are already filled.

        ``pair`` holds the ``first``/``second`` pair targets as the rows
        of an ``int64[2, n]`` array, ``candidate_raw`` the
        ``uint32[2, n]`` raw hashes under them and ``draw`` the routing
        coin's draw per key, each equal to what ``table``'s own
        functions give.  The sharded front-end hashes a batch for all of
        its shards in one stacked pass and hands each shard its slice
        this way.
        """
        batch = cls.__new__(cls)
        batch.table = table
        batch.codes = codes
        batch._pair = pair
        batch._candidates = candidate_raw
        batch._draw = draw
        return batch

    def __len__(self) -> int:
        return len(self.codes)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.codes.shape

    def __getitem__(self, index) -> "EncodedBatch":
        return _BatchView(self, index)

    @property
    def draw(self) -> np.ndarray | None:
        """The routing coin's draw per key for a batch built by
        :meth:`hashed` (and its views), else ``None``: the router then
        draws for just the keys it routes."""
        return self._draw

    @property
    def first(self) -> np.ndarray:
        return self._pairs()[0]

    @property
    def second(self) -> np.ndarray:
        return self._pairs()[1]

    def _pairs(self) -> np.ndarray:
        """``int64[2, n]``: rows ``first`` and ``second``; cached."""
        if self._pair is None:
            self._pair = self._hash_pairs()
        return self._pair

    @property
    def candidate_raw(self) -> np.ndarray:
        """``uint32[2, n]``: every code's raw hash under its ``first``
        (row 0) and its ``second`` (row 1) subtable; cached after the
        first request.  The hashes are 31-bit."""
        if self._candidates is None:
            self._candidates = self._hash_candidates()
        return self._candidates

    def raw_under(self, targets: np.ndarray) -> np.ndarray:
        """Raw hash of every code under ``targets``, one of its pair."""
        first_raw, second_raw = self.candidate_raw
        return np.where(targets == self.first, first_raw, second_raw)

    def _hash_pairs(self) -> np.ndarray:
        return self.table.pair_hash.tables_for(self.codes)

    def _hash_candidates(self) -> np.ndarray:
        return self.table.hash_stack.raw(self.codes,
                                         self._pairs()).astype(np.uint32)


class _BatchView(EncodedBatch):
    """The keys of ``parent`` at ``index``, hashed through its caches."""

    def __init__(self, parent: EncodedBatch, index) -> None:
        self.table = parent.table
        self.codes = parent.codes[index]
        self._parent = parent
        self._index = index
        self._pair = None
        self._candidates = None

    @property
    def draw(self) -> np.ndarray | None:
        draw = self._parent.draw
        return None if draw is None else draw[self._index]

    def _hash_pairs(self) -> np.ndarray:
        return self._parent._pairs()[:, self._index]

    def _hash_candidates(self) -> np.ndarray:
        return self._parent.candidate_raw[:, self._index]


def as_batch(table, keys) -> EncodedBatch:
    """``keys`` as a batch for ``table``.

    An :class:`EncodedBatch` built for ``table`` passes through as is;
    one built for another table is rejected, since its hashes are the
    other table's.  Anything else is encoded into a new batch.
    """
    if isinstance(keys, EncodedBatch):
        if keys.table is not table:
            raise InvalidKeyError("the batch was encoded for another table")
        return keys
    return EncodedBatch(table, keys)


def probe_parts(parts: Sequence[ProbeRequest]
                ) -> list[tuple[np.ndarray, int]]:
    """Two-bucket probe (Section V-A) of several batches in one pass.

    ``parts`` holds ``(batch, touch)`` requests whose batches belong to
    distinct tables.  Parts whose tables share a bucket capacity probe
    together: every key is stacked under its two candidate subtables,
    each by its global id ``table_base[part] + t`` (entry ``2i`` is key
    ``i`` in its first, ``2i + 1`` in its second), and one stable sort
    groups the entries by subtable.  Their bucket rows are gathered into
    one block per :data:`PROBE_CHUNK` entries, compared with the codes
    at once and scanned for matches.  A code is stored at most once in
    a table, so a key matches in at most one of its buckets, and
    reading the second bucket of a key found in its first changes
    nothing.  Each part's ``touch(t, buckets, slots, sel)`` then serves
    its subtable ``t``'s hits, once: the part's keys at positions
    ``sel`` (ascending) sit at slot ``slots`` of ``buckets``.

    Each table resolves its own entries' buckets through its
    :meth:`~repro.core.table.DyCuckooTable.bucket_resolver`, so a table
    in an open migration epoch keeps its dual view.  A lone part's
    arrays go to the match pass as they are: its subtables are the
    global ids.

    Returns, per part, the hit mask over its batch and the number of
    its keys that missed their first bucket, the keys a walk that reads
    the second bucket only on a miss would read it for.
    """
    results: list = [None] * len(parts)
    asking = []
    for i, (batch, _touch) in enumerate(parts):
        if len(batch):
            asking.append((i, batch.table))
        else:
            results[i] = (np.zeros(0, dtype=bool), 0)
    for members in _capacity_groups(asking):
        for i, result in zip(members,
                             _probe_group([parts[i] for i in members])):
            results[i] = result
    return results


def _capacity_groups(members) -> Iterable[list[int]]:
    """The indices of ``(index, table)`` pairs grouped by the tables'
    bucket capacity: one block holds one row width, so each capacity is
    served on its own."""
    groups: dict[int, list[int]] = {}
    for i, table in members:
        groups.setdefault(table.config.bucket_capacity, []).append(i)
    return groups.values()


def _probe_group(parts: list[ProbeRequest]
                 ) -> list[tuple[np.ndarray, int]]:
    """:func:`probe_parts` of one or more non-empty parts of one bucket
    capacity."""
    width = sum(batch.table.num_tables for batch, _touch in parts)
    # A part's subtable t is global subtable base + t, where base counts
    # the subtables of the parts before it.
    subtables, targets, buckets, codes = [], [], [], []
    for batch, _touch in parts:
        table = batch.table
        part_targets = _pair_targets(batch, width)
        # Each table resolves its own entries, so a table in an open
        # migration epoch keeps its dual view.
        buckets.append(table.bucket_resolver()(
            part_targets, batch.candidate_raw.T.ravel()))
        if subtables:
            part_targets += len(subtables)
        targets.append(part_targets)
        codes.append(batch.codes)
        subtables += table.subtables
    buckets = _stacked(buckets)
    hit, entry, key, slot, at_cuts = _match(
        subtables, _stacked(targets), buckets, _stacked(codes),
        parts[0][0].table.config.bucket_capacity)
    hit_buckets = buckets[entry]
    in_second = entry & 1
    results = []
    lo = base = 0  # the part's first key and first global subtable
    for batch, touch in parts:
        hi = lo + len(batch)
        d = batch.table.num_tables
        part_cuts = at_cuts[base:base + d + 1]
        # The part's matches, with its keys renumbered from 0.
        first_hit, last_hit = part_cuts[0], part_cuts[-1]
        if lo:
            key[first_hit:last_hit] -= lo
        for t, (a, b) in enumerate(zip(part_cuts, part_cuts[1:])):
            if a < b:
                touch(t, hit_buckets[a:b], slot[a:b], key[a:b])
        second = int(np.count_nonzero(in_second[first_hit:last_hit]))
        results.append((hit[lo:hi],
                        hi - lo - (last_hit - first_hit) + second))
        lo = hi
        base += d
    return results


def _pair_targets(batch: EncodedBatch, width: int) -> np.ndarray:
    """Entries ``2i`` and ``2i + 1``: the batch's ``first[i]`` and
    ``second[i]``, in the narrowest unsigned type holding ids below
    ``width``, which numpy's stable sort orders by radix instead of by
    merging."""
    targets = np.empty(2 * len(batch), dtype=np.min_scalar_type(width - 1))
    targets[0::2] = batch.first
    targets[1::2] = batch.second
    return targets


def _match(subtables, targets: np.ndarray, buckets: np.ndarray,
           codes: np.ndarray, capacity: int):
    """The match pass of a probe over stacked entries (see
    :func:`probe_parts`): entry ``e`` is key ``e >> 1`` in global
    subtable ``targets[e]`` at bucket ``buckets[e]``.

    Returns the hit mask over the keys, the matched entries in sorted
    order with their keys and slots, and the cuts of that order at each
    subtable.
    """
    n = len(codes)
    # A stable sort keeps each subtable's entries ascending.
    order = targets.argsort(kind="stable")
    cuts = targets[order].searchsorted(np.arange(len(subtables) + 1))
    cuts = cuts.tolist()
    block = np.empty((min(2 * n, PROBE_CHUNK), capacity), dtype=np.uint64)
    match = np.empty(block.shape, dtype=bool)
    # Sorted positions of the matches, ascending, and their slots.
    found, slots = [], []
    for lo in range(0, 2 * n, PROBE_CHUNK):
        entries = order[lo:lo + PROBE_CHUNK]
        m = len(entries)
        block_buckets = buckets[entries]
        for g, st in enumerate(subtables):
            a, b = max(cuts[g], lo) - lo, min(cuts[g + 1], lo + m) - lo
            if a < b:
                st.keys.take(block_buckets[a:b], axis=0, out=block[a:b],
                             mode="clip")
        rows, slot = match_slots(block[:m], codes[entries >> 1],
                                 out=match[:m])
        found.append(rows + lo if lo else rows)
        slots.append(slot)
    at = _stacked(found)
    entry = order[at]
    key = entry >> 1
    hit = np.zeros(n, dtype=bool)
    hit[key] = True
    return hit, entry, key, _stacked(slots), at.searchsorted(cuts).tolist()


def place_parts(parts: Sequence[PlaceRequest]) -> list[PlaceReply]:
    """One eviction round's placement pass over several tables' keys.

    ``parts`` holds the :class:`PlaceRequest` of one round of distinct
    tables.  Parts whose tables share a bucket capacity place together:
    part ``p``'s subtable ``t`` is global subtable ``table_base[p] + t``,
    so the stacked keys stay sorted by global subtable.  One
    :func:`~repro.core.grouping.rank_within_group` call ranks the keys
    aiming at each bucket (the warp-vote order), one gather per global
    subtable reads every claimed bucket into one block, and one
    :func:`~repro.core.subtable.claim_slots` call gives the ``k``-th
    claimant of a bucket its ``k``-th free slot.  A bucket's first
    claimant that finds it full is its eviction leader.  Each table
    then writes its own slots, books its lock conflicts and migrates
    on access, subtable by subtable in index order
    (``DyCuckooTable._settle_round``); the block read up front stays
    valid, as a table moves entries only within its own subtables.

    Returns, per part, ``(placed, leaders, n_placed)``: the keys written
    to a free slot, the eviction leaders (a migrated bucket's leader is
    not one) and the table's per-subtable placement counts.
    """
    results: list = [None] * len(parts)
    for members in _capacity_groups(
            (i, request.table) for i, request in enumerate(parts)):
        for i, result in zip(members,
                             _place_group([parts[i] for i in members])):
            results[i] = result
    return results


def _place_group(parts: list[PlaceRequest]) -> list[PlaceReply]:
    """:func:`place_parts` of one or more parts of one bucket capacity."""
    tables = [req.table for req in parts]
    capacity = tables[0].config.bucket_capacity
    table_base = list(accumulate((table.num_tables for table in tables),
                                 initial=0))
    targets = _stacked([req.targets + base if base else req.targets
                        for req, base in zip(parts, table_base)])
    buckets = _stacked([req.buckets for req in parts])
    placed, slots, leaders = _claim(
        [st for table in tables for st in table.subtables], targets,
        buckets, capacity)
    items, cuts = _placed_items(placed, targets, table_base[-1])
    # Every placed key's flat slot, code and value, in key order.
    flat = buckets[items] * capacity + slots
    codes = _stacked([req.codes for req in parts])[items]
    values = _stacked([req.values for req in parts])[items]
    n_placed = np.diff(cuts[1])
    key_cuts, item_cuts = cuts.tolist()
    results = []
    for req, t0, t1 in zip(parts, table_base, table_base[1:]):
        # The part's keys and placements, with its cuts renumbered
        # from 0.
        lo, hi = key_cuts[t0], key_cuts[t1]
        a, b = item_cuts[t0], item_cuts[t1]
        part_leaders = leaders[lo:hi]
        req.table._settle_round(
            req, part_leaders, flat[a:b], codes[a:b], values[a:b],
            [[cut - lo for cut in key_cuts[t0:t1 + 1]],
             [cut - a for cut in item_cuts[t0:t1 + 1]]])
        results.append((placed[lo:hi], part_leaders, n_placed[t0:t1]))
    return results


def _stacked(arrays: list[np.ndarray]) -> np.ndarray:
    """``arrays`` end to end; a lone array as it is, uncopied."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


def _placed_items(placed: np.ndarray, targets: np.ndarray,
                  width: int) -> tuple[np.ndarray, np.ndarray]:
    """The placed keys (ascending) and the ``int[2, width + 1]`` cuts at
    each subtable: of the keys (row 0) and of the placed keys (row 1)."""
    items = placed.nonzero()[0]
    cuts = np.empty((2, width + 1), dtype=np.intp)
    cuts[0] = targets.searchsorted(np.arange(width + 1))
    cuts[1] = items.searchsorted(cuts[0])
    return items, cuts


def _claim(subtables, targets: np.ndarray, buckets: np.ndarray,
           capacity: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The claim step of a placement pass over keys sorted by subtable
    (see :func:`place_parts`): key ``i`` claims a slot of bucket
    ``buckets[i]`` of ``subtables[targets[i]]``.

    Returns ``(placed, slots, leaders)``: the keys that found a free
    slot, those keys' slots in key order, and the first claimants of
    full buckets.
    """
    ranks, groups, inverse = rank_within_group((targets << 40) | buckets)
    group_cuts = groups.searchsorted(
        np.arange(len(subtables) + 1, dtype=np.int64) << 40).tolist()
    group_buckets = groups & _BUCKET_MASK
    # Every claimed bucket of every subtable, read once into one block.
    block = np.empty((len(groups), capacity), dtype=np.uint64)
    for st, lo, hi in zip(subtables, group_cuts, group_cuts[1:]):
        if lo < hi:
            st.keys.take(group_buckets[lo:hi], axis=0, out=block[lo:hi],
                         mode="clip")
    # Only the free mask is read: dropping the block before the flat
    # scan lists the free slots keeps a bulk load's peak RSS down.
    free = block == EMPTY
    del block
    placed, slots = claim_slots(free, ranks, inverse)
    # A bucket's first claimant fails to place only if it is full.
    return placed, slots, (ranks == 0) & ~placed


def run_bodies(bodies: Sequence[OpBody]) -> list:
    """Run op bodies on distinct tables, sharing each round's passes.

    An op body is a generator: it yields a probe request
    ``(batch, touch)`` or a :class:`PlaceRequest`, is sent the reply and
    returns the op's result.  Each round advances every unfinished body,
    in list order, to its next request, then serves all of the round's
    probe requests with one :func:`probe_parts` call and all of its
    placement requests with one :func:`place_parts` call.  The tables
    are distinct, so neither pass sees the other's writes.  An insert
    body asks for one placement per eviction round, so the shards of a
    wave run their rounds in lockstep, and a shard whose keys settle
    early drops out.  A placement that would take the round's pass past
    :data:`PLACE_CHUNK` keys is served at once, alone, and its body
    advances to its next request.  A body that needs no probe (an
    insert into an empty table) places from its first round.  A body
    that raises stops there, but the others still run to their end
    before the first exception is re-raised, so every table either
    completes its op or is one that raised.  Returns the bodies'
    results in list order.
    """
    results: list = [None] * len(bodies)
    # Each live body's request in a round, then the reply it is sent.
    exchange: list = [None] * len(bodies)
    error: Exception | None = None
    live = list(range(len(bodies)))
    while live:
        asking, probing, placing = [], [], []
        stacked = 0  # keys in the round's placement requests
        for i in live:
            body = bodies[i]
            try:
                request = body.send(exchange[i])
                while (isinstance(request, PlaceRequest)
                       and stacked + len(request.codes) > PLACE_CHUNK):
                    request = body.send(_place_group([request])[0])
            except StopIteration as stop:
                results[i] = stop.value
                continue
            except Exception as exc:
                if error is None:
                    error = exc
                continue
            asking.append(i)
            exchange[i] = request
            if isinstance(request, PlaceRequest):
                placing.append(i)
                stacked += len(request.codes)
            else:
                probing.append(i)
        if probing:
            for i, reply in zip(probing,
                                probe_parts([exchange[i] for i in probing])):
                exchange[i] = reply
        if placing:
            for i, reply in zip(placing,
                                place_parts([exchange[i] for i in placing])):
                exchange[i] = reply
        live = asking
    if error is not None:
        raise error
    return results


def host_body(table, kind: int, run: EncodedBatch,
              values: np.ndarray | None = None) -> OpBody:
    """The op body of one homogeneous run on ``table``'s host path;
    ``values`` are an insert run's values.  With telemetry on, the body
    runs inside its ``find``/``insert``/``delete`` span."""
    if kind == OP_INSERT:
        body = table._insert_body(run, values)
    elif kind == OP_FIND:
        body = table._find_body(run)
    else:
        body = table._delete_body(run)
    if table.telemetry.enabled:
        return _spanned(table.telemetry.tracer, _KIND_NAMES[kind], len(run),
                        body)
    return body


def _spanned(tracer, name: str, n: int, body: OpBody) -> OpBody:
    """``body`` inside an ``op`` span over its ``n`` keys."""
    with tracer.span(name, "op", n=n):
        return (yield from body)


def run_waves(plans, op_codes: np.ndarray, values: np.ndarray | None,
              out_values: np.ndarray, out_found: np.ndarray,
              out_removed: np.ndarray) -> int:
    """Run a mixed batch's runs on the host path, table by table in
    waves; returns the number of runs.

    ``plans`` holds ``(table, batch, start)`` per table: the table's
    operations sit at ``start:start + len(batch)`` of ``op_codes`` (and
    of ``values``, an insert's, and of the outputs), and ``batch`` holds
    their keys.  A lone table is a wave of one part; the sharded
    front-end passes every shard with keys.  Each table runs its own
    plan (:func:`plan_runs`): homogeneous runs that keep each key's
    program order.  Wave ``k`` holds the ``k``-th run of every table
    that has one: the runs' op bodies run together through
    :func:`run_bodies`.  A table sees exactly the steps, in the same
    order, that running its operations alone takes.  If a run raises,
    the other runs of its wave still finish and no later wave starts,
    so every table has applied a prefix of its plan: every other table
    stops at a run boundary, and the raising table inside its run.
    """
    queues = []
    for table, batch, start in plans:
        own = slice(start, start + len(batch))
        queues.append([(kind, batch[ops], own, ops) for kind, ops
                       in plan_runs(op_codes[own], batch.codes)])
    for k in range(max(map(len, queues))):
        segments, bodies = [], []
        for (table, _batch, _start), runs in zip(plans, queues):
            if k < len(runs):
                kind, run, own, ops = runs[k]
                _note_run(table, kind, len(run))
                segments.append((kind, own, ops))
                bodies.append(host_body(
                    table, kind, run,
                    values[own][ops] if kind == OP_INSERT else None))
        for (kind, own, ops), result in zip(segments, run_bodies(bodies)):
            if kind == OP_FIND:
                out_values[own][ops], out_found[own][ops] = result
            elif kind == OP_DELETE:
                out_removed[own][ops] = result
    return sum(map(len, queues))


def _note_run(table, kind: int, ops: int) -> None:
    """Record the start of one homogeneous run of a mixed batch."""
    if table.telemetry.enabled:
        table.telemetry.tracer.instant("mixed.run", "op",
                                       kind=_KIND_NAMES[kind], ops=ops)


@dataclass(frozen=True)
class MixedBatchResult:
    """Outcome of one mixed batch.

    ``values``/``found`` are aligned with the input positions of FIND
    operations (meaningless elsewhere); ``removed`` likewise for DELETE
    positions.
    """

    values: np.ndarray
    found: np.ndarray
    removed: np.ndarray
    #: Number of homogeneous runs the batch executed as: the planned
    #: runs on the host path (:func:`plan_runs`), the arrival runs on a
    #: kernel engine (:func:`op_runs`); summed over a sharded batch's
    #: shards.
    runs: int
    #: Aggregate kernel cost counters, populated only when the batch
    #: executed through a kernel engine (``engine="warp" | "cohort"``).
    kernel: "object | None" = None


def op_runs(op_codes: np.ndarray) -> list[tuple[int, int, int]]:
    """``(kind, start, stop)`` of the maximal same-kind runs of a
    non-empty batch, in arrival order."""
    change = op_codes[1:] != op_codes[:-1]
    cuts = (change.nonzero()[0] + 1).tolist()
    kinds = [int(op_codes[0]), *op_codes[1:][change].tolist()]
    return list(zip(kinds, [0, *cuts], [*cuts, len(op_codes)]))


def plan_runs(op_codes: np.ndarray, codes: np.ndarray
              ) -> list[tuple[int, slice | np.ndarray]]:
    """One table's mixed batch as homogeneous runs planned by key.

    ``codes`` holds each op's key (equal codes are the same key).  Only
    per-key program order is promised, so ops on different keys may
    trade places.  The kinds present cycle in their order of first
    appearance, and run ``r`` serves kind ``cycle[r % K]``.  An op whose
    key has no earlier op in the batch goes to its kind's first run;
    any other op goes to the earliest run of its kind at or after the
    run ``p`` of its key's previous op, which is ``p`` itself only when
    that op is of the same kind.  So a key's ops keep program order,
    and two of them share a run only when they are consecutive and of
    one kind, where the run's duplicate rules (last writer wins, first
    delete wins) give what running them one by one gives.  Empty runs
    are dropped; neighbours then still differ in kind, since a key's
    next run is fewer than ``K`` runs on.

    Returns ``(kind, ops)`` per run, where ``ops`` indexes the batch's
    ops in arrival order: an index array for a planned run, a slice for
    an arrival run.  When the plan has no fewer runs than the maximal
    same-kind runs in arrival order (:func:`op_runs`), those are
    returned instead: the batch then runs exactly as it arrived.
    """
    # The kind of each arrival run, and the kinds' cycle.
    heads = [int(op_codes[0]),
             *op_codes[1:][op_codes[1:] != op_codes[:-1]].tolist()]
    cycle = list(dict.fromkeys(heads))
    width = len(cycle)
    run = np.array([cycle.index(kind) if kind in cycle else 0
                    for kind in _VALID_OPS])[op_codes]
    # Run r is slot + K * wraps, and a key's wraps grow by one at each
    # of its ops whose slot lies below its previous op's: a cumulative
    # count of those descents over the ops sorted by key (stably, so a
    # key's ops stay in arrival order), restarted at each key's first
    # op.  The two tests skip work that changes nothing when no key
    # repeats or none steps back.  On shard_churn half the tables repeat
    # no key and nine in ten have no descent, and the tests cut the
    # planner's time there by a third.
    ranked = np.sort(codes)
    repeat = ranked[1:] == ranked[:-1]
    if np.count_nonzero(repeat):
        order = codes.argsort(kind="stable")
        ranked_slot = run[order]
        descent = repeat & (ranked_slot[1:] < ranked_slot[:-1])
        if np.count_nonzero(descent):
            wraps = np.zeros(len(codes), dtype=np.intp)
            wraps[1:] = descent
            wraps = wraps.cumsum()
            first = np.ones(len(codes), dtype=bool)
            first[1:] = ~repeat
            wraps -= np.maximum.accumulate(np.where(first, wraps, 0))
            run[order] = ranked_slot + width * wraps
    used = [(r, size) for r, size in enumerate(np.bincount(run).tolist())
            if size]
    if len(used) >= len(heads):
        return [(kind, slice(a, b)) for kind, a, b in op_runs(op_codes)]
    order = run.argsort(kind="stable")
    stops = accumulate(size for _r, size in used)
    return [(cycle[r % width], order[stop - size:stop])
            for (r, size), stop in zip(used, stops)]


def check_mixed_batch(op_codes, keys, values=None,
                      engine: str | None = None
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Validate a mixed batch before any of it runs.

    Returns ``(op_codes, keys, values)`` as ``int64``/``uint64`` arrays
    (``keys`` may also be an :class:`EncodedBatch`, returned as is);
    ``values`` is ``None`` when the batch holds no insert (it is ignored
    then).  Raises :class:`~repro.errors.InvalidConfigError` on a shape
    mismatch, an op code outside ``OP_INSERT..OP_DELETE``, inserts
    without aligned values, or an unknown ``engine``.  Front-ends that
    split a batch (the sharded table) call it on the whole batch, so a
    malformed batch is rejected before any part of it is applied.
    """
    op_codes = np.asarray(op_codes, dtype=np.int64)
    if not isinstance(keys, EncodedBatch):
        keys = np.asarray(keys, dtype=np.uint64)
    if op_codes.shape != keys.shape:
        raise InvalidConfigError("op_codes and keys must have equal length")
    if len(op_codes) and (op_codes.min() < OP_INSERT
                          or op_codes.max() > OP_DELETE):
        raise InvalidConfigError(
            f"op codes must be one of {_VALID_OPS}")
    if engine is not None:
        from repro.kernels.engine import resolve_engine

        resolve_engine(engine)
    if not (op_codes == OP_INSERT).any():
        return op_codes, keys, None
    if values is None:
        raise InvalidConfigError("mixed batch with inserts needs values")
    values = np.asarray(values, dtype=np.uint64)
    if values.shape != keys.shape:
        raise InvalidConfigError("values must align with keys")
    return op_codes, keys, values


def execute_mixed(table, op_codes, keys, values=None,
                  engine: str | None = None) -> MixedBatchResult:
    """Execute a mixed batch against ``table`` in program order per key.

    Every FIND and DELETE answers as if the operations ran one by one in
    arrival order; operations on different keys may run in another
    order.  The host path runs the table's planned runs
    (:func:`plan_runs`, through :func:`run_waves`); if one raises, the
    table has applied the runs before it and part of that run.  A
    kernel engine runs the arrival runs (:func:`op_runs`) instead: the
    kernels lose in-run last-writer-wins upserts at high fill, and the
    kernel loop moves to the planner once they keep them.

    Parameters
    ----------
    table:
        A :class:`~repro.core.table.DyCuckooTable`.
    op_codes:
        Array of :data:`OP_INSERT` / :data:`OP_FIND` / :data:`OP_DELETE`.
    keys:
        One key per operation, or an :class:`EncodedBatch` of them
        built for ``table``.
    values:
        One value per operation; required when any op is an insert
        (ignored at non-insert positions).
    engine:
        ``None`` (default) executes through the table's vectorized host
        path.  ``"warp"`` or ``"cohort"`` executes every run through
        the lane-faithful kernels of :mod:`repro.kernels` instead — the
        table must then be pre-sized (kernels never resize or consult
        the stash) and the result carries the aggregate
        :class:`~repro.kernels.insert.KernelRunResult` in ``.kernel``.
    """
    op_codes, keys, values = check_mixed_batch(op_codes, keys, values,
                                               engine)
    n = len(op_codes)
    out_values = np.zeros(n, dtype=np.uint64)
    out_found = np.zeros(n, dtype=bool)
    out_removed = np.zeros(n, dtype=bool)
    runs = 0
    if n == 0:
        return MixedBatchResult(out_values, out_found, out_removed, runs)

    telemetry = table.telemetry
    batch = as_batch(table, keys)
    kernel_total = None
    batch_ctx = (telemetry.tracer.span("mixed.batch", "op", ops=n)
                 if telemetry.enabled else nullcontext())
    with batch_ctx:
        if engine is None:
            runs = run_waves([(table, batch, 0)], op_codes, values,
                             out_values, out_found, out_removed)
        else:
            for kind, start, stop in op_runs(op_codes):
                runs += 1
                _note_run(table, kind, stop - start)
                segment = slice(start, stop)
                result = _execute_run_kernel(
                    table, batch[segment], kind, segment, values,
                    out_values, out_found, out_removed, engine)
                kernel_total = (result if kernel_total is None
                                else kernel_total.merge(result))
    return MixedBatchResult(out_values, out_found, out_removed, runs,
                            kernel_total)


def _execute_run_kernel(table, run: EncodedBatch, kind: int, segment: slice,
                        values, out_values, out_found, out_removed,
                        engine: str):
    """One homogeneous run through the lane-faithful kernels."""
    from repro.kernels.delete import run_delete_kernel
    from repro.kernels.find import run_find_kernel
    from repro.kernels.insert import run_voter_insert_kernel

    if kind == OP_INSERT:
        return run_voter_insert_kernel(table, None, values[segment],
                                       engine=engine, codes=run)
    if kind == OP_FIND:
        out_values[segment], out_found[segment], result = run_find_kernel(
            table, None, engine=engine, codes=run)
        return result
    out_removed[segment], result = run_delete_kernel(table, None,
                                                     engine=engine, codes=run)
    return result
