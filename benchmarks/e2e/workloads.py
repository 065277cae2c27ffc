"""The four workloads: generated inputs, expected results and set-up.

Every workload is a closed loop with one client: the next batch is
submitted only after the previous call returns, which is the
bulk-synchronous GPU model the paper measures.  All inputs, and the
expected result of every operation, are generated from the seed before
timing starts, so the program only ever receives arrays.

Sizes are those of one replica at ``scale=1``; a run drives several
replicas, each on a fresh table (see ``measure.py``).  ``scale``
shrinks batch counts (and, for ``grow_shrink`` and ``ycsb_b_small``,
key counts) for shorter runs and the smoke test.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro import DyCuckooConfig, DyCuckooTable, ShardedDyCuckoo
from repro.baselines import DyCuckooAdapter
from repro.core import OP_DELETE, OP_FIND, OP_INSERT
from repro.gpusim.metrics import KernelCosts

_U64 = np.uint64


@dataclass(frozen=True)
class Call:
    """One call into the program and the outputs it must return.

    ``expect`` is ``None`` for ``insert``, ``(values, found)`` for
    ``find``, the removed mask for ``delete`` and
    ``(op_codes, values, found, removed)`` for ``execute_mixed``.
    """

    method: str
    args: tuple
    expect: object = None
    kwargs: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Batch:
    """The calls of one closed-loop step and its op mix."""

    calls: tuple[Call, ...]
    inserts: int
    finds: int
    deletes: int

    @property
    def ops(self) -> int:
        return self.inserts + self.finds + self.deletes

    def compute_ns(self, costs: KernelCosts) -> float:
        """Op-mix weighted per-op compute cost (``bench.runner`` rule)."""
        return (self.inserts * costs.insert_ns + self.finds * costs.find_ns
                + self.deletes * costs.delete_ns) / self.ops


@dataclass(frozen=True)
class Inputs:
    """Everything one replica feeds the program, and what it returns."""

    batches: list[Batch]
    #: Live entry count the table must hold after the last batch.
    final_live: int
    #: ``(keys, values)`` inserted by the set-up, or ``None``.
    preload: tuple[np.ndarray, np.ndarray] | None = None


@dataclass(frozen=True)
class Workload:
    """A named workload: its inputs and its table.

    Why each workload exists is stated in ``BENCHMARK.json``.
    """

    name: str
    generate: Callable[[np.random.Generator, float], Inputs]
    #: Builds a fresh table (and preloads it); this is ``setup_s``.
    setup: Callable[[Inputs], object]
    costs: KernelCosts
    #: Price simulated time from ``MixedBatchResult.kernel`` instead of
    #: ``table.stats`` deltas (the kernel engines keep their own counts).
    kernel_priced: bool = False


def rng_for(name: str, seed: int, replica: int) -> np.random.Generator:
    """The input stream of one replica of a workload under one seed."""
    return np.random.default_rng([seed, zlib.crc32(name.encode()), replica])


def distinct_keys(rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` distinct pseudo-random uint64 keys.

    splitmix64's finalizer is a bijection on 64-bit words, so a run of
    consecutive inputs gives distinct, well-mixed keys without a sort.
    """
    z = (np.arange(n, dtype=_U64)
         + _U64(int(rng.integers(0, 1 << 63))))
    z = (z ^ (z >> _U64(30))) * _U64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> _U64(27))) * _U64(0x94D049BB133111EB)
    z ^= z >> _U64(31)
    if np.any(z == _U64((1 << 64) - 1)):
        raise ValueError("generated the one key the table cannot store")
    return z


def random_values(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.integers(0, 1 << 63, size=n, dtype=_U64)


def _find(keys, values, found) -> Call:
    return Call("find", (keys,), (values, found))


# ----------------------------------------------------------------------
# grow_shrink: the paper's dynamic scenario on the public host API
# ----------------------------------------------------------------------

def _find_half_live(rng, live_keys, live_values, absent_keys) -> Call:
    keys = np.concatenate([live_keys, absent_keys])
    values = np.concatenate([live_values,
                             np.zeros(len(absent_keys), dtype=_U64)])
    found = np.zeros(len(keys), dtype=bool)
    found[:len(live_keys)] = True
    order = rng.permutation(len(keys))
    return _find(keys[order], values[order], found[order])


def gen_grow_shrink(rng: np.random.Generator, scale: float) -> Inputs:
    """Grow from empty to ``50 * size`` keys, then shrink back to empty.

    Each batch is a mutating call (``insert`` while growing, ``delete``
    while shrinking) followed by a ``find`` call whose keys are half
    live and half absent: never inserted while growing, deleted while
    shrinking.  One batch per step keeps every batch alike, so the
    median batch is a typical step rather than the boundary between
    mutating and find calls.  100 batches.
    """
    size = max(100, round(4_000 * scale))
    steps = 50
    peak = size * steps
    half = size // 2
    keys = distinct_keys(rng, peak + size)
    keys, never = keys[:peak], keys[peak:]
    values = random_values(rng, peak)
    batches: list[Batch] = []
    for i in range(steps):
        lo, hi = i * size, (i + 1) * size
        live = rng.integers(0, hi, half)
        absent = never[rng.integers(0, len(never), size - half)]
        batches.append(Batch((
            Call("insert", (keys[lo:hi], values[lo:hi])),
            _find_half_live(rng, keys[live], values[live], absent),
        ), size, size, 0))
    order = rng.permutation(peak)
    for j in range(steps):
        gone, alive = order[:(j + 1) * size], order[(j + 1) * size:]
        live = (alive[rng.integers(0, len(alive), half)] if len(alive)
                else np.zeros(0, dtype=np.int64))
        absent = keys[gone[rng.integers(0, len(gone), size - len(live))]]
        batches.append(Batch((
            Call("delete", (keys[order[j * size:(j + 1) * size]],),
                 np.ones(size, dtype=bool)),
            _find_half_live(rng, keys[live], values[live], absent),
        ), 0, size, size))
    return Inputs(batches, final_live=0)


# ----------------------------------------------------------------------
# ycsb_b_small: read-mostly, cache-resident, no resize, no eviction
# ----------------------------------------------------------------------

def gen_ycsb_b(rng: np.random.Generator, scale: float) -> Inputs:
    """YCSB-B: 95 % find / 5 % update, scrambled zipf 0.99.

    Each 1,000-op batch is one ``find`` call then one ``insert`` call
    (the updates).  Expected find values replay the updates in order,
    last writer wins within a batch.  1,250 batches over 100,000
    preloaded records.

    The scramble (which record has which popularity rank) is drawn
    afresh for every batch.  Within a batch the skew is zipf 0.99; over
    the run no single record decides the cost.  With one scramble for
    the whole run, whether the few hottest records sit in their first
    or second bucket moved the simulated throughput by 6 % from seed to
    seed.
    """
    records = max(1_000, round(100_000 * min(1.0, scale)))
    n_batches = max(20, round(1_250 * scale))
    n_find, n_update = 950, 50
    keys = distinct_keys(rng, records)
    current = random_values(rng, records)
    preload = (keys, current.copy())
    cdf = np.cumsum(np.arange(1, records + 1, dtype=np.float64) ** -0.99)
    cdf /= cdf[-1]
    all_found = np.ones(n_find, dtype=bool)
    batches: list[Batch] = []
    for _ in range(n_batches):
        ranks = np.minimum(np.searchsorted(
            cdf, rng.random(n_find + n_update), side="right"), records - 1)
        # A random affine map of the ranks is a fresh scramble.
        stride = int(rng.integers(1, records))
        while math.gcd(stride, records) != 1:
            stride = int(rng.integers(1, records))
        picks = (ranks * stride + int(rng.integers(0, records))) % records
        reads, writes = picks[:n_find], picks[n_find:]
        new_values = random_values(rng, n_update)
        batches.append(Batch((
            _find(keys[reads], current[reads], all_found),
            Call("insert", (keys[writes], new_values)),
        ), n_update, n_find, 0))
        # Last occurrence wins: assign in reverse, first-seen only.
        rev = writes[::-1]
        _, first = np.unique(rev, return_index=True)
        current[rev[first]] = new_values[::-1][first]
    return Inputs(batches, final_live=records, preload=preload)


# ----------------------------------------------------------------------
# Mixed batches (cohort_mixed, shard_churn)
# ----------------------------------------------------------------------

def _op_codes(rng: np.random.Generator, quotas: tuple[int, int, int],
              run_len: tuple[int, int]) -> np.ndarray:
    """One batch's op codes: exactly ``quotas`` insert/find/delete ops,
    cut into runs of ``run_len`` ops (the last run of a kind may be
    shorter) in shuffled order.

    Fixed quotas keep every batch's op mix, and so the table's fill,
    the same from seed to seed.
    """
    runs = []
    for kind, quota in zip((OP_INSERT, OP_FIND, OP_DELETE), quotas):
        while quota > 0:
            length = min(quota, int(rng.integers(run_len[0],
                                                 run_len[1] + 1)))
            runs.append(np.full(length, kind, dtype=np.int64))
            quota -= length
    return np.concatenate([runs[i] for i in rng.permutation(len(runs))])


def _mixed_batches(rng: np.random.Generator, n_batches: int,
                   quotas: tuple[int, int, int], run_len: tuple[int, int],
                   pool: np.ndarray, kwargs: dict,
                   preload: tuple[np.ndarray, np.ndarray] | None = None,
                   fresh_inserts: bool = False) -> tuple[list[Batch], int]:
    """Mixed batches of homogeneous runs over the keys of ``pool``.

    Keys are uniform over ``pool``; with ``fresh_inserts`` every insert
    run takes distinct keys that are not live when it starts.  Expected
    results come from a per-op dict replay of the whole stream, which is
    the semantics ``execute_mixed`` promises: program order across runs,
    last writer wins for inserts and first occurrence wins for deletes
    within a run.  Returns the batches and the final live count.
    """
    state: dict[int, int] = {}
    live = np.zeros(len(pool), dtype=bool)
    if preload is not None:
        state.update(zip(preload[0].tolist(), preload[1].tolist()))
        live[np.isin(pool, preload[0])] = True
    ops = sum(quotas)
    batches: list[Batch] = []
    for _ in range(n_batches):
        op_codes = _op_codes(rng, quotas, run_len)
        picks = rng.integers(0, len(pool), ops)
        if fresh_inserts:
            bounds = np.flatnonzero(np.diff(op_codes)) + 1
            for start, stop in zip(np.r_[0, bounds], np.r_[bounds, ops]):
                if op_codes[start] == OP_INSERT:
                    free = np.flatnonzero(~live)
                    if len(free) < stop - start:
                        raise ValueError("insert run larger than free keys")
                    picks[start:stop] = free[rng.permutation(len(free))[
                        :stop - start]]
                    live[picks[start:stop]] = True
                elif op_codes[start] == OP_DELETE:
                    live[picks[start:stop]] = False
        keys = pool[picks]
        values = random_values(rng, ops)
        exp_values = [0] * ops
        exp_found = [False] * ops
        exp_removed = [False] * ops
        for i, (op, k, v) in enumerate(zip(op_codes.tolist(), keys.tolist(),
                                           values.tolist())):
            if op == OP_INSERT:
                state[k] = v
            elif op == OP_FIND:
                got = state.get(k)
                if got is not None:
                    exp_values[i] = got
                    exp_found[i] = True
            else:
                exp_removed[i] = state.pop(k, None) is not None
        expect = (op_codes, np.array(exp_values, dtype=_U64),
                  np.array(exp_found), np.array(exp_removed))
        batches.append(Batch(
            (Call("execute_mixed", (op_codes, keys, values), expect,
                  kwargs),), *quotas))
    return batches, len(state)


#: ``cohort_mixed`` table geometry: 4 subtables x 1024 buckets x 32 slots.
COHORT_CONFIG = DyCuckooConfig(initial_buckets=1024, auto_resize=False)


def gen_cohort_mixed(rng: np.random.Generator, scale: float) -> Inputs:
    """300/300/400 insert/find/delete per batch, one run of each kind.

    Keys come from as many keys as the table has slots.  The set-up
    preloads 75 % of them; inserts take keys that are not live and
    deletes are uniform, so the fill stays near 300 / 400 = 0.75 and
    eviction chains fire.  Inserts are fresh because the kernel engines
    lose an upsert of a live key (a repeated key in one insert run, or
    a key whose entry an eviction moves during the same kernel), where
    ``execute_mixed`` promises last-writer-wins.  80 batches.
    """
    slots = (COHORT_CONFIG.num_tables * COHORT_CONFIG.initial_buckets
             * COHORT_CONFIG.bucket_capacity)
    pool = distinct_keys(rng, slots)
    chosen = rng.permutation(slots)[:slots * 3 // 4]
    preload = (pool[chosen], random_values(rng, len(chosen)))
    batches, live = _mixed_batches(
        rng, max(10, round(80 * scale)), (300, 300, 400), (400, 400), pool,
        {"engine": "cohort"}, preload=preload, fresh_inserts=True)
    return Inputs(batches, final_live=live, preload=preload)


def gen_shard_churn(rng: np.random.Generator, scale: float) -> Inputs:
    """160/160/80 insert/find/delete per batch, runs of 40-160 ops.

    Keys are uniform over 30,000 and inserts are upserts.  The set-up
    preloads 20,000 of them, the live count at which 160 upserts and 80
    deletes per batch balance, so the work per batch does not drift
    through the run; the four default shards resize independently as
    their live counts wander around it.  200 batches.
    """
    pool = distinct_keys(rng, 30_000)
    chosen = rng.permutation(len(pool))[:20_000]
    preload = (pool[chosen], random_values(rng, len(chosen)))
    batches, live = _mixed_batches(
        rng, max(10, round(200 * scale)), (160, 160, 80), (40, 160), pool,
        {}, preload=preload)
    return Inputs(batches, final_live=live, preload=preload)


def _preloaded(make: Callable[[], object]):
    def setup(inputs: Inputs):
        table = make()
        table.insert(*inputs.preload)
        return table
    return setup


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload("grow_shrink", gen_grow_shrink, lambda _inputs: DyCuckooTable(),
             DyCuckooAdapter.KERNEL_COSTS),
    Workload("ycsb_b_small", gen_ycsb_b, _preloaded(DyCuckooTable),
             DyCuckooAdapter.KERNEL_COSTS),
    Workload("cohort_mixed", gen_cohort_mixed,
             _preloaded(lambda: DyCuckooTable(COHORT_CONFIG)),
             DyCuckooAdapter.KERNEL_COSTS, kernel_priced=True),
    Workload("shard_churn", gen_shard_churn,
             _preloaded(lambda: ShardedDyCuckoo(num_shards=4)),
             ShardedDyCuckoo.KERNEL_COSTS),
)}
