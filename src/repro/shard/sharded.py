"""The sharded DyCuckoo front-end.

:class:`ShardedDyCuckoo` partitions the key space across ``S``
independent :class:`~repro.core.table.DyCuckooTable` shards.  The shard
id comes from the *high* bits of a dedicated first-level hash, so it
composes cleanly with the per-table machinery, which consumes low bits
(bucket selection masks the low bits of each second-layer hash) and an
independent function (the pair hash) — a key's shard, pair, and buckets
are pairwise-independent decisions.

Why shard a table that already resizes one subtable at a time?  The
same argument DyCuckoo makes for subtables, applied once more: a resize
locks one subtable of one shard, i.e. ``1 / (S * d)`` of the data, so
the rest of the structure keeps serving (DHash makes the equivalent
point with per-partition structural changes, and Maier & Sanders'
dynamic space-efficient hashing grows and shrinks per region).  Each
shard keeps its own ``[alpha, beta]`` band and resizes on its own
schedule, so a hot shard can grow while a cooling shard shrinks.

Semantics are exactly those of a single table:

* a batch is validated and encoded once, and hashed once for every
  shard: one :class:`~repro.core.hashing.HashStack` holds the router's
  function and each shard's pair, table and coin functions, so stacked
  passes give every key its shard, its shard's pair, its two candidate
  raw hashes and its routing coin.  Each shard receives its slice as a
  pre-hashed :class:`~repro.core.batch_ops.EncodedBatch` and hashes
  nothing but the victims its evictions move;
* dispatch is one stable sort of the shard ids: each shard's keys are a
  contiguous run of the sorted batch, and results are gathered back to
  input positions with one scatter per output;
* duplicate keys land in the same shard, and the stable sort preserves
  input order, so the batched duplicate rules (insert last-wins, delete
  first-occurrence) carry over verbatim;
* a mixed batch is scattered *whole*: each shard runs its key-disjoint
  subsequence as its own runs, so per-key program order holds
  (operations on different keys commute, operations on the same key
  share a shard).  On the host path a shard's runs are planned by key
  (:func:`~repro.core.batch_ops.plan_runs`: one run per kind wherever
  its keys allow, never more than its maximal same-kind runs in arrival
  order); the kernel engines run those arrival runs.  Uninstrumented
  host batches run in *waves* (:func:`~repro.core.batch_ops.run_waves`, the
  loop a lone table's mixed batch runs as a wave of one part): wave
  ``k`` starts the ``k``-th run of every shard, one
  :func:`~repro.core.batch_ops.probe_parts` call probes all of them,
  one :func:`~repro.core.batch_ops.place_parts` call per eviction round
  claims the slots of every insert still placing, and each run then
  finishes in shard-index order.  Every shard takes exactly the steps,
  in the same order, that :func:`repro.core.batch_ops.execute_mixed` on
  its subsequence takes, so outputs, storage and counters are those of
  running the shards one by one, which instrumented, kernel-engine and
  process-pool batches still do.  A homogeneous
  ``insert``/``find``/``delete`` is one wave.

Observability: each shard carries its own telemetry handle; the
front-end rolls the per-shard registries into one labelled view (see
:func:`repro.telemetry.aggregate.merge_registries`) and merges
:class:`~repro.core.stats.TableStats` on demand.
"""

from __future__ import annotations

import dataclasses
import pickle
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import nullcontext

import numpy as np

from repro.baselines.base import GpuHashTable
from repro.core import batch_ops
from repro.core.batch_ops import (OP_DELETE, OP_FIND, OP_INSERT,
                                  EncodedBatch, MixedBatchResult,
                                  check_mixed_batch, host_body, run_waves)
from repro.core.batch_ops import execute_mixed as _execute_mixed
from repro.core.config import DyCuckooConfig, replace_config
from repro.core.distribution import coin_draws
from repro.core.hashing import HashStack, UniversalHash
from repro.core.instruments import Instruments
from repro.core.stats import MemoryFootprint, TableStats
from repro.core.table import DyCuckooTable, encode_keys
from repro.errors import InvalidConfigError, InvalidKeyError
from repro.gpusim.metrics import KernelCosts
from repro.telemetry import NULL_TELEMETRY, Telemetry
from repro.telemetry.aggregate import merge_registries

#: Seed salt deriving the shard-router hash from the table seed.
_SHARD_HASH_SALT = 0x5A4D

#: Infrastructure failures that trip the serial fallback (as opposed to
#: application errors — e.g. ``CapacityError`` — which propagate).
_POOL_ERRORS = (BrokenProcessPool, OSError, pickle.PicklingError)


def _shard_worker(shard: DyCuckooTable, op_codes, batch: EncodedBatch,
                  values, engine: str | None):
    """Run one shard's mixed subsequence in a worker process.

    The shard table travels by value (pickle), mutates in the worker,
    and is shipped back whole; the parent replaces its copy only after
    every shard's future has resolved, so a failed batch leaves the
    parent's shards untouched.  ``batch`` is the shard's pre-hashed
    slice; it is pickled in the same call as ``shard``, so in the
    worker it still refers to the shard it was built for.
    """
    result = _execute_mixed(shard, op_codes, batch, values, engine=engine)
    return shard, result


class _ShardHashes:
    """Every hash function a sharded batch needs, in one stack.

    Member 0 is the shard router's function; then, for each shard in
    turn, its pair hash, its ``d`` table hashes and its routing coin's
    hash (shards may differ in ``d``).  The lookup arrays map a shard id
    to its members, and a *global pair*, shard ``s``'s partition ``p``
    at ``pair_base[s] + p``, to its two subtables and their members, so
    one stacked call hashes every key under its own shard's function.
    """

    def __init__(self, router: UniversalHash,
                 shards: list[DyCuckooTable]) -> None:
        #: The functions the stack copied, to tell when it is stale.
        self.members = self.members_of(shards)
        hashes = [router]
        pair, coin, pair_base, num_pairs = [], [], [], []
        first, second, member_first, member_second = [], [], [], []
        for shard in shards:
            pair.append(len(hashes))
            hashes.append(shard.pair_hash.hash)
            base = len(hashes)
            hashes.extend(shard.table_hashes)
            coin.append(len(hashes))
            hashes.append(shard._router.coin.hash)
            pair_base.append(len(first))
            num_pairs.append(shard.pair_hash.num_pairs)
            for i, j in shard.pair_hash.pairs.tolist():
                first.append(i)
                second.append(j)
                member_first.append(base + i)
                member_second.append(base + j)
        self.stack = HashStack(hashes)
        self.pair = np.array(pair, dtype=np.intp)
        self.coin = np.array(coin, dtype=np.intp)
        self.pair_base = np.array(pair_base, dtype=np.intp)
        self.num_pairs = np.array(num_pairs, dtype=np.uint32)
        self.tables = np.array([first, second], dtype=np.int64)
        self.member_first = np.array(member_first, dtype=np.intp)
        self.member_second = np.array(member_second, dtype=np.intp)

    @staticmethod
    def members_of(shards: list[DyCuckooTable]) -> list:
        """The function objects a stack over ``shards`` copies.  A
        table's ``hash_stack`` is rebuilt whenever one of its table
        hashes is replaced, so it stands for all of them."""
        return [member for shard in shards
                for member in (shard.pair_hash.hash, shard.hash_stack,
                               shard._router.coin.hash)]

    def current(self, shards: list[DyCuckooTable]) -> bool:
        """True while every function the stack copied is still in use
        (a shard replaced by its pickle brings new objects)."""
        return all(a is b for a, b in zip(self.members,
                                          self.members_of(shards)))


def _unsort(order: np.ndarray, grouped: np.ndarray) -> np.ndarray:
    """Values listed in ``order`` (shard order) back in input order."""
    out = np.empty_like(grouped)
    out[order] = grouped
    return out


class ShardedDyCuckoo(GpuHashTable):
    """``S`` independent DyCuckoo shards behind the one-table interface.

    Parameters
    ----------
    num_shards:
        Shard count ``S`` (a power of two, so the shard id is exactly
        the top ``log2(S)`` bits of the shard hash).
    config:
        Base configuration applied to every shard.  Each shard's hash
        constants are derived from ``config.seed`` XOR the shard index,
        so no two shards share hash functions — an adversarial key set
        that stresses one shard's functions leaves the others alone.
    shard_configs:
        Optional per-shard configuration overrides (length ``S``).  Use
        this to give shards individual ``[alpha, beta]`` bands or
        capacity ceilings; entries of ``None`` fall back to the derived
        base configuration.
    parallel_workers:
        Worker-process count for :meth:`execute_mixed`.  ``None`` (the
        default), ``0``, or ``1`` keep the serial path; ``>= 2`` runs
        shard subsequences concurrently in a process pool.  Shards
        share nothing by construction, so results, ``runs``, and merged
        kernel counters are bit-identical to serial execution: workers
        resolve behind a barrier and merge strictly in shard-index
        order.  Batches with any instrumentation attached (telemetry,
        sanitizer, fault plan, profiler, flight recorder) run serially
        regardless, since those handles are shared mutable state; pool
        infrastructure failures also fall back to serial (permanently
        for the instance) without losing shard state.

    Examples
    --------
    >>> import numpy as np
    >>> from repro.shard import ShardedDyCuckoo
    >>> table = ShardedDyCuckoo(num_shards=4)
    >>> table.insert(np.arange(100, dtype=np.uint64),
    ...              np.arange(100, dtype=np.uint64) * 2)
    >>> values, found = table.find(np.array([3, 999], dtype=np.uint64))
    >>> bool(found[0]), bool(found[1]), int(values[0])
    (True, False, 6)
    """

    NAME = "ShardedDyCuckoo"
    KERNEL_COSTS = KernelCosts(find_ns=0.44, insert_ns=0.38, delete_ns=0.44)

    def __init__(self, num_shards: int = 4,
                 config: DyCuckooConfig | None = None,
                 shard_configs=None,
                 parallel_workers: int | None = None) -> None:
        if num_shards < 1 or num_shards & (num_shards - 1):
            raise InvalidConfigError(
                f"num_shards must be a positive power of two, got {num_shards}"
            )
        if parallel_workers is not None and parallel_workers < 0:
            raise InvalidConfigError(
                f"parallel_workers must be >= 0, got {parallel_workers}"
            )
        self.num_shards = num_shards
        self.config = config or DyCuckooConfig()
        if shard_configs is not None and len(shard_configs) != num_shards:
            raise InvalidConfigError(
                f"shard_configs must have {num_shards} entries, "
                f"got {len(shard_configs)}"
            )
        self.shards: list[DyCuckooTable] = []
        for idx in range(num_shards):
            override = shard_configs[idx] if shard_configs else None
            shard_config = override or replace_config(
                self.config, seed=self.config.seed ^ (idx << 17))
            self.shards.append(DyCuckooTable(shard_config))
        #: log2(S) — the number of high hash bits consumed by routing.
        self._shard_bits = num_shards.bit_length() - 1
        rng = np.random.default_rng(self.config.seed ^ _SHARD_HASH_SALT)
        self._shard_hash = UniversalHash.random(rng)
        #: Every shard's hash functions stacked; rebuilt when a shard's
        #: functions change (see :meth:`_hashes`).
        self._stacked: _ShardHashes | None = None
        #: Requested worker-process count for ``execute_mixed``.
        #: ``None``/0/1 means serial; capped at ``num_shards``.
        self.parallel_workers = parallel_workers
        self._executor: ProcessPoolExecutor | None = None
        self._parallel_broken = False

    # ------------------------------------------------------------------
    # Shard routing
    # ------------------------------------------------------------------

    def shard_ids(self, keys) -> np.ndarray:
        """Shard index per key: the top ``log2(S)`` bits of the hash."""
        codes = encode_keys(keys)
        if self._shard_bits == 0:
            return np.zeros(len(codes), dtype=np.int64)
        return self._shard_of_codes(self._hashes(), codes).astype(np.int64)

    def _hashes(self) -> _ShardHashes:
        stacked = self._stacked
        if stacked is None or not stacked.current(self.shards):
            stacked = self._stacked = _ShardHashes(self._shard_hash,
                                                   self.shards)
        return stacked

    def _shard_of_codes(self, hashes: _ShardHashes,
                        codes: np.ndarray) -> np.ndarray:
        """Shard id per code (``S >= 2``), in the narrowest unsigned type."""
        raw = hashes.stack.raw(codes, 0)  # 31-bit values
        return (raw >> np.uint64(31 - self._shard_bits)).astype(
            np.min_scalar_type(self.num_shards - 1))

    def _scatter(self, keys) -> tuple[np.ndarray,
                                      list[EncodedBatch | None]]:
        """Encode and hash one batch for every shard.

        Returns ``(order, batches)``.  ``order`` lists the batch's
        positions grouped by shard, each shard's in input order: it is
        one stable sort of the shard ids.  ``batches[s]`` is shard
        ``s``'s pre-hashed batch, the keys at the next ``len(batch)``
        positions of ``order``, or ``None`` when the shard has none.
        Three stacked hash calls serve every shard: the shard ids, the
        pair partitions, and then the candidate raw hashes together
        with the routing coin.
        """
        codes = encode_keys(keys)
        hashes = self._hashes()
        n = len(codes)
        if self._shard_bits == 0:
            order = np.arange(n)
            ids = np.zeros(n, dtype=np.uint8)
        else:
            ids = self._shard_of_codes(hashes, codes)
            # Shard ids fit a narrow unsigned type, which numpy's stable
            # sort orders by radix.
            order = ids.argsort(kind="stable")
            ids = ids[order]
            codes = codes[order]
        cuts = ids.searchsorted(np.arange(self.num_shards + 1)).tolist()
        part = (hashes.stack.raw(codes, hashes.pair[ids]).astype(np.uint32)
                % hashes.num_pairs[ids])
        pair = hashes.pair_base[ids]
        pair += part
        tables = hashes.tables.take(pair, axis=1)
        which = np.empty((3, n), dtype=np.intp)
        hashes.member_first.take(pair, out=which[0])
        hashes.member_second.take(pair, out=which[1])
        hashes.coin.take(ids, out=which[2])
        raw = hashes.stack.raw(codes, which).astype(np.uint32)
        candidates = raw[:2]
        draw = coin_draws(raw[2])
        batches = [
            EncodedBatch.hashed(shard, codes[a:b], tables[:, a:b],
                                candidates[:, a:b], draw[a:b])
            if a < b else None
            for shard, a, b in zip(self.shards, cuts, cuts[1:])]
        return order, batches

    # ------------------------------------------------------------------
    # Batched operations (vectorized scatter/gather)
    # ------------------------------------------------------------------

    @staticmethod
    def _spans(batches):
        """``(shard index, batch, start, stop)`` per shard with keys:
        its keys sit at ``order[start:stop]`` (see :meth:`_scatter`)."""
        start = 0
        for idx, batch in enumerate(batches):
            if batch is not None:
                stop = start + len(batch)
                yield idx, batch, start, stop
                start = stop

    def insert(self, keys, values) -> None:
        """Upsert a batch; each shard ingests its key-disjoint slice."""
        keys = np.asarray(keys, dtype=np.uint64)
        values = np.asarray(values, dtype=np.uint64)
        if values.shape != keys.shape:
            raise InvalidKeyError(
                f"values shape {values.shape} != keys shape {keys.shape}")
        order, batches = self._scatter(keys)
        ctx = (self.telemetry.tracer.span("shard.insert", "shard",
                                          n=len(keys))
               if self.telemetry.enabled else nullcontext())
        with ctx:
            self._homogeneous(OP_INSERT, batches, values[order])

    def find(self, keys) -> tuple[np.ndarray, np.ndarray]:
        """Look up a batch; results gathered back to input positions."""
        order, batches = self._scatter(keys)
        n = len(order)
        values = np.empty(n, dtype=np.uint64)
        found = np.empty(n, dtype=bool)
        for (_idx, _batch, a, b), result in zip(
                self._spans(batches), self._homogeneous(OP_FIND, batches)):
            values[a:b], found[a:b] = result
        return _unsort(order, values), _unsort(order, found)

    def delete(self, keys) -> np.ndarray:
        """Delete a batch; removed mask gathered to input positions."""
        order, batches = self._scatter(keys)
        removed = np.empty(len(order), dtype=bool)
        for (_idx, _batch, a, b), result in zip(
                self._spans(batches), self._homogeneous(OP_DELETE, batches)):
            removed[a:b] = result
        return _unsort(order, removed)

    def _homogeneous(self, kind: int, batches, values=None) -> list:
        """Run one op kind over every shard's batch; ``values`` (in
        shard order) are an insert's.  Returns each shard's result, for
        the shards with keys, in shard order.

        Uninstrumented, the shards' op bodies run as one wave, so one
        multi-table probe serves every shard.  Instrumented, the same
        bodies run one at a time, each a wave of its own.
        """
        bodies = [host_body(self.shards[idx], kind, batch,
                            None if values is None else values[a:b])
                  for idx, batch, a, b in self._spans(batches)]
        if self._waves_eligible(None):
            return batch_ops.run_bodies(bodies)
        return [batch_ops.run_bodies([body])[0] for body in bodies]

    def contains(self, keys) -> np.ndarray:
        """Membership test for a batch of keys."""
        _values, found = self.find(keys)
        return found

    def get(self, key: int, default: int | None = None):
        """Scalar convenience lookup; returns ``default`` when absent."""
        values, found = self.find(np.asarray([key], dtype=np.uint64))
        return int(values[0]) if bool(found[0]) else default

    def execute_mixed(self, op_codes, keys, values=None,
                      engine: str | None = None) -> MixedBatchResult:
        """Run a mixed insert/find/delete batch across the shards.

        The whole operation stream is scattered by key: each shard
        executes its subsequence through the standard mixed-batch
        machinery, run by run, and the per-position results are
        gathered back.  On the host path each shard runs its planned
        runs (:func:`~repro.core.batch_ops.plan_runs`), on a kernel
        engine its arrival runs.  Uninstrumented host batches run the
        shards' runs in waves (see
        :func:`~repro.core.batch_ops.run_waves`).  Because every
        operation on a given key maps to the same shard, per-key program
        order — the semantics contract of
        :func:`repro.core.batch_ops.execute_mixed` — is preserved while
        shards proceed independently.  ``runs`` is the total number of
        homogeneous sub-batches summed over shards.  If a run raises,
        every shard has applied a prefix of its plan: the other runs of
        the failing wave finish, and no later wave starts.

        ``engine`` is forwarded to every shard's mixed executor;
        ``"warp"`` / ``"cohort"`` run the lane-faithful kernels per
        shard, and ``.kernel`` carries the counters summed over shards.
        """
        # Validate the whole batch first: a shard-local rejection would
        # surface only after the shards before it had applied theirs.
        op_codes, keys, values = check_mixed_batch(op_codes, keys, values,
                                                   engine)
        n = len(keys)
        runs = 0
        kernel_total = None
        if n == 0:
            return MixedBatchResult(np.zeros(n, dtype=np.uint64),
                                    np.zeros(n, dtype=bool),
                                    np.zeros(n, dtype=bool), runs)
        order, batches = self._scatter(keys)
        op_codes = op_codes[order]
        if values is not None:
            values = values[order]
        out_values = np.zeros(n, dtype=np.uint64)
        out_found = np.zeros(n, dtype=bool)
        out_removed = np.zeros(n, dtype=bool)
        spans = list(self._spans(batches))
        work = [(idx, op_codes[a:b], batch,
                 values[a:b] if values is not None else None)
                for idx, batch, a, b in spans]
        results = None
        if self._parallel_eligible(batches):
            results = self._execute_shards_parallel(work, engine)
        if results is None and self._waves_eligible(engine):
            runs = run_waves([(self.shards[idx], batch, a)
                              for idx, batch, a, _b in spans],
                             op_codes, values, out_values, out_found,
                             out_removed)
        else:
            if results is None:
                results = [_execute_mixed(self.shards[idx], shard_ops,
                                          batch, shard_values, engine=engine)
                           for idx, shard_ops, batch, shard_values in work]
            for (_idx, batch, a, b), result in zip(spans, results):
                out_values[a:b] = result.values
                out_found[a:b] = result.found
                out_removed[a:b] = result.removed
                runs += result.runs
                if result.kernel is not None:
                    kernel_total = (result.kernel if kernel_total is None
                                    else kernel_total.merge(result.kernel))
        return MixedBatchResult(_unsort(order, out_values),
                                _unsort(order, out_found),
                                _unsort(order, out_removed), runs,
                                kernel_total)

    def _instrumented(self) -> bool:
        """True when an instrument is attached to the front-end or to
        any shard.  Instruments are shared handles whose event order is
        defined shard by shard, and a shard's own handle must stay the
        one attached to it, so such batches run serially, shard by
        shard."""
        return self.instruments.active or any(
            shard.instruments.active for shard in self.shards)

    def _waves_eligible(self, engine: str | None) -> bool:
        """True when a batch may run in waves: it runs on the host path
        and nothing is :meth:`_instrumented`."""
        return engine is None and not self._instrumented()

    # ------------------------------------------------------------------
    # Parallel shard execution
    # ------------------------------------------------------------------

    def _parallel_eligible(self, batches) -> bool:
        """True when this batch may run on the process pool.

        Requires ``parallel_workers >= 2``, more than one shard with
        work (otherwise the pickling round-trip buys nothing), a
        healthy pool, and no instrument attached to the front-end or to
        any shard (:meth:`_instrumented`): a worker returns a pickled
        copy of its shard, which would carry a copy of the shard's
        handles and detach the caller's.
        """
        if self._parallel_broken or self.num_shards < 2:
            return False
        if self.parallel_workers is None or self.parallel_workers < 2:
            return False
        if sum(1 for batch in batches if batch is not None) < 2:
            return False
        return not self._instrumented()

    def _ensure_executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=min(self.parallel_workers, self.num_shards))
        return self._executor

    def _execute_shards_parallel(self, work, engine):
        """Fan shard subsequences out to the pool; barrier, then merge.

        ``work`` holds ``(shard index, op codes, batch, values)`` per
        shard with keys.  Returns their results in the same order, or
        ``None`` to request the serial fallback after an infrastructure
        failure.  Shard replacement happens only after *every* future
        resolves, so both an application error (which propagates) and a
        pool failure leave the parent's shards exactly as they were.
        """
        try:
            executor = self._ensure_executor()
            futures = [
                executor.submit(_shard_worker, self.shards[idx], shard_ops,
                                batch, shard_values, engine)
                for idx, shard_ops, batch, shard_values in work]
            collected = [future.result() for future in futures]
        except _POOL_ERRORS:
            self._shutdown_pool(broken=True)
            return None
        results = []
        for (idx, *_rest), (shard, result) in zip(work, collected):
            self.shards[idx] = shard
            results.append(result)
        return results

    def _shutdown_pool(self, broken: bool = False) -> None:
        if broken:
            self._parallel_broken = True
        executor, self._executor = self._executor, None
        if executor is not None:
            try:
                executor.shutdown(wait=False, cancel_futures=True)
            except Exception:
                pass

    def close(self) -> None:
        """Release the worker pool (no-op when running serially)."""
        self._shutdown_pool()

    def __enter__(self) -> "ShardedDyCuckoo":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Introspection and roll-ups
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return sum(len(shard) for shard in self.shards)

    @property
    def total_slots(self) -> int:
        """Allocated key slots across all shards."""
        return sum(shard.total_slots for shard in self.shards)

    @property
    def load_factor(self) -> float:
        """Fleet-wide filled factor (live entries / allocated slots)."""
        slots = self.total_slots
        return len(self) / slots if slots else 0.0

    @property
    def shard_load_factors(self) -> list[float]:
        """Per-shard filled factors."""
        return [shard.load_factor for shard in self.shards]

    # The harness samples this name for per-partition fill gauges; for a
    # sharded table the natural partitions are the shards.
    subtable_load_factors = shard_load_factors

    def shard_loads(self) -> list[int]:
        """Live entry count per shard (key-distribution diagnostics)."""
        return [len(shard) for shard in self.shards]

    @property
    def stats(self) -> TableStats:
        """Merged counters across shards (a fresh roll-up per access)."""
        merged = TableStats()
        for shard in self.shards:
            merged.merge(shard.stats)
        return merged

    def shard_stats(self) -> list[TableStats]:
        """The live per-shard stats objects (not copies)."""
        return [shard.stats for shard in self.shards]

    def memory_footprint(self) -> MemoryFootprint:
        """Summed device-memory accounting over all shards."""
        parts = [shard.memory_footprint() for shard in self.shards]
        return MemoryFootprint(
            total_slots=sum(p.total_slots for p in parts),
            live_entries=sum(p.live_entries for p in parts),
            slot_bytes=sum(p.slot_bytes for p in parts),
            overhead_bytes=sum(p.overhead_bytes for p in parts),
        )

    def resize_lock_fraction(self) -> float:
        """Largest data fraction a single resize locks: ``1 / (S * d)``.

        The availability argument for sharding: one resize rebuilds one
        subtable of one shard while everything else keeps serving.
        """
        return 1.0 / (self.num_shards * self.config.num_tables)

    def items(self) -> tuple[np.ndarray, np.ndarray]:
        """All live ``(keys, values)`` across shards (unspecified order)."""
        parts = [shard.items() for shard in self.shards]
        return (np.concatenate([p[0] for p in parts]),
                np.concatenate([p[1] for p in parts]))

    def to_dict(self) -> dict[int, int]:
        """Materialize the whole sharded table as a plain dict."""
        out_keys, out_values = self.items()
        return {int(k): int(v) for k, v in zip(out_keys, out_values)}

    def validate(self) -> None:
        """Check every shard's invariants plus shard-placement.

        Beyond each shard's own :meth:`DyCuckooTable.validate`, asserts
        that every stored key actually routes to the shard holding it
        and that no key is stored in two shards.
        """
        all_keys = []
        for idx, shard in enumerate(self.shards):
            shard.validate()
            shard_keys, _values = shard.items()
            all_keys.append(shard_keys)
            if len(shard_keys):
                routed = self.shard_ids(shard_keys)
                if not (routed == idx).all():
                    raise AssertionError(
                        f"shard {idx} stores a key routed to shard "
                        f"{int(routed[routed != idx][0])}"
                    )
        merged = (np.concatenate(all_keys) if all_keys
                  else np.zeros(0, dtype=np.uint64))
        if len(merged) != len(np.unique(merged)):
            raise AssertionError("duplicate key stored across shards")

    # ------------------------------------------------------------------
    # Instruments
    # ------------------------------------------------------------------

    def attach(self, instruments: Instruments | None) -> None:
        """Attach one bundle of instruments (``None`` detaches them all).

        The front-end's telemetry records the dispatch spans; each
        shard traces into its own child handle so per-shard behaviour
        stays separable, and :meth:`merged_metrics` rolls the shard
        registries up into one labelled view.  The other four handles
        are shared by every shard.  Shards run sequentially within a
        batch, so one sanitizer log keeps violation dedup in one
        report, one fault plan's per-site counters replay
        deterministically, one profiler aggregates every shard's
        kernels, and one recorder ring dumps a post-mortem of whichever
        shard tripped.
        """
        super().attach(instruments)
        for shard in self.shards:
            shard.attach(dataclasses.replace(
                self.instruments,
                telemetry=(Telemetry() if self.telemetry.enabled
                           else NULL_TELEMETRY)))

    def merged_metrics(self):
        """Labelled + aggregated metrics across shards.

        Returns a :class:`~repro.telemetry.metrics.MetricsRegistry`
        holding ``shard{i}.<name>`` copies and ``<name>`` roll-ups —
        feed it to any exporter (e.g.
        :func:`repro.telemetry.export.prometheus_text`).
        """
        return merge_registries({
            f"shard{idx}": shard.telemetry.metrics
            for idx, shard in enumerate(self.shards)
        })
