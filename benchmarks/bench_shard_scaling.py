"""Shard scaling — simulated speedup of the sharded front-end.

Runs the same mixed workload (insert, find, delete) through
:class:`~repro.shard.ShardedDyCuckoo` at S in {1, 2, 4, 8} and prices
each run two ways with :func:`~repro.shard.speedup_for_table`:
serially on the whole simulated GTX 1080, and in parallel with one SM
group per shard (the front-end's execution model).  The S sweep and
the ``executor`` leg call the protocols in :mod:`repro.bench.protocols`
(``shard_session`` and ``executor_check``), the same ones
``repro shard`` runs.

Expected shapes: S=1 is exactly the serial schedule (speedup 1.0);
larger S parallelizes round-synchronization, compute, and lock
contention while the memory-bound fraction stays tied to the shared
DRAM bus, so speedup grows with S but stays well short of linear.  At
every shard count each FIND and DELETE lane, and the final contents,
match a :class:`~repro.oracle.DictModel`.

A final ``executor`` leg runs cohort mixed batches through the
*process-pool* shard executor (``parallel_workers``) and through the
serial path, asserting the executor's determinism contract —
bit-identical results, runs, merged kernel counters, and final
storage.  Untimed warm-up batches start the pool (the first parallel
call's wall time is reported as ``pool_start_seconds``); the timed
batches measure the warm pool, and on hosts with two or more CPUs the
median wall speedup must reach ``EXEC_MIN_SPEEDUP``.  The wall-clock
keys are named ``*_seconds`` / ``*speedup*``, so the strict perf gate
skips them: the win depends on host core count, which is 1 on some CI
shapes.

A serial ``waves`` leg runs a stream shaped like the end-to-end
``shard_churn`` workload (4 shards, a 20,000-key preload, 400-op
batches of 160 inserts, 160 finds and 80 deletes in runs of 40-160)
twice: through the sharded front-end, whose waves serve every shard's
eviction round with one stacked placement pass, and shard by shard,
each shard running its own subsequence alone.  Both must leave the
same results, storage and per-shard ``TableStats`` after every batch.
It records the placement passes, the parts they served, the insert
rounds and each shard's final ``TableStats`` as counter leaves, and
the median seconds per batch of each side (skipped by the strict
gate; the leg sets no wall-clock floor).

With ``REPRO_BENCH_JSON`` set, results are also dumped as
``BENCH_shard.json`` for regression tracking.
"""

import os
import time

import numpy as np

from repro.bench import format_table, shape_check, unit_fraction
from repro.bench.artifacts import maybe_dump
from repro.bench.protocols import (executor_check, shard_session,
                                   shard_stream)
from repro.core import batch_ops
from repro.core.batch_ops import OP_DELETE, OP_FIND, OP_INSERT
from repro.core.config import DyCuckooConfig
from repro.oracle import mixed_batch, twin_divergence
from repro.shard import ShardedDyCuckoo

from benchmarks.common import BATCH_SIZE, once

#: Shard counts swept (powers of two; 8 groups on 20 SMs still splits).
SHARD_COUNTS = (1, 2, 4, 8)

#: Distinct keys driven through each table (paper's 1e7, scaled).
NUM_KEYS = 10_000

#: Subtables per shard (the paper's default geometry).
NUM_TABLES = 4


def _shard_config() -> DyCuckooConfig:
    """Per-shard geometry: start small, grow with the workload."""
    return DyCuckooConfig(num_tables=NUM_TABLES, bucket_capacity=32,
                          initial_buckets=8, min_buckets=8)


def _run_one(num_shards: int, keys: np.ndarray, values: np.ndarray) -> dict:
    session = shard_session(num_shards, keys, values, batch=BATCH_SIZE,
                            config=_shard_config())
    assert not session.problems, (
        f"S={num_shards} diverged from the dict model", session.problems[:3])
    assert session.report.num_ops == len(keys) * 2 + len(keys) // 2
    return session.report.to_dict()


#: Executor leg geometry: low fill keeps the cohort kernels fast, so
#: the leg stays cheap in the CI bench-smoke job.
EXEC_OPS = 40_000
EXEC_SHARDS = 4
EXEC_WORKERS = 4

#: Untimed warm-up batches; the first parallel one starts the pool.
EXEC_WARMUP = 4

#: Timed executor batches; the reported speedup is the median of the
#: per-batch ratios.
EXEC_BATCHES = 12

#: Floor on the warm-pool wall speedup, asserted on multi-core hosts.
EXEC_MIN_SPEEDUP = 1.2


def _run_executor_leg() -> dict:
    """Serial vs warm process-pool execute_mixed (see
    :func:`~repro.bench.protocols.executor_check`)."""
    config = DyCuckooConfig(num_tables=NUM_TABLES, bucket_capacity=32,
                            initial_buckets=32, min_buckets=8)
    rng = np.random.default_rng(77)
    # Long homogeneous runs (the kernels' regime) over a small keyspace.
    batches = [mixed_batch(rng, EXEC_OPS, run_length=(2_000, 6_000),
                           keyspace=1_999, value_high=1 << 40)
               for _ in range(EXEC_WARMUP + EXEC_BATCHES)]
    return executor_check(batches, num_shards=EXEC_SHARDS,
                          workers=EXEC_WORKERS, config=config,
                          warmup=EXEC_WARMUP)


#: Waves leg geometry, shaped like the e2e ``shard_churn`` workload.
WAVE_SHARDS = 4
WAVE_POOL = 30_000
WAVE_PRELOAD = 20_000
WAVE_BATCHES = 50
#: Insert, find and delete ops per batch.
WAVE_QUOTAS = (160, 160, 80)
#: Shortest and longest homogeneous run.
WAVE_RUN = (40, 160)


def _wave_ops(rng: np.random.Generator) -> np.ndarray:
    """One batch's op codes: the quotas cut into runs, shuffled."""
    runs = []
    for kind, quota in zip((OP_INSERT, OP_FIND, OP_DELETE), WAVE_QUOTAS):
        while quota > 0:
            length = min(quota, int(rng.integers(WAVE_RUN[0],
                                                 WAVE_RUN[1] + 1)))
            runs.append(np.full(length, kind, dtype=np.int64))
            quota -= length
    return np.concatenate([runs[i] for i in rng.permutation(len(runs))])


def _per_shard_mixed(table: ShardedDyCuckoo, ops, keys, values):
    """``execute_mixed`` shard by shard: the front-end's scatter, then
    each shard's own mixed executor on its subsequence."""
    from repro.core.batch_ops import MixedBatchResult, execute_mixed

    n = len(keys)
    out = [np.zeros(n, dtype=np.uint64), np.zeros(n, dtype=bool),
           np.zeros(n, dtype=bool)]
    order, batches = table._scatter(keys)
    runs = start = 0
    for shard, batch in zip(table.shards, batches):
        if batch is None:
            continue
        at = order[start:start + len(batch)]
        start += len(batch)
        result = execute_mixed(shard, ops[at], batch, values[at])
        out[0][at], out[1][at], out[2][at] = (result.values, result.found,
                                              result.removed)
        runs += result.runs
    return MixedBatchResult(*out, runs)


def _run_waves_leg() -> dict:
    """A ``shard_churn``-shaped stream in waves and shard by shard.

    Placement passes are counted at ``batch_ops.place_parts``, the pass
    the waves serve each round with; run shard by shard, every round
    is a lone one-part pass instead.  The two sides alternate which
    runs first, batch by batch.
    """
    rng = np.random.default_rng(35)
    pool = rng.choice(np.arange(1, WAVE_POOL * 20, dtype=np.uint64),
                      size=WAVE_POOL, replace=False)
    preload = pool[rng.permutation(WAVE_POOL)[:WAVE_PRELOAD]]
    stream = []
    for _ in range(WAVE_BATCHES):
        ops = _wave_ops(rng)
        keys = pool[rng.integers(0, WAVE_POOL, len(ops))]
        stream.append((ops, keys, rng.integers(1, 1 << 40, len(ops),
                                               dtype=np.uint64)))
    waves, alone = (ShardedDyCuckoo(num_shards=WAVE_SHARDS)
                    for _ in range(2))
    for table in (waves, alone):
        table.insert(preload, preload)
    before = [stats.snapshot() for stats in waves.shard_stats()]
    parts: list[int] = []
    plain = batch_ops.place_parts

    def counted(requests):
        parts.append(len(requests))
        return plain(requests)

    problems: list[str] = []
    wave_s, alone_s = [], []
    for index, batch in enumerate(stream):
        for side in ((0, 1) if index % 2 else (1, 0)):
            start = time.perf_counter()
            if side:
                batch_ops.place_parts = counted
                try:
                    got = waves.execute_mixed(*batch)
                finally:
                    batch_ops.place_parts = plain
                wave_s.append(time.perf_counter() - start)
            else:
                want = _per_shard_mixed(alone, *batch)
                alone_s.append(time.perf_counter() - start)
        problems += twin_divergence(waves, got, alone, want)
        if ([stats.snapshot() for stats in waves.shard_stats()]
                != [stats.snapshot() for stats in alone.shard_stats()]):
            problems.append(f"batch {index}: shard stats diverged")
    deltas = [stats.delta(snap)
              for stats, snap in zip(waves.shard_stats(), before)]
    return {
        "num_shards": WAVE_SHARDS,
        "batches": WAVE_BATCHES,
        "ops": WAVE_BATCHES * sum(WAVE_QUOTAS),
        "identical": not problems,
        "placement_passes": len(parts),
        "placement_parts": sum(parts),
        "insert_rounds": sum(delta["eviction_rounds"] for delta in deltas),
        "shard_stats": [stats.snapshot() for stats in waves.shard_stats()],
        "wave_seconds_per_batch": float(np.median(wave_s)),
        "per_shard_seconds_per_batch": float(np.median(alone_s)),
    }


def _run_all() -> dict:
    # One deterministic stream shared by every shard count.
    keys, values = shard_stream(np.random.default_rng(1080), NUM_KEYS)
    results = {num_shards: _run_one(num_shards, keys, values)
               for num_shards in SHARD_COUNTS}
    results["executor"] = _run_executor_leg()
    results["waves"] = _run_waves_leg()
    return results


def test_shard_scaling(benchmark):
    results = once(benchmark, _run_all)
    maybe_dump("BENCH_shard", results)

    print()
    print(format_table(
        ["S", "serial Mops", "parallel Mops", "speedup", "lock fraction"],
        [[s, r["serial_mops"], r["parallel_mops"], r["speedup"],
          unit_fraction(r["resize_lock_fraction"])]
         for s, r in results.items() if s in SHARD_COUNTS],
        title="Shard scaling: serial device vs one SM group per shard"))

    executor = results["executor"]
    print(f"\nprocess-pool executor ({executor['workers']} workers, "
          f"S={executor['num_shards']}, {executor['ops']:,} cohort ops, "
          f"median of {executor['batches']} warm batches): "
          f"serial {executor['serial_seconds']:.3f}s, "
          f"parallel {executor['parallel_seconds']:.3f}s "
          f"({executor['wall_speedup']:.2f}x wall, "
          f"min {executor['min_wall_speedup']:.2f}x); "
          f"pool start {executor['pool_start_seconds']:.3f}s")

    waves = results["waves"]
    print(f"\nwaves ({waves['num_shards']} shards, {waves['batches']} "
          f"batches of {waves['ops'] // waves['batches']} ops): "
          f"{waves['insert_rounds']} insert rounds in "
          f"{waves['placement_passes']} placement passes "
          f"({waves['placement_parts']} parts); median batch "
          f"{waves['wave_seconds_per_batch'] * 1e3:.2f} ms in waves, "
          f"{waves['per_shard_seconds_per_batch'] * 1e3:.2f} ms shard "
          f"by shard")

    speedups = {s: results[s]["speedup"] for s in SHARD_COUNTS}
    checks = [
        ("waves are bit-identical to shard-by-shard execution",
         waves["identical"]),
        ("every insert round is served by a stacked placement pass",
         waves["placement_parts"] == waves["insert_rounds"]),
        (f"stacking serves several shards a pass "
         f"({waves['placement_passes']} < {waves['insert_rounds']})",
         waves["placement_passes"] < waves["insert_rounds"]),
        ("process-pool executor is bit-identical to serial",
         executor["identical"]),
        (f"warm process pool pays on {os.cpu_count()} CPUs "
         f"({executor['wall_speedup']:.2f}x >= {EXEC_MIN_SPEEDUP}x)",
         executor["wall_speedup"] >= EXEC_MIN_SPEEDUP
         or (os.cpu_count() or 1) < 2),
        ("S=1 is the serial schedule (speedup == 1.0)",
         abs(speedups[1] - 1.0) < 1e-9),
        (f"sharding helps at S=4 ({speedups[4]:.2f}x > 1.2x)",
         speedups[4] > 1.2),
        (f"speedup grows from S=1 to S=4 "
         f"({speedups[1]:.2f} < {speedups[2]:.2f} < {speedups[4]:.2f})",
         speedups[1] < speedups[2] < speedups[4]),
        ("sub-linear: the memory-bound fraction shares the DRAM bus",
         all(speedups[s] < s for s in SHARD_COUNTS if s > 1)),
        ("a resize locks 1/(S*d) of the data",
         all(results[s]["resize_lock_fraction"] == 1.0 / (s * NUM_TABLES)
             for s in SHARD_COUNTS)),
    ]
    print()
    for label, ok in checks:
        print(shape_check(label, ok))
        assert ok, label
