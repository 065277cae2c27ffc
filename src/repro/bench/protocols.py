"""Check protocols shared by the CLI and the benches.

Each function below drives one contract once; ``repro shard``,
``repro kernel`` and ``repro profile`` call it, and so do
``bench_shard_scaling`` and ``bench_kernel_engine``.  The callers build
the inputs, call the protocol, then print or assert.

* :func:`shard_session` — the sharded front-end on one insert/find/delete
  stream (:func:`shard_stream`), every lane checked against a
  :class:`~repro.oracle.DictModel` and the run priced serial device vs
  one SM group per shard;
* :func:`executor_check` — serial ≡ parallel shards on a warm process
  pool, batch by batch, with wall-clock timings;
* :func:`engine_pair` — warp ≡ cohort on one mixed batch
  (:func:`run_engine` is one timed leg of it);
* :func:`presized_config` — the geometry for one mixed kernel batch.

Each check returns its divergences as a list of problems; empty means
agreement.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.batch_ops import MixedBatchResult
from repro.core.config import DyCuckooConfig
from repro.core.instruments import Instruments
from repro.core.table import DyCuckooTable
from repro.faults import NO_FAULTS, default_chaos_plan
from repro.oracle import DictModel, twin_divergence
from repro.shard import ShardedDyCuckoo, ShardSpeedupReport, speedup_for_table

#: The kernel execution engines, reference first.
ENGINES = ("warp", "cohort")


@dataclass
class ShardSession:
    """Outcome of :func:`shard_session`."""

    table: ShardedDyCuckoo
    report: ShardSpeedupReport
    problems: list[str]


def shard_stream(rng: np.random.Generator, n: int):
    """``(keys, values)`` for :func:`shard_session`: ``n`` distinct keys
    drawn from ``[1, 20 n)`` and values in ``[1, 2^40)``."""
    keys = rng.choice(np.arange(1, n * 20, dtype=np.uint64), size=n,
                      replace=False)
    return keys, rng.integers(1, 1 << 40, size=n, dtype=np.uint64)


def shard_session(num_shards: int, keys: np.ndarray, values: np.ndarray,
                  *, batch: int, config: DyCuckooConfig) -> ShardSession:
    """Insert ``keys`` in batches of ``batch``, find them all, delete the
    first half, on a fresh ``num_shards``-shard front-end.

    Every lane is checked against a :class:`DictModel`; then
    ``validate()`` runs and the work is priced with
    :func:`~repro.shard.speedup_for_table`.  The whole-table check runs
    after the pricing, so its own FIND is not priced.
    """
    table = ShardedDyCuckoo(num_shards=num_shards, config=config)
    before = [stats.snapshot() for stats in table.shard_stats()]
    model = DictModel()
    problems = []
    for start in range(0, len(keys), batch):
        segment = slice(start, start + batch)
        problems += model.apply(table, "insert", keys[segment],
                                values[segment])
    half = keys[: len(keys) // 2]
    problems += model.apply(table, "find", keys)
    problems += model.apply(table, "delete", half)
    table.validate()

    # Every op routes by key, so per-shard op counts follow the routing
    # of the driven key stream (inserts + finds + deletes).
    op_keys = np.concatenate([keys, keys, half])
    shard_ops = np.bincount(table.shard_ids(op_keys),
                            minlength=num_shards).tolist()
    report = speedup_for_table(table, before, shard_ops)
    problems += model.divergence(table)
    return ShardSession(table, report, problems)


def _timed(table: ShardedDyCuckoo, batch):
    start = time.perf_counter()
    result = table.execute_mixed(*batch, engine="cohort")
    return result, time.perf_counter() - start


def executor_check(batches, *, num_shards: int, workers: int,
                   config: DyCuckooConfig, warmup: int) -> dict:
    """Serial vs warm process-pool cohort ``execute_mixed``, batch by batch.

    ``batches`` holds ``(ops, keys, values)`` triples; the first
    ``warmup`` (at least one) are untimed.  Serial runs them first; the
    pool then runs them back to back, so every host CPU is busy before
    timing starts (on a 2-vCPU VM the second CPU took about a second of
    sustained two-process load to come up, and the first timed batches
    read ~1.0x without this).  The first parallel call starts the pool;
    its wall time is reported on its own as ``pool_start_seconds``.  The
    timed batches then alternate which path runs first, so host drift
    hits both alike.  Every batch's result must match serial bit for
    bit, and so must the storage after the warm-up and after every
    timed batch.  Seconds and speedups are medians over the timed
    batches.
    """
    serial = ShardedDyCuckoo(num_shards=num_shards, config=config)
    serial_s, parallel_s = [], []
    with ShardedDyCuckoo(num_shards=num_shards, config=config,
                         parallel_workers=workers) as parallel:
        warm_serial = [_timed(serial, batch)[0]
                       for batch in batches[:warmup]]
        warm_parallel = [_timed(parallel, batch)
                         for batch in batches[:warmup]]
        problems = [f"warm-up batch {index}: {problem}"
                    for index, (rs, (rp, _tp))
                    in enumerate(zip(warm_serial, warm_parallel))
                    for problem in twin_divergence(None, rs, None, rp)]
        problems += [f"after warm-up: {problem}" for problem
                     in twin_divergence(serial, None, parallel, None)]
        for index, batch in enumerate(batches[warmup:]):
            if index % 2:
                rp, tp = _timed(parallel, batch)
                rs, ts = _timed(serial, batch)
            else:
                rs, ts = _timed(serial, batch)
                rp, tp = _timed(parallel, batch)
            problems += [f"batch {index}: {problem}" for problem
                         in twin_divergence(serial, rs, parallel, rp)]
            serial_s.append(ts)
            parallel_s.append(tp)
    ratios = [s / p for s, p in zip(serial_s, parallel_s)]
    return {
        "ops": len(batches[0][0]),
        "batches": len(batches) - warmup,
        "workers": workers,
        "num_shards": num_shards,
        "runs": rs.runs,
        "identical": not problems,
        "problems": problems,
        "pool_start_seconds": warm_parallel[0][1],
        "serial_seconds": float(np.median(serial_s)),
        "parallel_seconds": float(np.median(parallel_s)),
        "wall_speedup": float(np.median(ratios)),
        "min_wall_speedup": min(ratios),
    }


@dataclass
class EngineRun:
    """One engine's timed ``execute_mixed`` (see :func:`run_engine`)."""

    table: DyCuckooTable
    result: MixedBatchResult
    seconds: float


def run_engine(engine: str, ops, keys, values, config: DyCuckooConfig,
               instruments: Instruments | None = None) -> EngineRun:
    """Time one ``execute_mixed`` on a fresh ``config`` table with
    ``instruments`` attached."""
    table = DyCuckooTable(config)
    table.attach(instruments)
    start = time.perf_counter()
    result = table.execute_mixed(ops, keys, values, engine=engine)
    return EngineRun(table, result, time.perf_counter() - start)


def engine_pair(ops, keys, values, config: DyCuckooConfig, *,
                fault_seed: int | None = None
                ) -> tuple[dict[str, EngineRun], list[str]]:
    """Run one mixed batch on each engine; return the runs by engine and
    the problems.

    With a ``fault_seed``, each engine's table runs under its own
    ``default_chaos_plan(seed=fault_seed)`` (its ``faults`` handle).
    The engines must agree on results, storage and cost counters
    (:func:`~repro.oracle.twin_divergence`) and on every fault decision.
    """
    runs = {}
    for engine in ENGINES:
        plan = (NO_FAULTS if fault_seed is None
                else default_chaos_plan(seed=fault_seed))
        runs[engine] = run_engine(engine, ops, keys, values, config,
                                  Instruments(faults=plan))
    warp, cohort = runs["warp"], runs["cohort"]
    problems = twin_divergence(warp.table, warp.result,
                               cohort.table, cohort.result)
    if warp.table.faults.fired != cohort.table.faults.fired:
        problems.append("fault decisions diverged")
    if warp.table.faults.invocations() != cohort.table.faults.invocations():
        problems.append("fault-site invocations diverged")
    return runs, problems


def presized_config(n: int, seed: int) -> DyCuckooConfig:
    """Geometry for one ``n``-op mixed kernel batch, kept below ~50% fill.

    The kernels never resize; at most ``n / 2`` distinct keys of a
    :func:`repro.oracle.mixed_batch` are ever live, so target ~n slots.
    """
    buckets = 8
    while 4 * buckets * 16 < n:
        buckets *= 2
    return DyCuckooConfig(initial_buckets=buckets, bucket_capacity=16,
                          auto_resize=False, seed=seed)
