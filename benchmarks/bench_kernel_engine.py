"""Kernel execution engines — warp reference vs vectorized cohort.

Drives mixed batches (insert/find/delete in long homogeneous runs, the
bulk-synchronous shape of the paper's dynamic workloads) through the
lane-faithful kernels under both execution engines (see
``docs/performance.md``), across three legs:

* ``mixed`` — the classic 100k-op run-structured batch;
* ``dup_heavy`` — a high-fill, duplicate-majority insert stream that
  forces the cohort engine through its key-coincidence (hazard)
  rounds, which it replays warp by warp in permutation order; the
  hazard rate is reported alongside speedup;
* ``faulty`` — the mixed batch under a chaos fault plan, exercising
  the SoA fault windows (historically this leg delegated to the warp
  interpreter, i.e. 1x by construction);
* ``narrow`` — insert launches of about 10 warps into a table held at
  75 % fill, the shape of the e2e ``cohort_mixed`` workload, where the
  number of numpy calls per round, not their width, sets the cohort
  engine's time; it records each engine's ``seconds_per_round``.

Expected shapes: the engines return identical results and identical
aggregate cost counters on every leg (the bit-for-bit conformance
contract), and the cohort engine clears the gated speedup floors.  The
``mixed``, ``dup_heavy`` and ``faulty`` legs run the engines through
:func:`repro.bench.protocols.engine_pair`, the same protocol
``repro kernel`` runs.

With ``REPRO_BENCH_JSON`` set, results are also dumped as
``BENCH_kernel_engine.json`` for regression tracking.
"""

import time

import numpy as np

from repro.bench import format_table, shape_check
from repro.bench.artifacts import maybe_dump
from repro.bench.protocols import ENGINES, engine_pair
from repro.core.batch_ops import OP_INSERT
from repro.core.config import DyCuckooConfig
from repro.core.instruments import Instruments
from repro.core.table import DyCuckooTable
from repro.faults import NO_FAULTS, default_chaos_plan
from repro.kernels import run_voter_insert_kernel
from repro.oracle import mixed_batch, twin_divergence
from repro.telemetry import Profiler

from benchmarks.common import once

#: Operations in the mixed batch (paper-scale sweeps use 1e7; scaled).
NUM_OPS = 100_000

#: Bounds on one homogeneous run's length.  Long runs are the
#: bulk-synchronous regime the engines are built for; the cohort
#: engine amortizes per-launch setup over each run.
RUN_LENGTH = (2_000, 8_000)

#: Table geometry: 4 x 256 x 32 = 32,768 slots, which pushes the ~30k
#: distinct live keys toward high fill so eviction chains actually fire
#: (kernels never resize).
NUM_TABLES = 4
BUCKETS = 256
BUCKET_CAPACITY = 32

#: Duplicate-heavy leg: a small keyspace against a small table drives
#: fill to ~75%, so evictions retarget duplicate carriers into foreign
#: buckets — the condition that makes key-coincidence hazards real.
DUP_OPS = 30_000
DUP_BUCKETS = 16
DUP_CAPACITY = 8

#: Gated speedup floors (``perf_gate`` skips wall-clock keys; these
#: asserts are the enforcement).  The mixed floor was 10x before the
#: vectorized hazard/fault work landed.
MIXED_FLOOR = 12.0
DUP_FLOOR = 8.0
FAULT_FLOOR = 8.0

#: Narrow leg: fresh-key insert launches of ``NARROW_INSERTS`` ops
#: (10 warps) into the default table preloaded to ``NARROW_FILL``; a
#: host delete of as many live keys after each launch holds the fill.
NARROW_BATCHES = 40
NARROW_INSERTS = 300
NARROW_FILL = 0.75

COUNTER_FIELDS = ("rounds", "memory_transactions", "lock_acquisitions",
                  "lock_conflicts", "evictions", "completed_ops", "votes")


def _workload(rng: np.random.Generator):
    """Run-structured mixed op stream: (ops, keys, values)."""
    return mixed_batch(rng, NUM_OPS, run_length=RUN_LENGTH,
                       keyspace=NUM_OPS // 2, value_high=1 << 40)


def _dup_workload(rng: np.random.Generator):
    """Insert-only stream where every warp is duplicate-majority."""
    slots = NUM_TABLES * DUP_BUCKETS * DUP_CAPACITY
    keyspace = slots * 3 // 4
    ops = np.full(DUP_OPS, OP_INSERT, dtype=np.int64)
    keys = rng.integers(1, keyspace + 1, DUP_OPS).astype(np.uint64)
    values = rng.integers(1, 1 << 40, DUP_OPS).astype(np.uint64)
    return ops, keys, values


def _narrow_workload(rng: np.random.Generator):
    """``(preload, batches)``: the preloaded ``(keys, values)`` and per
    batch ``(insert_keys, insert_values, delete_keys)``."""
    slots = NUM_TABLES * BUCKETS * BUCKET_CAPACITY
    pool = rng.permutation(np.unique(
        rng.integers(1, 1 << 62, 2 * slots, dtype=np.int64)).astype(np.uint64))
    n_live = int(slots * NARROW_FILL)
    live, fresh = pool[:n_live], pool[n_live:]
    preload = (live, rng.integers(1, 1 << 40, n_live).astype(np.uint64))
    batches = []
    for _ in range(NARROW_BATCHES):
        inserts, fresh = fresh[:NARROW_INSERTS], fresh[NARROW_INSERTS:]
        gone = rng.choice(len(live), NARROW_INSERTS, replace=False)
        deletes = live[gone]
        live = np.concatenate([np.delete(live, gone), inserts])
        fresh = np.concatenate([fresh, deletes])
        batches.append((inserts, rng.integers(1, 1 << 40, NARROW_INSERTS)
                        .astype(np.uint64), deletes))
    return preload, batches


def _run_narrow(preload, batches) -> dict:
    """Drive the narrow leg's insert launches through both engines.

    Only the insert launches are timed; the host deletes between them
    are not.  Asserts conformance of storage and counters.
    """
    outcomes = {}
    for engine in ENGINES:
        table = DyCuckooTable(_config())
        table.insert(*preload)
        seconds = 0.0
        counters = dict.fromkeys(COUNTER_FIELDS, 0)
        for keys, values, deletes in batches:
            start = time.perf_counter()
            result = run_voter_insert_kernel(table, keys, values,
                                             engine=engine)
            seconds += time.perf_counter() - start
            for f in COUNTER_FIELDS:
                counters[f] += getattr(result, f)
            table.delete(deletes)
        outcomes[engine] = (table, seconds, counters)
    problems = twin_divergence(outcomes["warp"][0], None,
                               outcomes["cohort"][0], None)
    assert not problems, problems
    assert outcomes["warp"][2] == outcomes["cohort"][2]

    slots = NUM_TABLES * BUCKETS * BUCKET_CAPACITY
    leg = {"ops": NARROW_BATCHES * NARROW_INSERTS,
           "launches": NARROW_BATCHES,
           "warps_per_launch": -(-NARROW_INSERTS // 32),
           "fill": len(preload[0]) / slots, "conformant": True}
    for engine in ENGINES:
        _table, seconds, counters = outcomes[engine]
        leg[engine] = {"seconds": seconds,
                       "seconds_per_round": seconds / counters["rounds"],
                       "ops_per_sec": leg["ops"] / seconds, **counters}
    leg["speedup"] = leg["warp"]["seconds"] / leg["cohort"]["seconds"]
    return leg


def _config(buckets=BUCKETS, capacity=BUCKET_CAPACITY) -> DyCuckooConfig:
    return DyCuckooConfig(num_tables=NUM_TABLES, initial_buckets=buckets,
                          bucket_capacity=capacity, auto_resize=False,
                          seed=1080)


def _run_leg(ops, keys, values, *, buckets=BUCKETS,
             capacity=BUCKET_CAPACITY, fault_seed=None) -> dict:
    """Drive one leg through both engines; assert conformance."""
    num_ops = len(ops)
    config = _config(buckets, capacity)
    runs, problems = engine_pair(ops, keys, values, config,
                                 fault_seed=fault_seed)
    assert not problems, problems

    # Hazard telemetry: a separate profiled cohort pass (the profiler
    # adds per-round bookkeeping, so it stays out of the timed run).
    prof_table = DyCuckooTable(config)
    prof = Profiler()
    prof_table.attach(Instruments(
        profiler=prof,
        faults=(default_chaos_plan(seed=fault_seed)
                if fault_seed is not None else NO_FAULTS)))
    prof_table.execute_mixed(ops, keys, values, engine="cohort")

    leg = {"ops": num_ops, "runs": runs["warp"].result.runs,
           "conformant": True,
           "hazard_rounds": prof.hazard_rounds,
           "hazard_lanes": prof.hazard_lanes,
           "hazard_lane_rate": prof.hazard_lanes / num_ops}
    if fault_seed is not None:
        leg["faults_injected"] = len(runs["cohort"].table.faults.fired)
    for engine, run in runs.items():
        leg[engine] = {
            "seconds": run.seconds,
            "ops_per_sec": num_ops / run.seconds,
            **{f: getattr(run.result.kernel, f) for f in COUNTER_FIELDS},
        }
    leg["speedup"] = leg["warp"]["seconds"] / leg["cohort"]["seconds"]
    return leg


def _run_all() -> dict:
    rng = np.random.default_rng(1080)
    mixed = _run_leg(*_workload(rng))
    dup = _run_leg(*_dup_workload(rng), buckets=DUP_BUCKETS,
                   capacity=DUP_CAPACITY)
    faulty = _run_leg(*_workload(np.random.default_rng(2080)),
                      fault_seed=7)
    narrow = _run_narrow(*_narrow_workload(np.random.default_rng(3080)))
    # Top-level keys keep the historic layout for the perf gate; the
    # new legs nest under their own names.
    results = {"ops": mixed["ops"], "runs": mixed["runs"],
               "conformant": True, "speedup": mixed["speedup"],
               "warp": mixed["warp"], "cohort": mixed["cohort"],
               "hazard_rounds": mixed["hazard_rounds"],
               "hazard_lanes": mixed["hazard_lanes"],
               "hazard_lane_rate": mixed["hazard_lane_rate"],
               "dup_heavy": dup, "faulty": faulty, "narrow": narrow}
    return results


def test_kernel_engine(benchmark):
    results = once(benchmark, _run_all)
    maybe_dump("BENCH_kernel_engine", results)

    legs = {"mixed": results, "dup_heavy": results["dup_heavy"],
            "faulty": results["faulty"]}
    narrow = results["narrow"]
    print()
    print(format_table(
        ["leg", "engine", "seconds", "ops/sec", "rounds", "transactions",
         "evictions", "hazard rate"],
        [[leg, engine, data[engine]["seconds"],
          data[engine]["ops_per_sec"], data[engine]["rounds"],
          data[engine]["memory_transactions"], data[engine]["evictions"],
          data["hazard_lane_rate"] if engine == "cohort" else 0.0]
         for leg, data in legs.items() for engine in ENGINES],
        title=f"Kernel engines: mixed {results['ops']:,} ops, "
              f"dup-heavy {results['dup_heavy']['ops']:,} ops, "
              f"faulty {results['faulty']['ops']:,} ops"))
    print()
    print(format_table(
        ["engine", "seconds", "rounds", "us/round", "evictions"],
        [[engine, narrow[engine]["seconds"], narrow[engine]["rounds"],
          narrow[engine]["seconds_per_round"] * 1e6,
          narrow[engine]["evictions"]] for engine in ENGINES],
        title=f"Narrow leg: {narrow['launches']} insert launches of "
              f"{narrow['warps_per_launch']} warps at "
              f"{narrow['fill']:.0%} fill"))

    identical_counters = all(
        legs[leg][eng][f] == legs[leg]["cohort"][f]
        for leg in legs for eng in ENGINES for f in COUNTER_FIELDS)
    checks = [
        ("every leg returns identical results and storage",
         all(data["conformant"] for data in legs.values())),
        ("aggregate cost counters identical across engines on every leg",
         identical_counters),
        (f"mixed: cohort >= {MIXED_FLOOR:.0f}x faster "
         f"({results['speedup']:.1f}x)",
         results["speedup"] >= MIXED_FLOOR),
        (f"dup-heavy: cohort >= {DUP_FLOOR:.0f}x faster "
         f"({legs['dup_heavy']['speedup']:.1f}x)",
         legs["dup_heavy"]["speedup"] >= DUP_FLOOR),
        (f"faulty: cohort >= {FAULT_FLOOR:.0f}x faster "
         f"({legs['faulty']['speedup']:.1f}x)",
         legs["faulty"]["speedup"] >= FAULT_FLOOR),
        ("dup-heavy leg exercises the in-order hazard replay "
         f"({legs['dup_heavy']['hazard_rounds']} rounds, "
         f"{legs['dup_heavy']['hazard_lanes']} lanes)",
         legs["dup_heavy"]["hazard_rounds"] > 0),
        ("faulty leg injects faults "
         f"({legs['faulty']['faults_injected']})",
         legs["faulty"]["faults_injected"] > 0),
        ("the mixed batch exercises evictions (insert pressure is real)",
         results["warp"]["evictions"] > 0),
        ("narrow: identical storage and counters, evictions fire "
         f"({narrow['cohort']['evictions']})",
         narrow["conformant"] and narrow["cohort"]["evictions"] > 0),
    ]
    print()
    for label, ok in checks:
        print(shape_check(label, ok))
        assert ok, label
