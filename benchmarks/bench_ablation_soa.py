"""Ablation — separate key/value arrays vs interleaved storage.

Figure 2's design stores keys and values in *separate* arrays ("the
values could take much larger memory space than the keys; storing keys
and values separately avoids the overhead of memory access when
accessing the values is not necessary, e.g., finding a nonexistent KV
pair or deleting a KV pair").

This ablation prices the same measured workload under both layouts:

* **SoA** (implemented): a probe reads the key line only; the value
  line is touched only on a hit that returns a value;
* **AoS** (counterfactual): keys and values interleave, so *every*
  probe drags the value bytes through the memory system — the miss- and
  delete-heavy costs the paper calls out.

The counterfactual is computed from the same event counts (a layout
change does not alter the algorithm), so the comparison is exact.

Two workload families are priced: the classic coincidence-free sweep
(unique keys through the host path) and a **duplicate-heavy** leg —
a high-fill, duplicate-majority upsert stream through the cohort
kernels, where evictions retarget duplicate carriers and
key-coincidence (hazard) rounds are replayed in order.  The leg
asserts that it actually exercised that replay, so this ablation can
never silently regress to pricing only the coincidence-free fast
path.
"""

import numpy as np

from repro.bench import format_table, shape_check
from repro.core.batch_ops import OP_FIND, OP_INSERT
from repro.core.config import DyCuckooConfig
from repro.core.instruments import Instruments
from repro.core.table import DyCuckooTable
from repro.gpusim import GTX_1080
from repro.telemetry import Profiler

from benchmarks.common import once

N_KEYS = 40_000
LINE = GTX_1080.cache_line_bytes
BANDWIDTH = GTX_1080.effective_bandwidth_bytes_per_s

#: Duplicate-heavy leg geometry: 4 x 16 x 8 = 512 slots at ~75% fill,
#: with a keyspace small enough that every warp is duplicate-majority.
DUP_OPS = 8_000
DUP_BUCKETS = 16
DUP_CAPACITY = 8


def _measure(value_bytes_per_slot: int):
    """Run find/delete workloads; price key and value traffic per layout.

    ``value_bytes_per_slot`` scales the value payload (8 = the paper's
    4-byte-key/4-byte-value regime scaled to our 8-byte slots; 32/128 =
    fat values where the SoA argument grows teeth).
    """
    table = DyCuckooTable(DyCuckooConfig(initial_buckets=1024,
                                         bucket_capacity=16,
                                         auto_resize=False))
    rng = np.random.default_rng(41)
    keys = np.unique(rng.integers(1, 1 << 62, int(N_KEYS * 1.3)
                                  ).astype(np.uint64))[:N_KEYS]
    table.insert(keys, keys)

    results = {}
    for workload, run in (
            ("find (hits)", lambda: table.find(keys)),
            ("find (misses)", lambda: table.find(
                rng.integers(1 << 62, (1 << 63) - 1, N_KEYS
                             ).astype(np.uint64))),
            ("delete", lambda: table.delete(keys))):
        before = table.stats.snapshot()
        run()
        delta = table.stats.delta(before)
        probes = delta["bucket_reads"]
        hits = delta["find_hits"] + delta["delete_hits"]
        writes = delta["bucket_writes"]

        key_lines = probes + writes
        # SoA: value lines move only for hits returning/overwriting values.
        value_lines_per_touch = max(1, value_bytes_per_slot * 16 // LINE)
        soa_lines = key_lines + hits * value_lines_per_touch
        # AoS: every probed bucket drags its value bytes too.
        aos_lines = key_lines * (1 + value_lines_per_touch)

        soa_s = soa_lines * LINE / BANDWIDTH
        aos_s = aos_lines * LINE / BANDWIDTH
        results[workload] = (N_KEYS / soa_s / 1e6, N_KEYS / aos_s / 1e6)
        if workload == "delete":
            table.insert(keys, keys)  # restore for any later use
    return results


def _measure_duplicate_heavy(value_bytes_per_slot: int):
    """Price the layouts on a duplicate-majority cohort-kernel stream.

    An upsert-heavy batch where most keys repeat within a warp: under
    SoA an upsert that matches an existing key touches the value line
    once; under AoS every probed bucket drags value bytes along.  The
    stream runs at ~75% fill so evictions retarget duplicate carriers
    — the condition that drives the in-order hazard replay — and
    the traffic is taken from the kernel's own transaction counter.
    """
    table = DyCuckooTable(DyCuckooConfig(
        initial_buckets=DUP_BUCKETS, bucket_capacity=DUP_CAPACITY,
        auto_resize=False, seed=2))
    prof = Profiler()
    table.attach(Instruments(profiler=prof))
    rng = np.random.default_rng(43)
    slots = 4 * DUP_BUCKETS * DUP_CAPACITY
    keyspace = slots * 3 // 4
    half = DUP_OPS // 2
    ops = np.concatenate([np.full(half, OP_INSERT),
                          np.full(DUP_OPS - half, OP_FIND)]
                         ).astype(np.int64)
    keys = rng.integers(1, keyspace + 1, DUP_OPS).astype(np.uint64)
    values = rng.integers(1, 1 << 40, DUP_OPS).astype(np.uint64)
    result = table.execute_mixed(ops, keys, values, engine="cohort")

    key_lines = result.kernel.memory_transactions
    value_touches = int(result.kernel.completed_ops
                        + result.found.sum())
    value_lines_per_touch = max(1, value_bytes_per_slot * 16 // LINE)
    soa_lines = key_lines + value_touches * value_lines_per_touch
    aos_lines = key_lines * (1 + value_lines_per_touch)
    soa_s = soa_lines * LINE / BANDWIDTH
    aos_s = aos_lines * LINE / BANDWIDTH
    return {
        "soa_mops": DUP_OPS / soa_s / 1e6,
        "aos_mops": DUP_OPS / aos_s / 1e6,
        "hazard_rounds": prof.hazard_rounds,
        "hazard_lanes": prof.hazard_lanes,
    }


def _run_all():
    results = {payload: _measure(payload) for payload in (8, 32, 128)}
    results["dup_heavy"] = {payload: _measure_duplicate_heavy(payload)
                            for payload in (8, 32, 128)}
    return results


def test_ablation_soa_layout(benchmark):
    all_results = once(benchmark, _run_all)
    dup_heavy = all_results["dup_heavy"]
    by_payload = {payload: results
                  for payload, results in all_results.items()
                  if payload != "dup_heavy"}

    rows = []
    for payload, results in by_payload.items():
        for workload, (soa, aos) in results.items():
            rows.append([f"{payload} B/value", workload, soa, aos,
                         soa / aos])
    for payload, leg in dup_heavy.items():
        rows.append([f"{payload} B/value", "dup-heavy upsert",
                     leg["soa_mops"], leg["aos_mops"],
                     leg["soa_mops"] / leg["aos_mops"]])
    print()
    print(format_table(
        ["value size", "workload", "SoA Mops", "AoS Mops", "SoA gain"],
        rows, title="Ablation: separate key/value arrays (Figure 2)",
        float_fmt="{:.1f}"))

    checks = []
    for payload, results in by_payload.items():
        for workload, (soa, aos) in results.items():
            checks.append(
                (f"{payload}B {workload}: SoA never slower", soa >= aos))
        miss_gain = results["find (misses)"][0] / results["find (misses)"][1]
        hit_gain = results["find (hits)"][0] / results["find (hits)"][1]
        checks.append((f"{payload}B: misses gain more than hits "
                       f"({miss_gain:.1f}x vs {hit_gain:.1f}x)",
                       miss_gain >= hit_gain))
    fat = by_payload[128]["find (misses)"]
    checks.append((f"fat values: SoA saves {fat[0] / fat[1]:.0f}x on "
                   "misses", fat[0] / fat[1] > 1.5))
    hazard_rounds = dup_heavy[8]["hazard_rounds"]
    checks.append(
        (f"dup-heavy leg drives the in-order hazard replay "
         f"({hazard_rounds} rounds, {dup_heavy[8]['hazard_lanes']} lanes)",
         hazard_rounds > 0))
    for payload, leg in dup_heavy.items():
        checks.append((f"{payload}B dup-heavy upsert: SoA never slower",
                       leg["soa_mops"] >= leg["aos_mops"]))

    print()
    for label, ok in checks:
        print(shape_check(label, ok))
    failures = [label for label, ok in checks if not ok]
    assert not failures, failures
