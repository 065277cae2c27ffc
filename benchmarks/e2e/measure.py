"""One workload in one process: set-up, warm-up and timed passes.

A run makes ``PASSES`` timed passes.  Each pass drives a fresh table
through its own replica of the workload: the same batch sizes, op mix
and phases, over keys drawn from the replica's own stream.

- **Host clock.**  The measuring host is shared with other tenants (see
  ``hostspeed.py``).  Every ``PROBE_EVERY_NS`` a pass times the host-
  speed probe between two batches, and each batch's wall time is scaled
  to the reference speed by the median of the last three probes.  Each
  batch position then keeps the fastest of its passes (the per-batch
  form of ``timeit``'s min-of-N), and the host metrics are computed from
  those per-position minima.  Consecutive passes run on alternate CPUs,
  whose slow stretches were measured to be independent.
- **Simulated clock.**  It is exact, so it gains nothing from
  repetition; every pass adds a replica to it instead.  The simulated
  metrics pool the batches of all passes, which keeps them within a
  fraction of a percent from seed to seed.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

import numpy as np

from benchmarks.e2e.hostspeed import PROBE_REF_NS, probe_ns
from benchmarks.e2e.trace import Tracer
from benchmarks.e2e.workloads import WORKLOADS, Batch, Workload, rng_for
from repro.core import OP_DELETE, OP_FIND
from repro.gpusim.metrics import CHAIN_HOP_NS, CostModel

#: Timed passes per run, one replica each.  ``setup_s`` is the median
#: of ``PASSES + 1`` builds: one per pass and the warm-up table's.
PASSES = 8

#: Time between host-speed probes within a pass.
PROBE_EVERY_NS = 20_000_000

#: Fixed costs are scaled like the figure benches (``benchmarks/common``).
COST = CostModel(overhead_scale=0.001)

KERNEL_FIELDS = ("rounds", "memory_transactions", "lock_acquisitions",
                 "lock_conflicts", "evictions", "votes")


def count_wrong(call, out) -> int:
    """Operations of ``call`` whose output differs from the expected."""
    if call.method == "insert":
        return 0
    if call.method == "find":
        values, found = out
        exp_values, exp_found = call.expect
        return int(np.count_nonzero(
            (found != exp_found) | (exp_found & (values != exp_values))))
    if call.method == "delete":
        return int(np.count_nonzero(out != call.expect))
    op_codes, exp_values, exp_found, exp_removed = call.expect
    bad = (op_codes == OP_FIND) & ((out.found != exp_found)
                                   | (exp_found & (out.values != exp_values)))
    bad |= (op_codes == OP_DELETE) & (out.removed != exp_removed)
    return int(np.count_nonzero(bad))


def count_hits(call, out) -> tuple[int, int]:
    """``(finds, hits)`` observed in one call's output."""
    if call.method == "find":
        return len(out[1]), int(np.count_nonzero(out[1]))
    if call.method == "execute_mixed":
        is_find = call.expect[0] == OP_FIND
        return (int(np.count_nonzero(is_find)),
                int(np.count_nonzero(out.found & is_find)))
    return 0, 0


def kernel_delta(outs) -> dict[str, int]:
    """Kernel counters of one batch, renamed to ``TableStats`` fields.

    Only what the cost model prices is mapped: transactions become
    bucket reads, rounds become eviction rounds, locks stay locks.  The
    raw counters are kept under ``kernel.<field>``.
    """
    total: Counter = Counter()
    for out in outs:
        if out.kernel is not None:
            for name in KERNEL_FIELDS:
                total[name] += getattr(out.kernel, name)
    return {"bucket_reads": total["memory_transactions"],
            "eviction_rounds": total["rounds"],
            "lock_acquisitions": total["lock_acquisitions"],
            "lock_conflicts": total["lock_conflicts"],
            "evictions": total["evictions"],
            **{f"kernel.{k}": v for k, v in total.items()}}


@dataclass
class Pass:
    """What one timed pass over one replica observed."""

    wall_ns: np.ndarray
    #: Host slowdown during each batch: probe time over ``PROBE_REF_NS``.
    slowdown: np.ndarray
    sim_s: np.ndarray
    fill: np.ndarray
    counts: Counter = field(default_factory=Counter)
    parts: Counter = field(default_factory=Counter)
    attempted: int = 0
    failed: int = 0
    finds: int = 0
    hits: int = 0
    #: Batches, ops and inserts that completed.
    done: int = 0
    ops: int = 0
    inserts: int = 0
    error: str | None = None

    def digest(self) -> bytes:
        """Hash of every simulated number of the pass."""
        h = hashlib.sha256(self.sim_s[:self.done].tobytes())
        h.update(json.dumps(sorted(self.counts.items())).encode())
        return h.digest()


def _price(wl: Workload, batch: Batch, delta: dict, p: Pass, i: int) -> None:
    launches = len(batch.calls)
    compute_ns = batch.compute_ns(wl.costs)
    p.counts.update(delta)
    p.sim_s[i] = COST.batch_seconds(delta, batch.ops, compute_ns,
                                    kernel_launches=launches)
    p.parts["memory_s"] += COST.memory_seconds(delta)
    p.parts["atomic_s"] += COST.atomic_seconds(delta)
    p.parts["compute_s"] += batch.ops * compute_ns * 1e-9
    p.parts["chain_s"] += delta.get("chain_hops", 0) * CHAIN_HOP_NS * 1e-9
    p.parts["overhead_s"] += COST.overhead_seconds(delta, launches)


def run_pass(wl: Workload, inputs, table, tracer: Tracer | None,
             first_batch_id: int) -> Pass:
    """Drive one fresh table through every batch, closed loop."""
    batches = inputs.batches
    n = len(batches)
    p = Pass(np.zeros(n, dtype=np.int64), np.ones(n), np.zeros(n),
             np.zeros(n))
    probes: list[int] = []
    next_probe = 0
    if tracer is not None:
        tracer.install()
    try:
        for i, batch in enumerate(batches):
            before = None if wl.kernel_priced else table.stats.snapshot()
            if tracer is not None:
                tracer.batch = first_batch_id + i
            p.attempted += batch.ops
            if (now := time.perf_counter_ns()) >= next_probe:
                probes = (probes + [probe_ns()])[-3:]
                next_probe = now + PROBE_EVERY_NS
            p.slowdown[i] = median(probes) / PROBE_REF_NS
            start = time.perf_counter_ns()
            try:
                outs = [getattr(table, call.method)(*call.args,
                                                    **call.kwargs)
                        for call in batch.calls]
            except Exception as exc:  # a raising batch ends the workload
                p.failed += batch.ops
                p.error = f"batch {i} raised {exc!r}"
                return p
            p.wall_ns[i] = time.perf_counter_ns() - start
            p.done = i + 1
            p.ops += batch.ops
            p.inserts += batch.inserts
            for call, out in zip(batch.calls, outs):
                p.failed += count_wrong(call, out)
                finds, hits = count_hits(call, out)
                p.finds += finds
                p.hits += hits
            _price(wl, batch, kernel_delta(outs) if wl.kernel_priced
                   else table.stats.delta(before), p, i)
            p.fill[i] = table.load_factor
    finally:
        if tracer is not None:
            tracer.uninstall()
    # Entries lost or duplicated show up as a live-count mismatch.
    p.failed += abs(len(table) - inputs.final_live)
    try:
        table.validate()
    except AssertionError as exc:
        p.error = f"invariant violated after the run: {exc}"
    return p


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def measure(name: str, seed: int, scale: float, traced: bool,
            out_dir: Path) -> dict:
    """Generate, set up, warm up and time one workload in this process."""
    wl = WORKLOADS[name]
    setup_s: list[float] = []

    def timed_setup(inputs):
        # The last table is cyclic garbage; collect it outside the timer.
        gc.collect()
        start = time.perf_counter()
        table = wl.setup(inputs)
        setup_s.append(time.perf_counter() - start)
        return table

    tracer = Tracer() if traced else None
    cpus = sorted(os.sched_getaffinity(0))
    passes: list[Pass] = []
    for rep in range(PASSES):
        inputs = wl.generate(rng_for(name, seed, rep), scale)
        n_batches = len(inputs.batches)
        if rep == 0:
            throwaway = timed_setup(inputs)
            for call in inputs.batches[0].calls:  # warm-up: lazy imports
                getattr(throwaway, call.method)(*call.args, **call.kwargs)
            del throwaway
        os.sched_setaffinity(0, {cpus[rep % len(cpus)]})
        table = timed_setup(inputs)
        gc.collect()
        passes.append(run_pass(wl, inputs, table, tracer, rep * n_batches))
        del table, inputs
        if passes[-1].error is not None:
            break

    # Replicas share batch sizes, so a batch position holds the same
    # number of ops in every complete pass.
    complete = [p for p in passes if p.done == n_batches] or passes[:1]
    ref_ns = np.min([p.wall_ns[:p.done] / p.slowdown[:p.done]
                     for p in complete], axis=0)
    ops = complete[0].ops
    done = [p for p in passes if p.done]
    sim_s = np.concatenate([p.sim_s[:p.done] for p in done] or [[]])
    fill = np.concatenate([p.fill[:p.done] for p in done] or [[]])
    counts = sum((p.counts for p in passes), Counter())
    parts = sum((p.parts for p in passes), Counter())
    sim_ops = sum(p.ops for p in passes)
    inserts = sum(p.inserts for p in passes)
    finds = sum(p.finds for p in passes)
    hits = sum(p.hits for p in passes)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    error = next((p.error for p in passes if p.error), None)
    e2e = {
        "ops_per_s": _ratio(ops * 1e9, float(ref_ns.sum())),
        "batch_p50_ms": float(np.median(ref_ns)) / 1e6 if ops else 0.0,
        "sim_mops": _ratio(sim_ops, float(sim_s.sum()) * 1e6),
        "sim_batch_p50_us": float(np.median(sim_s)) * 1e6 if sim_ops else 0.0,
        "sim_batch_p95_us": (float(np.percentile(sim_s, 95)) * 1e6
                             if sim_ops else 0.0),
        "setup_s": median(setup_s),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
        "mean_fill": float(fill.mean()) if sim_ops else 0.0,
    }
    sim = {
        "sim.lines_per_op": _ratio(counts["bucket_reads"]
                                   + counts["bucket_writes"]
                                   + counts["random_accesses"], sim_ops),
        "sim.lock_conflict_rate": _ratio(counts["lock_conflicts"],
                                         counts["lock_acquisitions"]),
        "sim.chain_hops_per_lookup": _ratio(counts["chain_hops"], sim_ops),
        "sim.evictions_per_insert": _ratio(counts["evictions"], inserts),
        **{f"sim.{k}": counts[k] for k in (
            "eviction_rounds", "upsizes", "downsizes", "rehashed_entries",
            "migrated_pairs")},
        **{f"sim.{k}": parts[k] for k in (
            "memory_s", "atomic_s", "compute_s", "chain_s", "overhead_s")},
        "kernel.rounds": counts["kernel.rounds"],
        "kernel.transactions_per_op": _ratio(
            counts["kernel.memory_transactions"], sim_ops),
        "kernel.lock_conflict_rate": _ratio(
            counts["kernel.lock_conflicts"],
            counts["kernel.lock_acquisitions"]),
        "kernel.votes_per_op": _ratio(counts["kernel.votes"], sim_ops),
        "find_hit_rate": _ratio(hits, finds),
    }
    p95_ns = float(np.percentile(ref_ns, 95)) if ops else 0.0
    raw_wall_ns = sum(int(p.wall_ns.sum()) for p in passes)
    result = {
        "workload": name, "seed": seed, "scale": scale, "traced": traced,
        "correct": failed == 0 and error is None,
        "attempted": attempted, "failed": failed, "error": error,
        "e2e": e2e, "sim": sim,
        "sim_digest": hashlib.sha256(
            b"".join(p.digest() for p in passes)).hexdigest(),
        "diag": {
            "batches": len(ref_ns), "ops": ops, "passes": len(passes),
            "batch_p95_ms": p95_ns / 1e6,
            "batch_p95_beyond": int(np.count_nonzero(ref_ns > p95_ns)),
            "failed_ops_frac": _ratio(failed, attempted),
            "pass_ops_per_s": [_ratio(p.ops * 1e9, int(p.wall_ns.sum()))
                               for p in passes],
            "pass_slowdown": [float(np.median(p.slowdown)) for p in passes],
            "setup_runs_s": setup_s,
            "timed_wall_s": raw_wall_ns / 1e9,
        },
    }
    if tracer is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        tracer.save(out_dir / f"spans_{name}.npz",
                    batches_per_pass=np.int64(n_batches))
        result["trace"] = tracer.summary(raw_wall_ns)
    return result
