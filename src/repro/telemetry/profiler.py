"""Deep kernel profiler — an Nsight-Compute-style pass over the engines.

Where the tracer (:mod:`repro.telemetry.tracer`) records *that* a kernel
ran and the registry counts *how much* it did, the profiler records the
shape of the execution itself, round by round:

* **lane-occupancy / divergence timelines** — per kernel, per round: how
  many warps are still resident, how many of their lanes are live, and
  how many warps hold a bucket lock.  Divergence on eviction chains is
  the paper's core efficiency argument (Section V), and this is where
  it becomes visible.
* **lock-contention heatmaps** keyed by ``(subtable, bucket-stripe)`` —
  every lock grant and every failed acquire attributed to the bucket
  region it hit, the serialization picture of Figure 5.
* **probe-length and eviction-chain-depth histograms** — FIND/DELETE
  resolve in one or two bucket probes; insert chains carry an eviction
  depth.  Both are recorded as exact integer multisets.
* **per-subtable fill-factor time series** across resizes, and **stash
  high-water** tracking.

The profiler is sourced from *both* execution engines — the per-warp
reference interpreter and the vectorized cohort engine — and its
snapshot is engine-neutral by construction: only round-boundary state
and order-insensitive aggregates are recorded, so the conformance suite
pins ``snapshot()`` equality across engines.

Gating follows the ``NULL_TELEMETRY`` idiom: every hook site checks one
``profiler.enabled`` attribute, and the default :data:`NULL_PROFILER`
singleton keeps it ``False``.  A run without a profiler attached is
bit-identical to a build without this module.

This module also holds the derived per-batch report
(:class:`KernelProfile`, :func:`profile_batch`,
:func:`profile_operation`) so there is exactly one profiling path;
:mod:`repro.gpusim` re-exports it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping

from repro.nulls import NullSingleton

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.gpusim.metrics import CostModel

#: Lanes per warp — mirrors ``repro.gpusim.kernel.Warp.width``.
WARP_WIDTH = 32

#: Bucket-stripe granularity of the lock-contention heatmap.  Buckets
#: ``[k * width, (k + 1) * width)`` of one subtable share a heatmap
#: cell, matching how adjacent buckets share cache lines on device.
DEFAULT_STRIPE_WIDTH = 8

#: Lock ids pack ``(table_idx << 40) | bucket`` (see kernels/insert.py).
_LOCK_BUCKET_MASK = (1 << 40) - 1


class Profiler:
    """Accumulates per-round execution shape from the kernel engines.

    One profiler instance spans as many kernel launches as the caller
    wants to aggregate; :meth:`snapshot` renders everything recorded so
    far as a plain-JSON, engine-neutral dict.
    """

    #: Instrumentation gate; the null subclass overrides it to False.
    enabled = True

    def __init__(self, stripe_width: int = DEFAULT_STRIPE_WIDTH) -> None:
        self.stripe_width = int(stripe_width)
        #: Completed kernel records (dicts; see :meth:`begin_kernel`).
        self.kernels: list[dict] = []
        self._active: dict | None = None
        #: ``(subtable, stripe) -> [grants, conflicts]``.
        self.heatmap: dict[tuple[int, int], list[int]] = {}
        #: Exact probe-length counts (1 = first bucket hit, 2 = both read).
        self.probe_lengths: dict[int, int] = {}
        #: Exact eviction-chain-depth counts at op completion.
        self.chain_depths: dict[int, int] = {}
        #: ``{"event", "global", "subtables"}`` fill samples, in order.
        self.fill_timeline: list[dict] = []
        self.stash_samples: list[int] = []
        self.stash_high_water = 0
        #: Rounds the cohort engine resolved under a key-coincidence
        #: hazard, and the locked-warp lanes involved.  Deliberately
        #: *outside* :meth:`snapshot`: the per-warp engine has no hazard
        #: concept, so these counters are engine-specific diagnostics,
        #: not part of the engine-neutral conformance surface.
        self.hazard_rounds = 0
        self.hazard_lanes = 0

    # ------------------------------------------------------------------
    # Kernel lifecycle
    # ------------------------------------------------------------------

    def begin_kernel(self, op: str, n: int) -> None:
        """Open a per-kernel record; subsequent rounds attach to it."""
        if self._active is not None:
            self.kernels.append(self._active)
        self._active = {"op": op, "n": int(n), "rounds": [],
                        "counters": {}}

    def end_kernel(self, counters: Mapping[str, int] | None = None) -> None:
        """Close the open kernel record, attaching final counters."""
        if self._active is None:
            return
        if counters:
            self._active["counters"] = {k: int(v)
                                        for k, v in counters.items()}
        self.kernels.append(self._active)
        self._active = None

    def record_round(self, active_warps: int, active_lanes: int,
                     locked_warps: int, evictions: int = 0,
                     completed: int = 0) -> None:
        """One occupancy sample, taken at a round boundary.

        ``evictions`` / ``completed`` are the kernel-result counters *as
        of this round boundary* — cumulative, so per-round deltas fall
        out by differencing.  Both engines observe identical values here
        because the counters conform at every round boundary.
        """
        if self._active is None:
            self.begin_kernel("?", 0)
        self._active["rounds"].append({
            "active_warps": int(active_warps),
            "active_lanes": int(active_lanes),
            "locked_warps": int(locked_warps),
            "evictions": int(evictions),
            "completed": int(completed),
        })

    def record_rounds_many(self, samples) -> None:
        """Bulk :meth:`record_round`: one append per kernel, not per round.

        ``samples`` is an iterable of ``(active_warps, active_lanes,
        locked_warps, evictions, completed)`` tuples in round order; the
        resulting record list is byte-identical to per-round calls, so
        engines may batch their occupancy samples and flush once.
        """
        if self._active is None:
            self.begin_kernel("?", 0)
        rounds = self._active["rounds"]
        for active_warps, active_lanes, locked_warps, evictions, \
                completed in samples:
            rounds.append({
                "active_warps": int(active_warps),
                "active_lanes": int(active_lanes),
                "locked_warps": int(locked_warps),
                "evictions": int(evictions),
                "completed": int(completed),
            })

    def note_hazard(self, lanes: int) -> None:
        """One hazardous cohort round involving ``lanes`` locked warps."""
        self.hazard_rounds += 1
        self.hazard_lanes += int(lanes)

    # ------------------------------------------------------------------
    # Lock-contention heatmap
    # ------------------------------------------------------------------

    def _cell(self, lock_id: int) -> list[int]:
        key = (int(lock_id) >> 40,
               (int(lock_id) & _LOCK_BUCKET_MASK) // self.stripe_width)
        cell = self.heatmap.get(key)
        if cell is None:
            cell = self.heatmap[key] = [0, 0]
        return cell

    def lock_grant(self, lock_id: int) -> None:
        self._cell(lock_id)[0] += 1

    def lock_conflict(self, lock_id: int) -> None:
        self._cell(lock_id)[1] += 1

    def lock_grants_many(self, lock_ids) -> None:
        for lock_id in lock_ids.tolist():
            self._cell(lock_id)[0] += 1

    def lock_conflicts_many(self, lock_ids) -> None:
        for lock_id in lock_ids.tolist():
            self._cell(lock_id)[1] += 1

    # ------------------------------------------------------------------
    # Histograms
    # ------------------------------------------------------------------

    def observe_probes(self, n: int, first_hits: int) -> None:
        """``first_hits`` ops resolved on the first bucket; the rest
        read both buckets (cuckoo probes are 1 or 2, never more)."""
        if first_hits:
            self.probe_lengths[1] = (self.probe_lengths.get(1, 0)
                                     + int(first_hits))
        rest = int(n) - int(first_hits)
        if rest:
            self.probe_lengths[2] = self.probe_lengths.get(2, 0) + rest

    def observe_chain(self, depth: int) -> None:
        """One op completed after ``depth`` evictions on its chain."""
        depth = int(depth)
        self.chain_depths[depth] = self.chain_depths.get(depth, 0) + 1

    def observe_chains(self, depths) -> None:
        for depth in depths.tolist():
            self.chain_depths[depth] = self.chain_depths.get(depth, 0) + 1

    # ------------------------------------------------------------------
    # Fill and stash time series
    # ------------------------------------------------------------------

    def sample_fill(self, event: str, table) -> None:
        """Append one fill sample (global + per-subtable factors)."""
        self.fill_timeline.append({
            "event": event,
            "global": float(table.load_factor),
            "subtables": [float(f) for f in table.subtable_load_factors],
        })

    def sample_stash(self, occupancy: int) -> None:
        occupancy = int(occupancy)
        self.stash_samples.append(occupancy)
        if occupancy > self.stash_high_water:
            self.stash_high_water = occupancy

    # ------------------------------------------------------------------
    # Snapshot
    # ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """Engine-neutral plain-JSON rendering of everything recorded.

        Keys are strings and values integers/floats, so two snapshots
        compare with ``==`` and serialize with ``json.dumps`` directly.
        """
        kernels = list(self.kernels)
        if self._active is not None:
            kernels.append(self._active)
        return {
            "stripe_width": self.stripe_width,
            "kernels": kernels,
            "lock_heatmap": [
                {"subtable": sub, "stripe": stripe,
                 "grants": cell[0], "conflicts": cell[1]}
                for (sub, stripe), cell in sorted(self.heatmap.items())
            ],
            "probe_lengths": {str(k): v for k, v in
                              sorted(self.probe_lengths.items())},
            "chain_depths": {str(k): v for k, v in
                             sorted(self.chain_depths.items())},
            "fill_timeline": list(self.fill_timeline),
            "stash": {"high_water": self.stash_high_water,
                      "samples": list(self.stash_samples)},
        }


class _NullProfiler(NullSingleton, Profiler):
    """Disabled profiler: the default on every table."""

    enabled = False
    SINGLETON = "NULL_PROFILER"


#: Shared disabled-profiler singleton (one attribute check to skip).
NULL_PROFILER = _NullProfiler()


# ---------------------------------------------------------------------------
# Derived per-batch report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KernelProfile:
    """Profiling counters for one batch execution."""

    name: str
    num_ops: int
    simulated_seconds: float
    warp_efficiency: float
    memory_utilization: float
    atomics_per_op: float
    atomic_conflict_rate: float
    transactions_per_op: float

    def __str__(self) -> str:
        return (f"{self.name}: {self.num_ops} ops in "
                f"{self.simulated_seconds * 1e6:.1f} us | "
                f"warp eff {self.warp_efficiency:.0%} | "
                f"mem util {self.memory_utilization:.0%} | "
                f"{self.atomics_per_op:.2f} atomics/op "
                f"({self.atomic_conflict_rate:.1%} conflicted) | "
                f"{self.transactions_per_op:.2f} tx/op")


def profile_batch(name: str, delta: Mapping[str, int], num_ops: int,
                  cost_model: "CostModel | None" = None,
                  compute_ns_per_op: float = 0.3) -> KernelProfile:
    """Build a :class:`KernelProfile` from a stats delta.

    ``delta`` is a counter snapshot difference
    (:meth:`repro.core.stats.TableStats.delta`).
    """
    # Imported lazily: repro.telemetry must not depend on repro.gpusim
    # at import time (the sim's kernels import telemetry submodules).
    from repro.gpusim.metrics import CostModel

    cost_model = cost_model or CostModel()
    device = cost_model.device
    seconds = cost_model.batch_seconds(delta, num_ops, compute_ns_per_op)

    transactions = (delta.get("bucket_reads", 0)
                    + delta.get("bucket_writes", 0)
                    + delta.get("random_accesses", 0))
    bytes_moved = transactions * device.cache_line_bytes
    memory_utilization = 0.0
    if seconds > 0:
        memory_utilization = min(1.0, (bytes_moved / seconds)
                                 / device.effective_bandwidth_bytes_per_s)

    atomics = (delta.get("lock_acquisitions", 0)
               + delta.get("atomic_exchanges", 0))
    conflicts = delta.get("lock_conflicts", 0)
    atomics_per_op = atomics / num_ops if num_ops else 0.0
    conflict_rate = conflicts / atomics if atomics else 0.0

    # Useful lane-ops: one per operation plus one per eviction (the
    # displaced pair is real work).  Wasted lane-ops: failed lock
    # attempts (revotes) and retry rounds.  Warp efficiency is the
    # useful fraction.
    evictions = delta.get("evictions", 0)
    retries = conflicts + max(0, delta.get("eviction_rounds", 0) - 1)
    useful = num_ops + evictions
    issued = useful + evictions + retries
    warp_efficiency = min(1.0, useful / issued) if issued else 1.0

    return KernelProfile(
        name=name,
        num_ops=num_ops,
        simulated_seconds=seconds,
        warp_efficiency=warp_efficiency,
        memory_utilization=memory_utilization,
        atomics_per_op=atomics_per_op,
        atomic_conflict_rate=conflict_rate,
        transactions_per_op=transactions / num_ops if num_ops else 0.0,
    )


def profile_operation(table, name: str, operation, *args,
                      cost_model: "CostModel | None" = None) -> KernelProfile:
    """Profile one batched call on a stats-carrying table.

    Example::

        profile = profile_operation(table, "insert", table.insert,
                                    keys, values)
    """
    before = table.stats.snapshot()
    operation(*args)
    delta = table.stats.delta(before)
    num_ops = len(args[0]) if args else 0
    return profile_batch(name, delta, num_ops, cost_model)
