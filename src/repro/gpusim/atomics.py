"""Atomic-operation cost model: the contention curve of Figure 5.

The paper profiles that throughput of atomics collapses as more of them
land on the same address, while an equivalent amount of coalesced memory
IO stays flat.  :func:`atomic_batch_seconds`,
:func:`atomic_throughput_mops` and :func:`coalesced_io_throughput_mops`
encode that curve; :class:`~repro.gpusim.metrics.CostModel` prices lock
acquisitions and their conflicts with it.  The kernels' bucket locks themselves are arbitrated
by :class:`~repro.gpusim.kernel.LockArbiter` (warp engine) and by the
cohort engine's vectorized arbitration.

The contention model is a serialization model: the memory subsystem
retires conflicting atomics to one address sequentially, so a group of
``c`` conflicting atomics costs ``base + (c - 1) * conflict_penalty``.
``atomicCAS`` carries a higher per-op cost than ``atomicExch`` because it
performs a compare and conditionally writes (the paper profiles both).
"""

from __future__ import annotations

import numpy as np

from repro.gpusim.device import DeviceSpec, GTX_1080

#: Relative cost multiplier of atomicCAS over atomicExch (read-compare-write
#: versus blind write; consistent with the gap in the paper's Figure 5).
CAS_COST_FACTOR = 1.6


#: Independent atomic pipelines (L2 partitions) the model assumes.
ATOMIC_BANKS = 4


def effective_atomic_ns(conflict_degree: float,
                        device: DeviceSpec = GTX_1080,
                        cas: bool = True) -> float:
    """Per-operation atomic cost at a given same-address conflict degree.

    An uncontended atomic pipelines at ``atomic_base_ns``; each extra
    atomic on the same address serializes behind the previous one, and
    deeper queues also suffer growing retry/queueing overhead (the
    steady decline of Figure 5 across decades of conflict counts).
    """
    conflict_degree = max(1.0, float(conflict_degree))
    factor = CAS_COST_FACTOR if cas else 1.0
    base = device.atomic_base_ns * factor
    penalty = device.atomic_conflict_ns * factor
    serialized_share = 1.0 - 1.0 / conflict_degree
    queueing = 1.0 + np.log2(conflict_degree) / 4.0
    return base + serialized_share * penalty * queueing


def atomic_batch_seconds(conflict_group_sizes: np.ndarray,
                         device: DeviceSpec = GTX_1080,
                         cas: bool = True) -> float:
    """Simulated time for one round of atomics.

    ``conflict_group_sizes[i]`` is the number of atomics that landed on
    the i-th distinct address.  The memory subsystem retires atomics on
    :data:`ATOMIC_BANKS` independent pipelines; each op costs the
    effective per-op time of its group's conflict degree.
    """
    sizes = np.asarray(conflict_group_sizes, dtype=np.float64)
    if len(sizes) == 0:
        return 0.0
    per_group_ns = np.array([s * effective_atomic_ns(s, device, cas)
                             for s in sizes])
    return float(per_group_ns.sum()) / ATOMIC_BANKS * 1e-9


def atomic_throughput_mops(num_ops: int, conflicts_per_address: int,
                           device: DeviceSpec = GTX_1080,
                           cas: bool = True) -> float:
    """Throughput (Mops) of ``num_ops`` atomics at a given conflict degree.

    Reproduces the x-axis of Figure 5: ``conflicts_per_address`` atomics
    target each distinct address.  Degree 1 means fully spread out.
    """
    conflicts_per_address = max(1, conflicts_per_address)
    num_groups = max(1, num_ops // conflicts_per_address)
    group_sizes = np.full(num_groups, conflicts_per_address)
    seconds = atomic_batch_seconds(group_sizes, device, cas)
    return num_ops / seconds / 1e6 if seconds > 0 else float("inf")


def coalesced_io_throughput_mops(num_ops: int, access_bytes: int = 8,
                                 device: DeviceSpec = GTX_1080) -> float:
    """Throughput of an equivalent amount of sequential device IO.

    The flat baseline of Figure 5: coalesced reads/writes are bound by
    bandwidth only and do not degrade with "conflicts".
    """
    seconds = num_ops * access_bytes / device.effective_bandwidth_bytes_per_s
    return num_ops / seconds / 1e6 if seconds > 0 else float("inf")
