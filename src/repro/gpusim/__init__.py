"""SIMT execution and cost model — the substrate standing in for a GPU.

The paper's experiments run on an NVIDIA GTX 1080; this subpackage
provides the pieces of that machine the hash tables interact with:

* :mod:`repro.gpusim.device` — device specifications (GTX 1080 preset),
* :mod:`repro.gpusim.warp` — warp primitives (ballot/ffs/shfl),
* :mod:`repro.gpusim.kernel` — round-synchronous scheduling, occupancy
  and bucket-lock arbitration,
* :mod:`repro.gpusim.atomics` — the contention-degradation model of
  Figure 5,
* :mod:`repro.gpusim.metrics` — the cost model turning event counts
  into simulated seconds and Mops,
* :mod:`repro.gpusim.cohort` — the vectorized structure-of-arrays warp
  engine, bit-for-bit conformant with the per-warp interpreter.
"""

from repro.gpusim.atomics import (atomic_batch_seconds,
                                  atomic_throughput_mops,
                                  coalesced_io_throughput_mops)
from repro.gpusim.device import GTX_1050, GTX_1080, V100, DeviceSpec
from repro.gpusim.kernel import LockArbiter, Occupancy, RoundScheduler
from repro.gpusim.memory_manager import DeviceMemoryManager, PCIE_BANDWIDTH
from repro.gpusim.metrics import CostModel, KernelCosts, mops
from repro.gpusim.warp import WarpContext
from repro.telemetry.profiler import (KernelProfile, profile_batch,
                                      profile_operation)

# Imported last: the cohort engine depends on the modules above and on
# repro.kernels (lazily), so keeping it at the tail avoids import cycles.
from repro.gpusim.cohort import (cohort_delete, cohort_find,  # noqa: E402
                                 cohort_insert)

__all__ = [
    "DeviceSpec",
    "GTX_1080",
    "GTX_1050",
    "V100",
    "WarpContext",
    "RoundScheduler",
    "LockArbiter",
    "Occupancy",
    "atomic_batch_seconds",
    "atomic_throughput_mops",
    "coalesced_io_throughput_mops",
    "CostModel",
    "KernelCosts",
    "mops",
    "DeviceMemoryManager",
    "PCIE_BANDWIDTH",
    "KernelProfile",
    "profile_batch",
    "profile_operation",
    "cohort_find",
    "cohort_delete",
    "cohort_insert",
]
