"""DyCuckoo - dynamic hash tables on (simulated) GPUs.

A from-scratch Python reproduction of *"Dynamic Hash Tables on GPUs"*
(Li, Zhu, Lyu, Huang, Sun - ICDE 2021).  The package provides:

* :mod:`repro.core` - the DyCuckoo two-layer dynamic cuckoo hash table,
* :mod:`repro.gpusim` - a SIMT execution and cost model standing in for
  the paper's GTX 1080,
* :mod:`repro.kernels` - warp-centric kernels (voter insert, two-lookup
  find/delete, resize) written against the simulator,
* :mod:`repro.baselines` - MegaKV, CUDPP-style cuckoo, and SlabHash
  reimplementations used as comparison points,
* :mod:`repro.workloads` - surrogate dataset generators and the dynamic
  batch protocol of the paper's evaluation,
* :mod:`repro.bench` - the measurement harness regenerating every table
  and figure,
* :mod:`repro.telemetry` - structured tracing, metric time series, and
  Chrome-trace/Prometheus export for any table run,
* :mod:`repro.faults` - deterministic, replayable fault injection
  (atomic failure storms, lock-holder stalls, allocation failures,
  resize aborts) with a bounded stash as the recovery path,
* :mod:`repro.shard` - a sharded front-end partitioning the key space
  over independent DyCuckoo tables, with an SM-group cost model for the
  simulated parallel speedup.
"""

from repro.core import (DyCuckooConfig, DyCuckooTable, MemoryFootprint,
                        PAPER_PARAMETERS, TableStats)
from repro.core.instruments import Instruments
from repro.errors import (CapacityError, InvalidConfigError, InvalidKeyError,
                          ReproError, ResizeError, StashOverflowError,
                          UnsupportedOperationError)
from repro.faults import NO_FAULTS, FaultPlan, default_chaos_plan
from repro.shard import ShardedDyCuckoo
from repro.telemetry import NULL_TELEMETRY, Telemetry

__version__ = "1.0.0"

__all__ = [
    "DyCuckooTable",
    "ShardedDyCuckoo",
    "DyCuckooConfig",
    "PAPER_PARAMETERS",
    "MemoryFootprint",
    "TableStats",
    "Instruments",
    "ReproError",
    "InvalidKeyError",
    "InvalidConfigError",
    "CapacityError",
    "StashOverflowError",
    "ResizeError",
    "UnsupportedOperationError",
    "Telemetry",
    "NULL_TELEMETRY",
    "FaultPlan",
    "NO_FAULTS",
    "default_chaos_plan",
    "__version__",
]
