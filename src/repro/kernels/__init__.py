"""Warp-centric kernels over the SIMT simulator.

These are near-literal transcriptions of the paper's device code:

* :mod:`repro.kernels.insert` — Algorithm 1, the voter-coordinated
  insert (and a naive spin-lock variant used as the ablation baseline),
* :mod:`repro.kernels.find` — the two-lookup warp-centric FIND,
* :mod:`repro.kernels.delete` — the lock-free warp-centric DELETE.

Resizing is not a kernel here: every upsize and downsize is a migration
epoch of :class:`repro.core.resize.ResizeController`.

They execute lane-by-lane against the *same storage* as the vectorized
fast path in :mod:`repro.core.table`, which lets the test suite prove
the two execution models agree.  The vectorized path is what benchmarks
use at scale; these kernels are the ground truth for warp semantics and
lock-contention behaviour.

Each ``run_*_kernel`` accepts ``engine="warp" | "cohort"``
(:mod:`repro.kernels.engine`): ``"warp"`` steps one Python object per
warp (the reference), ``"cohort"`` executes the same program through
the structure-of-arrays engine of :mod:`repro.gpusim.cohort`, which is
bit-for-bit conformant on results *and* cost counters while running
1-2 orders of magnitude faster.  The FIND, INSERT and DELETE entry
points encode their batch (and route it, for INSERT), pick the engine
and hand it to :func:`repro.kernels.engine.launch`, which alone
instruments the launch: sanitizer scope, profiler record, span and
counters.
"""

from repro.kernels.delete import run_delete_kernel
from repro.kernels.engine import VALID_ENGINES, resolve_engine
from repro.kernels.find import run_find_kernel
from repro.kernels.insert import (KernelRunResult, run_spin_insert_kernel,
                                  run_voter_insert_kernel)

__all__ = [
    "run_voter_insert_kernel",
    "run_spin_insert_kernel",
    "run_find_kernel",
    "run_delete_kernel",
    "KernelRunResult",
    "VALID_ENGINES",
    "resolve_engine",
]
