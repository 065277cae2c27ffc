"""How fast the shared host runs right now, from a fixed probe task.

The measuring host is shared with other tenants.  Each of its CPUs runs
about 1.5x slower for stretches of a tenth of a second to well over a
run's length, and on this host no per-run statistic of wall time
removes a stretch that covers a whole run.  The probe below is a fixed
interpreter-plus-numpy task that does not touch ``repro``; its duration
tracks the host's speed at the moment it runs.  Host times are reported
at the speed at which the probe takes :data:`PROBE_REF_NS`: a batch
that took ``wall`` ns while the probe took ``probe`` ns counts as
``wall * PROBE_REF_NS / probe`` reference ns.
"""

from __future__ import annotations

import time
from statistics import median

import numpy as np

#: The probe's duration on the measuring host when no other tenant
#: slows it (2-vCPU Intel Xeon VM, Python 3.11, numpy 2.4).
PROBE_REF_NS = 125_000

_DATA = np.arange(4096, dtype=np.uint64)


def probe_ns() -> int:
    """Duration of the fixed probe task, in ns."""
    start = time.perf_counter_ns()
    acc = 0
    for i in range(2000):
        acc += i & 7
    np.sort(_DATA * np.uint64(0x9E3779B97F4A7C15))
    return time.perf_counter_ns() - start


def calib_ms(repeats: int = 60) -> float:
    """Median probe duration over ``repeats`` probes, in ms."""
    return median(probe_ns() for _ in range(repeats)) / 1e6
