"""Atomic-operation model: functional emulation plus a contention model.

Two consumers:

* **Functional atomics**: :class:`AtomicMemory` gives working
  ``atomicCAS``/``atomicExch`` semantics over a word array, the home of
  the ``atomics.cas`` fault site.
* The **cost model** needs the empirical observation of the paper's
  Figure 5: throughput of atomics collapses as more of them land on the
  same address, while an equivalent amount of coalesced memory IO stays
  flat.  :func:`atomic_batch_seconds`, :func:`atomic_throughput_mops` and
  :func:`coalesced_io_throughput_mops` encode that curve.

The contention model is a serialization model: the memory subsystem
retires conflicting atomics to one address sequentially, so a group of
``c`` conflicting atomics costs ``base + (c - 1) * conflict_penalty``.
``atomicCAS`` carries a higher per-op cost than ``atomicExch`` because it
performs a compare and conditionally writes (the paper profiles both).
"""

from __future__ import annotations

import numpy as np

from repro.faults import NO_FAULTS
from repro.gpusim.device import DeviceSpec, GTX_1080
from repro.sanitizer import NULL_SANITIZER

_SITE_CAS = "repro/gpusim/atomics.py:AtomicMemory.atomic_cas"
_SITE_EXCH = "repro/gpusim/atomics.py:AtomicMemory.atomic_exch"

#: Relative cost multiplier of atomicCAS over atomicExch (read-compare-write
#: versus blind write; consistent with the gap in the paper's Figure 5).
CAS_COST_FACTOR = 1.6


class AtomicMemory:
    """A word-addressed memory supporting CUDA-style atomics.

    A standalone model of the CAS/exchange primitives: ``repro faults``
    drives its injected CAS failures through it.  The kernels do not use
    it — their bucket locks are arbitrated by
    :class:`~repro.gpusim.kernel.LockArbiter` (warp engine) and by the
    cohort engine's vectorized arbitration.  Operations are sequentially
    consistent — the simulator executes one device round at a time, and
    within a round the winning order is the caller's issue order, which
    is a legal GPU interleaving.
    """

    def __init__(self, num_words: int, faults=None,
                 sanitizer=None) -> None:
        self.words = np.zeros(num_words, dtype=np.int64)
        #: Total atomic operations executed.
        self.ops = 0
        #: CAS operations that lost their race to an injected fault.
        self.injected_failures = 0
        #: Operations grouped by address within the current round, used to
        #: derive conflict statistics.
        self._round_addresses: list[int] = []
        self.faults = faults if faults is not None else NO_FAULTS
        self.sanitizer = (sanitizer if sanitizer is not None
                          else NULL_SANITIZER)

    def atomic_cas(self, address: int, compare: int, value: int) -> int:
        """``old = mem[address]; if old == compare: mem[address] = value``.

        Returns ``old`` (CUDA semantics: success iff return == compare).
        An injected ``atomics.cas`` fault models a lost race: the CAS
        observes a word that differs from ``compare`` and writes nothing,
        exactly what a competing thread's interleaved write produces.
        """
        self.ops += 1
        self._round_addresses.append(address)
        if self.sanitizer.enabled:
            # Atomics are ordered by definition: stats only, no pairing.
            self.sanitizer.on_atomic(address, site=_SITE_CAS)
        if self.faults.enabled and self.faults.fire("atomics.cas") is not None:
            self.injected_failures += 1
            if self.sanitizer.enabled:
                self.sanitizer.note_injected("atomics.cas")
            return compare ^ 1
        old = int(self.words[address])
        if old == compare:
            self.words[address] = value
        return old

    def atomic_exch(self, address: int, value: int) -> int:
        """Atomically write ``value``; return the previous word."""
        self.ops += 1
        self._round_addresses.append(address)
        if self.sanitizer.enabled:
            self.sanitizer.on_atomic(address, site=_SITE_EXCH)
        old = int(self.words[address])
        self.words[address] = value
        return old

    def end_round(self) -> dict[int, int]:
        """Close the current round; return per-address conflict counts."""
        counts: dict[int, int] = {}
        for address in self._round_addresses:
            counts[address] = counts.get(address, 0) + 1
        if self.sanitizer.enabled and counts:
            self.sanitizer.on_atomic_round(counts)
        self._round_addresses.clear()
        return counts


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
