#!/usr/bin/env python3
"""Multi-tenant GPU: why over-allocated static tables hurt neighbours.

The paper's introduction argues that a static hash table "occupies an
unnecessarily large memory space" and forces other GPU-resident
structures into expensive PCIe round-trips.  This example simulates a
GPU running three tenants:

1. a hash table (DyCuckoo or a statically over-provisioned MegaKV),
2. a feature matrix for an ML model,
3. a graph adjacency structure,

on a small (2 GB) device.  As the hash table's workload grows and
shrinks, the :class:`DeviceMemoryManager` tracks residency: structures
spill to the host when the device is over-committed, and the spilled
bytes (PCIe traffic) are the price of the hash table's footprint.

Run:  python examples/multi_tenant_gpu.py
"""

import numpy as np

from repro.baselines import DyCuckooAdapter, MegaKVTable
from repro.core.config import DyCuckooConfig
from repro.gpusim import GTX_1050, DeviceMemoryManager

#: Fixed tenants sharing the device with the hash table.
ML_FEATURES_BYTES = 900 * 10 ** 6
GRAPH_BYTES = 700 * 10 ** 6


def run_session(label: str, table_factory) -> None:
    manager = DeviceMemoryManager(device=GTX_1050)
    manager.set_allocation("ml-features", ML_FEATURES_BYTES)
    manager.set_allocation("graph", GRAPH_BYTES)

    table = table_factory()
    rng = np.random.default_rng(1)
    # Grow to ~8M entries, then shrink back to 1M, in ten steps each.
    live = np.zeros(0, dtype=np.uint64)
    for step in range(10):
        fresh = rng.integers(1, 1 << 62, 800_000).astype(np.uint64)
        table.insert(fresh, fresh)
        live = np.concatenate([live, fresh])
        manager.set_allocation(label, table.memory_footprint().total_bytes)
    for step in range(9):
        table.delete(live[step * 800_000:(step + 1) * 800_000])
        manager.set_allocation(label, table.memory_footprint().total_bytes)

    print(f"--- {label} ---")
    print(manager.report())
    print(f"peak residency: {manager.peak_resident_bytes / 1e6:.0f} MB; "
          f"PCIe spill traffic: {manager.spill_bytes / 1e6:.0f} MB "
          f"({manager.spill_seconds * 1e3:.1f} ms of bus time)")
    print()


#: ``(label, table factory)`` of each session, in run order.
SESSIONS = (
    # DyCuckoo sizes itself to the live data.
    ("DyCuckoo", lambda: DyCuckooAdapter(DyCuckooConfig(initial_buckets=64))),
    # The static deployment model: provision MegaKV for the peak up
    # front (8M entries at 50% fill; 2 subtables x 2M buckets x 8
    # slots) and never resize.
    ("MegaKV-static", lambda: MegaKVTable(initial_buckets=1 << 21,
                                          auto_resize=False)),
)


def main() -> None:
    print(f"device: {GTX_1050.name} "
          f"({GTX_1050.device_memory_bytes / 2**30:.0f} GB)\n")

    for label, table_factory in SESSIONS:
        run_session(label, table_factory)

    print("DyCuckoo returns memory as its load shrinks, so the other")
    print("tenants stay resident; the statically-provisioned table keeps")
    print("its peak allocation forever and the neighbours pay in PCIe")
    print("round-trips — the motivation of the paper's Section I.")


if __name__ == "__main__":
    main()
