"""Adapter presenting :class:`DyCuckooTable` through the baseline API.

The core table already has the right method signatures; the adapter adds
the harness metadata (name, kernel costs, capability flags) and a
factory matching the baseline constructors' shape, so benchmark code can
instantiate every approach from one table of factories.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import GpuHashTable
from repro.core.config import DyCuckooConfig
from repro.core.instruments import Instruments
from repro.core.stats import MemoryFootprint
from repro.core.table import DyCuckooTable
from repro.gpusim.metrics import KernelCosts


class DyCuckooAdapter(GpuHashTable):
    """DyCuckoo behind the common harness interface.

    The slightly higher ``find_ns`` versus MegaKV reflects the extra
    first-layer hash — the cost the paper cites for DyCuckoo's FIND
    being marginally behind MegaKV's in Figure 9.
    """

    NAME = "DyCuckoo"
    KERNEL_COSTS = KernelCosts(find_ns=0.42, insert_ns=0.36, delete_ns=0.42)

    def __init__(self, config: DyCuckooConfig | None = None) -> None:
        self.table = DyCuckooTable(config)
        self.stats = self.table.stats

    @property
    def config(self) -> DyCuckooConfig:
        return self.table.config

    def attach(self, instruments: Instruments | None) -> None:
        super().attach(instruments)
        self.table.attach(instruments)

    @property
    def subtable_load_factors(self) -> list[float]:
        return self.table.subtable_load_factors

    def insert(self, keys, values) -> None:
        self.table.insert(keys, values)

    def find(self, keys) -> tuple[np.ndarray, np.ndarray]:
        return self.table.find(keys)

    def delete(self, keys) -> np.ndarray:
        return self.table.delete(keys)

    def __len__(self) -> int:
        return len(self.table)

    @property
    def load_factor(self) -> float:
        return self.table.load_factor

    def memory_footprint(self) -> MemoryFootprint:
        return self.table.memory_footprint()

    def validate(self) -> None:
        self.table.validate()
