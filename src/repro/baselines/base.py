"""Common interface for all GPU hash-table implementations.

The experiment harness (:mod:`repro.bench`) drives every approach —
DyCuckoo and the three baselines — through this interface so one runner
can produce all of the paper's comparison figures.  Implementations
count their device events in a shared :class:`TableStats`, letting the
cost model time them consistently.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.core.instruments import Instruments
from repro.core.stats import MemoryFootprint, TableStats
from repro.gpusim.metrics import KernelCosts
from repro.telemetry import NULL_TELEMETRY, Telemetry


class GpuHashTable(abc.ABC):
    """Abstract batched hash table over ``uint64`` keys and values."""

    #: Human-readable name used in reports (overridden per class).
    NAME = "abstract"

    #: Relative per-op compute costs fed to the cost model.
    KERNEL_COSTS = KernelCosts()

    #: Whether the implementation supports DELETE (CUDPP does not).
    SUPPORTS_DELETE = True

    #: Whether the implementation can resize itself dynamically.
    SUPPORTS_RESIZE = True

    #: The attached instruments (see :meth:`attach`).
    instruments: Instruments = Instruments()

    #: The attached telemetry handle, read directly by the harness.
    telemetry: Telemetry = NULL_TELEMETRY

    stats: TableStats

    def attach(self, instruments: Instruments | None) -> None:
        """Attach a bundle of instruments (``None`` detaches them all).

        The baselines observe only the telemetry handle; front-ends
        that carry a DyCuckooTable forward the whole record to it.
        """
        self.instruments = (instruments if instruments is not None
                            else Instruments())
        self.telemetry = self.instruments.telemetry

    @abc.abstractmethod
    def insert(self, keys, values) -> None:
        """Upsert a batch of key/value pairs."""

    @abc.abstractmethod
    def find(self, keys) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(values, found)`` for a batch of keys."""

    @abc.abstractmethod
    def delete(self, keys) -> np.ndarray:
        """Delete a batch of keys; return the removed mask."""

    @abc.abstractmethod
    def __len__(self) -> int:
        """Number of live entries."""

    @property
    @abc.abstractmethod
    def load_factor(self) -> float:
        """Live entries over allocated slots."""

    @abc.abstractmethod
    def memory_footprint(self) -> MemoryFootprint:
        """Current device-memory accounting."""

    def validate(self) -> None:
        """Optional structural self-check (default: no-op)."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<{type(self).__name__} entries={len(self)} "
                f"load={self.load_factor:.2%}>")
