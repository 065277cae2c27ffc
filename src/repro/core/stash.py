"""Bounded stash (error table) for eviction-chain overflow.

The reference CUDA DyCuckoo carries an ``error_table_t``: a small,
fixed-length side table that absorbs keys whose cuckoo eviction chain
exceeds ``MaxEvictNum`` (``cg_error_handle`` bumps ``error_pt`` with an
``atomicAdd`` and parks the key).  Our reproduction normally responds
to an exhausted chain by upsizing (Section IV-B), so in a fault-free
run the stash stays empty — but when an upsize itself cannot complete
(an injected resize abort, the scenario the fault layer creates), the
stash is the paper-faithful degradation path: inserts land here instead
of being lost, FIND/DELETE remain correct, and a bounded drain-back
after the next successful resize moves entries home.

The stash is intentionally tiny and scalar (a dict over internal key
codes): it only ever holds the tail of a failed batch, and correctness
under chaos matters more than vector throughput on this path.
"""

from __future__ import annotations

import numpy as np

from repro.errors import InvalidConfigError
from repro.sanitizer import NULL_SANITIZER

_SITE_PUSH = "repro/core/stash.py:Stash.push"


class Stash:
    """A bounded key-code → value side table.

    All arrays are internal *codes* (user key + 1), matching subtable
    storage; the owning table translates at its API boundary.
    """

    #: Sanitizer observing occupancy (memcheck's stash-overflow check);
    #: a class attribute so attaching one needs no constructor change.
    #: :meth:`repro.core.table.DyCuckooTable.attach` sets it on
    #: the instance.
    sanitizer = NULL_SANITIZER

    def __init__(self, capacity: int) -> None:
        if capacity < 0:
            raise InvalidConfigError(
                f"stash capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self._entries: dict[int, int] = {}
        #: Largest occupancy ever observed (survival reporting).
        self.high_water = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, code: int) -> bool:
        return int(code) in self._entries

    @property
    def free(self) -> int:
        """Remaining capacity."""
        return self.capacity - len(self._entries)

    def export_entries(self) -> tuple[np.ndarray, np.ndarray]:
        """All live ``(codes, values)`` in insertion order."""
        if not self._entries:
            return (np.zeros(0, dtype=np.uint64),
                    np.zeros(0, dtype=np.uint64))
        codes = np.fromiter(self._entries.keys(), dtype=np.uint64,
                            count=len(self._entries))
        values = np.fromiter(self._entries.values(), dtype=np.uint64,
                             count=len(self._entries))
        return codes, values

    def validate(self) -> None:
        """Assert the capacity bound (used by ``check_invariants``)."""
        if len(self._entries) > self.capacity:
            raise AssertionError(
                f"stash holds {len(self._entries)} entries, capacity "
                f"{self.capacity}")

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def push(self, codes: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Absorb as many ``(code, value)`` pairs as capacity allows.

        Returns the mask of absorbed entries; the caller decides what a
        ``False`` (overflow) means — for the table it is a hard
        :class:`~repro.errors.StashOverflowError`.  Codes already
        stashed update in place without consuming capacity.
        """
        codes = np.asarray(codes, dtype=np.uint64)
        values = np.asarray(values, dtype=np.uint64)
        absorbed = np.zeros(len(codes), dtype=bool)
        for i, (code, value) in enumerate(zip(codes, values)):
            code = int(code)
            if code in self._entries or len(self._entries) < self.capacity:
                self._entries[code] = int(value)
                absorbed[i] = True
        self.high_water = max(self.high_water, len(self._entries))
        if self.sanitizer.enabled and absorbed.any():
            self.sanitizer.on_stash_write(len(self._entries),
                                          self.capacity, site=_SITE_PUSH)
        return absorbed

    def lookup(self, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized probe; returns ``(values, found)``."""
        codes = np.asarray(codes, dtype=np.uint64)
        values = np.zeros(len(codes), dtype=np.uint64)
        found = np.zeros(len(codes), dtype=bool)
        if self._entries:
            for i, code in enumerate(codes):
                hit = self._entries.get(int(code))
                if hit is not None:
                    values[i] = hit
                    found[i] = True
        return values, found

    def update(self, codes: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Overwrite values of codes already stashed; return updated mask."""
        codes = np.asarray(codes, dtype=np.uint64)
        values = np.asarray(values, dtype=np.uint64)
        updated = np.zeros(len(codes), dtype=bool)
        if self._entries:
            for i, (code, value) in enumerate(zip(codes, values)):
                if int(code) in self._entries:
                    self._entries[int(code)] = int(value)
                    updated[i] = True
        return updated

    def erase(self, codes: np.ndarray) -> np.ndarray:
        """Remove matching codes; return the erased mask."""
        codes = np.asarray(codes, dtype=np.uint64)
        erased = np.zeros(len(codes), dtype=bool)
        if self._entries:
            for i, code in enumerate(codes):
                if self._entries.pop(int(code), None) is not None:
                    erased[i] = True
        return erased

    def pop_all(self) -> tuple[np.ndarray, np.ndarray]:
        """Drain every entry (drain-back after a successful resize)."""
        codes, values = self.export_entries()
        self._entries.clear()
        return codes, values

    def copy(self) -> "Stash":
        """Independent deep copy (same capacity, same entries)."""
        clone = Stash(self.capacity)
        clone._entries = dict(self._entries)
        clone.high_water = self.high_water
        clone.sanitizer = self.sanitizer
        return clone

    def clear(self) -> None:
        """Drop every entry (capacity and high-water mark retained)."""
        self._entries.clear()


__all__ = ["Stash"]
