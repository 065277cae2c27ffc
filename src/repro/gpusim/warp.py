"""Warp-level primitives for the lane-level SIMT interpreter.

CUDA kernels in the paper coordinate through three intra-warp
primitives: ``__ballot`` (which lanes satisfy a predicate), ``__shfl``
(broadcast a register from one lane to the whole warp) and implicit
lockstep execution.  :class:`WarpContext` reproduces them over numpy
lane vectors, so kernels in :mod:`repro.kernels` can be written as a
near-literal transcription of the paper's Algorithm 1 and validated
against the vectorized fast path.
"""

from __future__ import annotations

import numpy as np

from repro.errors import InvalidConfigError


class WarpContext:
    """State and primitives of one warp (default width 32).

    A *lane vector* is a length-``width`` numpy array holding one value
    per lane.  ``active`` masks lanes that still have work; inactive
    lanes participate in votes with a False predicate, exactly like
    exited CUDA threads.
    """

    def __init__(self, warp_id: int, width: int = 32) -> None:
        if width < 1:
            raise InvalidConfigError(f"warp width must be >= 1, got {width}")
        self.warp_id = warp_id
        self.width = width
        self.lanes = np.arange(width, dtype=np.int64)
        self.active = np.zeros(width, dtype=bool)
        #: Reusable lane-predicate buffer for striped bucket scans.  A
        #: warp ballots one stripe at a time; allocating a fresh
        #: predicate vector per stripe dominated the kernels' profile,
        #: so scans overwrite this scratch instead (callers must not
        #: hold a reference across warp steps).
        self.scratch_pred = np.zeros(width, dtype=bool)

    def ballot(self, predicate: np.ndarray) -> int:
        """``__ballot``: bitmask of lanes whose predicate is true."""
        predicate = np.asarray(predicate, dtype=bool)
        if predicate.shape != (self.width,):
            raise InvalidConfigError(
                f"ballot predicate must have shape ({self.width},), "
                f"got {predicate.shape}"
            )
        bits = 0
        for lane in np.flatnonzero(predicate):
            bits |= 1 << int(lane)
        return bits

    @staticmethod
    def ffs(mask: int) -> int:
        """First set lane of a ballot mask, or -1 when empty.

        Mirrors CUDA's ``__ffs(mask) - 1`` idiom used to elect a warp
        leader from a ballot (lines 1-5 of Algorithm 1).
        """
        if mask == 0:
            return -1
        return (mask & -mask).bit_length() - 1

    def shfl(self, values: np.ndarray, src_lane: int):
        """``__shfl``: broadcast lane ``src_lane``'s register to the warp."""
        values = np.asarray(values)
        if values.shape[0] != self.width:
            raise InvalidConfigError(
                f"shfl values must have {self.width} lanes, got {values.shape}"
            )
        if not 0 <= src_lane < self.width:
            raise InvalidConfigError(f"shfl source lane out of range: {src_lane}")
        return values[src_lane]

    def any_active(self) -> bool:
        """True while at least one lane still has work."""
        return bool(self.active.any())
