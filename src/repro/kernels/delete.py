"""Warp-centric DELETE kernel (Section V-B).

Deletion, like FIND, needs no bucket locks: one warp inspects the two
candidate buckets of the key; the lane that sees the key clears it.  At
most one lane can match (keys are unique across the structure), so no
write conflict is possible — the property the paper uses to keep DELETE
lock-free.  ``engine="cohort"`` runs the same program through the
structure-of-arrays engine with identical results, storage mutations,
and transaction counts.
"""

from __future__ import annotations

import numpy as np

from repro.core.batch_ops import EncodedBatch
from repro.core.subtable import EMPTY
from repro.kernels.engine import kernel_batch, launch, resolve_engine
from repro.kernels.find import _warp_walk
from repro.kernels.insert import KernelRunResult

_SITE_CLEAR = "repro/kernels/delete.py:_warp_delete"


def run_delete_kernel(table, keys, engine: str = "warp", *,
                      codes: EncodedBatch | None = None
                      ) -> tuple[np.ndarray, KernelRunResult]:
    """Delete a batch of keys lane-faithfully.

    Returns ``(removed, result)``.  Mutates the table's storage and its
    per-subtable live counters; semantically identical to
    :meth:`repro.core.table.DyCuckooTable.delete` minus the automatic
    resize (resizing is a separate kernel in the paper).

    ``codes`` takes the place of ``keys`` when the caller has already
    encoded the batch (an :class:`~repro.core.batch_ops.EncodedBatch`).
    """
    resolve_engine(engine)
    batch = kernel_batch(table, keys, codes)
    if engine == "cohort":
        from repro.gpusim.cohort import cohort_delete as body
    else:
        body = _warp_delete
    return launch(table, "delete", batch, engine,
                  lambda: body(table, batch))


def _warp_delete(table, batch: EncodedBatch
                 ) -> tuple[np.ndarray, KernelRunResult]:
    san = table.sanitizer

    def on_hit(_i: int, st, target: int, bucket: int, slot: int) -> int:
        # The slot clear is intentionally lock-free: at most one lane
        # can match a unique key, so no write conflict is possible.  It
        # is still logged as a write for the access log.
        st.keys[bucket, slot] = EMPTY
        st.size -= 1
        if san.enabled:
            san.record_access(0, "write", "bucket", (target << 40) | bucket,
                              site=_SITE_CLEAR)
        return 1  # the slot-clear write

    removed, result = _warp_walk(table, batch, on_hit)
    result.completed_ops = int(removed.sum())
    return removed, result
