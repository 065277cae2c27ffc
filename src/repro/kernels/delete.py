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

import dataclasses

import numpy as np

from repro.core.batch_ops import EncodedBatch
from repro.core.subtable import EMPTY
from repro.gpusim.memory import MemoryTracker
from repro.gpusim.warp import WarpContext
from repro.kernels.engine import (kernel_batch, kernel_span,
                                  record_kernel_counters, resolve_engine)
from repro.kernels.find import _ballot_match
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
    n = len(batch)
    san = table.sanitizer
    prof = table.profiler
    if san.enabled:
        # DELETE's slot clear is intentionally lock-free: at most one
        # lane can match a unique key, so no write conflict is possible
        # (Section V-B).  locking=False records that contract; the
        # clears are still logged as writes for the access log.
        san.begin_kernel("delete", locking=False, table=table)
    if prof.enabled:
        prof.begin_kernel("delete", n)
    try:
        with kernel_span(table, "delete", n, engine):
            if engine == "cohort":
                from repro.gpusim.cohort import cohort_delete

                removed, result = cohort_delete(table, batch)
            else:
                removed, result = _warp_delete(table, batch)
    except BaseException:
        if prof.enabled:
            prof.end_kernel()
        raise
    finally:
        if san.enabled:
            san.end_kernel()
    if prof.enabled:
        prof.end_kernel(dataclasses.asdict(result))
    record_kernel_counters(table, result)
    return removed, result


def _warp_delete(table, batch: EncodedBatch
                 ) -> tuple[np.ndarray, KernelRunResult]:
    n = len(batch)
    removed = np.zeros(n, dtype=bool)
    result = KernelRunResult()
    san = table.sanitizer
    tracker = MemoryTracker(sanitizer=san if san.enabled else None)
    ctx = WarpContext(warp_id=0)
    if n == 0:
        return removed, result

    codes, first, second = batch.codes, batch.first, batch.second
    prof = table.profiler
    first_hits = 0
    for i in range(n):
        code = int(codes[i])
        for probe, target in enumerate((int(first[i]), int(second[i]))):
            st = table.subtables[target]
            bucket = int(table.bucket_for(
                target, np.asarray([code], dtype=np.uint64))[0])
            tracker.bucket_access()
            result.memory_transactions += 1
            slot = _ballot_match(ctx, st.keys[bucket], code)
            if slot >= 0:
                st.keys[bucket, slot] = EMPTY
                st.size -= 1
                tracker.bucket_access()
                result.memory_transactions += 1
                if san.enabled:
                    san.record_access(0, "write", "bucket",
                                      (target << 40) | bucket,
                                      site=_SITE_CLEAR)
                removed[i] = True
                if probe == 0:
                    first_hits += 1
                break
    if prof.enabled:
        prof.observe_probes(n, first_hits)
    result.completed_ops = int(removed.sum())
    result.rounds = n
    return removed, result
