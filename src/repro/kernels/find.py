"""Warp-centric FIND kernel (Section V-B).

One warp processes one lookup at a time: the warp reads the key's first
candidate bucket in a single coalesced transaction, each lane compares
one slot, and a ballot reports the matching lane.  Only on a miss does
the warp read the second candidate bucket — the two-layer scheme
guarantees there is no third.

FIND needs no locks at all (read-only), which is why the paper
parallelizes it trivially.  ``engine="cohort"`` runs the same program
through the structure-of-arrays engine (:mod:`repro.gpusim.cohort`)
with identical results and transaction counts.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.core.batch_ops import EncodedBatch
from repro.gpusim.memory import MemoryTracker
from repro.gpusim.warp import WarpContext
from repro.kernels.engine import (kernel_batch, kernel_span,
                                  record_kernel_counters, resolve_engine)
from repro.kernels.insert import KernelRunResult


def _ballot_match(ctx: WarpContext, bucket_keys: np.ndarray,
                  code: int) -> int:
    """Warp-wide slot scan; returns matching slot or -1."""
    matches = bucket_keys == np.uint64(code)
    pred = ctx.scratch_pred
    for stripe_start in range(0, len(bucket_keys), ctx.width):
        stripe = matches[stripe_start:stripe_start + ctx.width]
        pred[:] = False
        pred[:len(stripe)] = stripe
        hit = ctx.ffs(ctx.ballot(pred))
        if hit >= 0:
            return stripe_start + hit
    return -1


def run_find_kernel(table, keys, engine: str = "warp", *,
                    codes: EncodedBatch | None = None
                    ) -> tuple[np.ndarray, np.ndarray, KernelRunResult]:
    """Look up a batch of keys lane-faithfully.

    Returns ``(values, found, result)``.  Semantically identical to
    :meth:`repro.core.table.DyCuckooTable.find` (asserted by tests);
    this path additionally yields exact per-warp transaction counts.

    ``codes`` takes the place of ``keys`` when the caller has already
    encoded the batch (an :class:`~repro.core.batch_ops.EncodedBatch`,
    whose hash caches the kernel then reuses).
    """
    resolve_engine(engine)
    batch = kernel_batch(table, keys, codes)
    n = len(batch)
    san = table.sanitizer
    prof = table.profiler
    if san.enabled:
        # FIND is read-only and lock-free by design (Section V-B):
        # locking=False exempts it from the unlocked-write contract and
        # its probes are recorded as "probe" kind (exempt from pairing).
        san.begin_kernel("find", locking=False, table=table)
    if prof.enabled:
        prof.begin_kernel("find", n)
    try:
        with kernel_span(table, "find", n, engine):
            if engine == "cohort":
                from repro.gpusim.cohort import cohort_find

                values, found, result = cohort_find(table, batch)
            else:
                values, found, result = _warp_find(table, batch)
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
    return values, found, result


def _warp_find(table, batch: EncodedBatch
               ) -> tuple[np.ndarray, np.ndarray, KernelRunResult]:
    n = len(batch)
    values = np.zeros(n, dtype=np.uint64)
    found = np.zeros(n, dtype=bool)
    result = KernelRunResult()
    san = table.sanitizer
    tracker = MemoryTracker(sanitizer=san if san.enabled else None)
    ctx = WarpContext(warp_id=0)
    if n == 0:
        return values, found, result

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
                values[i] = st.values[bucket, slot]
                found[i] = True
                if probe == 0:
                    first_hits += 1
                break
    if prof.enabled:
        prof.observe_probes(n, first_hits)
    result.completed_ops = n
    result.rounds = n  # one warp processes queries sequentially
    return values, found, result
