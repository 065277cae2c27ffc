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

import numpy as np

from repro.core.batch_ops import EncodedBatch
from repro.gpusim.warp import WarpContext
from repro.kernels.engine import kernel_batch, launch, resolve_engine
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
    if engine == "cohort":
        from repro.gpusim.cohort import cohort_find as body
    else:
        body = _warp_find
    return launch(table, "find", batch, engine, lambda: body(table, batch))


def _warp_find(table, batch: EncodedBatch
               ) -> tuple[np.ndarray, np.ndarray, KernelRunResult]:
    values = np.zeros(len(batch), dtype=np.uint64)

    def on_hit(i: int, st, _target: int, bucket: int, slot: int) -> int:
        values[i] = st.values[bucket, slot]
        return 0

    found, result = _warp_walk(table, batch, on_hit)
    result.completed_ops = len(batch)
    return values, found, result


def _warp_walk(table, batch: EncodedBatch, on_hit
              ) -> tuple[np.ndarray, KernelRunResult]:
    """The two-bucket warp walk FIND and DELETE share (reference engine).

    One warp takes the batch's keys in order.  It reads a key's first
    candidate bucket in one coalesced transaction, ballots for the
    matching slot, and reads the second bucket only on a miss.
    ``on_hit(i, subtable, target, bucket, slot)`` acts on key ``i``'s
    match and returns the extra transactions it issued.  Returns the
    per-key hit mask and a :class:`KernelRunResult` carrying
    transactions and rounds; the caller sets ``completed_ops``.
    """
    n = len(batch)
    hit = np.zeros(n, dtype=bool)
    result = KernelRunResult()
    if n == 0:
        return hit, result
    ctx = WarpContext(warp_id=0)
    codes, first, second = batch.codes, batch.first, batch.second
    transactions = first_hits = 0
    for i in range(n):
        code = int(codes[i])
        for probe, target in enumerate((int(first[i]), int(second[i]))):
            st = table.subtables[target]
            bucket = int(table.bucket_for(
                target, np.asarray([code], dtype=np.uint64))[0])
            transactions += 1
            slot = _ballot_match(ctx, st.keys[bucket], code)
            if slot >= 0:
                transactions += on_hit(i, st, target, bucket, slot)
                hit[i] = True
                if probe == 0:
                    first_hits += 1
                break
    result.memory_transactions = transactions
    result.rounds = n  # one warp processes queries sequentially
    san = table.sanitizer
    if san.enabled:
        san.on_transactions(transactions)
    prof = table.profiler
    if prof.enabled:
        prof.observe_probes(n, first_hits)
    return hit, result
