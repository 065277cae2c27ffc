"""Vectorized group-by helpers shared by table implementations.

Batched hash-table kernels repeatedly need *rank within group*: when
several operations in one device round target the same bucket, the k-th
of them may claim the k-th free slot, and only the first may evict.  On a
GPU the warp vote produces this ordering; in the vectorized simulation we
recover it with a stable sort of the group ids.  Large inputs get that
order from one plain ``np.sort`` of the ids with each element's index
packed into the low bits (numpy's SIMD sort, several times faster than
its stable merge sort); small ones, and ids too wide to pack, use the
stable argsort directly.  Either way the order is exactly
``argsort(kind="stable")``.  The duplicate masks of batched upserts and
deletes come from the same order and a neighbour compare.
"""

from __future__ import annotations

import numpy as np

#: Inputs shorter than this take the stable argsort directly: below
#: about a thousand elements it beats the packed sort (measured
#: crossover), and a duplicate mask skips the all-distinct pre-check.
SORT_CUTOFF = 1024


def _sorted_with_order(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(order, ids[order])`` with ``order`` the stable argsort of ``ids``.

    For at least :data:`SORT_CUTOFF` non-negative integers whose bits
    plus the index bits fit 64, sorts ``id << index_bits | index`` once:
    equal ids then tie-break by index, which is the stable order, and
    both outputs unpack from the one sorted array.
    """
    n = len(ids)
    kind = ids.dtype.kind
    if n >= SORT_CUTOFF and (kind == "u"
                             or (kind == "i" and ids.min() >= 0)):
        shift = (n - 1).bit_length()
        if int(ids.max()).bit_length() + shift <= 64:
            packed = ids.astype(np.uint64) << np.uint64(shift)
            packed |= np.arange(n, dtype=np.uint64)
            packed.sort()
            order = (packed & np.uint64((1 << shift) - 1)).astype(np.intp)
            packed >>= np.uint64(shift)
            return order, packed.astype(ids.dtype, copy=False)
    # The function form: tests/test_grouping.py counts its calls to
    # tell this fallback from the packed path.
    order = np.argsort(ids, kind="stable")
    return order, ids[order]


def stable_order(ids) -> np.ndarray:
    """The stable argsort of ``ids``, equal to ``argsort(kind="stable")``."""
    return _sorted_with_order(np.asarray(ids))[0]


def rank_within_group(group_ids: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rank each element among elements sharing its ``group_id``.

    Returns
    -------
    ranks:
        ``ranks[i]`` is the 0-based position of element ``i`` among all
        elements with the same ``group_ids[i]``, in stable input order.
    unique_groups:
        Sorted unique group ids.
    inverse:
        Index into ``unique_groups`` for each element.
    """
    group_ids = np.asarray(group_ids)
    n = len(group_ids)
    order, sorted_ids = _sorted_with_order(group_ids)
    # A run of equal ids starts wherever the sorted id changes.
    run_start = np.ones(n, dtype=bool)
    np.not_equal(sorted_ids[1:], sorted_ids[:-1], out=run_start[1:])
    starts = run_start.nonzero()[0]
    inverse_sorted = run_start.cumsum() - 1
    inverse = np.empty(n, dtype=np.intp)
    inverse[order] = inverse_sorted
    ranks = np.empty(n, dtype=np.int64)
    ranks[order] = np.arange(n) - starts[inverse_sorted]
    return ranks, sorted_ids[starts], inverse


def group_counts(group_ids: np.ndarray, num_groups: int) -> np.ndarray:
    """Count occurrences of each id in ``[0, num_groups)``."""
    return np.bincount(np.asarray(group_ids, dtype=np.int64),
                       minlength=num_groups)


def _all_distinct(keys: np.ndarray) -> bool:
    """True when at least :data:`SORT_CUTOFF` integer keys hold no
    repeat, checked by one sort and a neighbour compare.  False means
    "repeats, or not checked"."""
    if (len(keys) < SORT_CUTOFF or keys.ndim != 1
            or keys.dtype.kind not in "iu"):
        return False
    ordered = np.sort(keys)
    return not (ordered[1:] == ordered[:-1]).any()


def _occurrence_mask(keys, last: bool) -> np.ndarray:
    """Mask selecting one occurrence of each distinct key of a 1-D
    array: the first, or with ``last`` the last.

    In the stable order a key's occurrences form one run in input
    order, so a neighbour compare marks each run's first (last) entry.
    """
    keys = np.asarray(keys)
    n = len(keys)
    if n < 2 or _all_distinct(keys):
        return np.ones(n, dtype=bool)
    order, ordered = _sorted_with_order(keys)
    edge = np.empty(n, dtype=bool)
    if last:
        edge[-1] = True
        np.not_equal(ordered[1:], ordered[:-1], out=edge[:-1])
    else:
        edge[0] = True
        np.not_equal(ordered[1:], ordered[:-1], out=edge[1:])
    mask = np.zeros(n, dtype=bool)
    mask[order[edge]] = True
    return mask


def first_occurrence_mask(keys: np.ndarray) -> np.ndarray:
    """Mask selecting the first occurrence of each distinct key, in order."""
    return _occurrence_mask(keys, last=False)


def last_occurrence_mask(keys: np.ndarray) -> np.ndarray:
    """Mask selecting the last occurrence of each distinct key.

    Batched upserts use *last-writer-wins* semantics for duplicate keys
    inside one batch, matching the deterministic replay of the paper's
    batched execution model.
    """
    return _occurrence_mask(keys, last=True)
