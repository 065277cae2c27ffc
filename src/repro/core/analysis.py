"""The paper's analytical results as executable, testable formulas.

Three pieces of theory underpin DyCuckoo's design; this module encodes
them so tests and benchmarks can check the implementation *against the
math*, not just against itself:

* **Theorem 1** — expected insert conflicts for a load split
  ``(m_1..m_d)`` over sizes ``(n_1..n_d)`` is ``sum C(m_i, 2) / n_i``.
  :func:`expected_conflicts` evaluates the objective;
  :func:`optimal_distribution` solves the constrained minimization
  exactly (KKT conditions of the convex program).

  *Reproduction note*: the paper states the minimum occurs when the
  terms ``C(m_i, 2) / n_i`` are all equal (its Jensen-inequality step
  bounds a transform of the objective, for which equal terms is the
  equality case).  The true minimizer of the sum itself equalizes the
  *marginal* conflict rates ``(2 m_i - 1) / (2 n_i)``, i.e. loads
  essentially proportional to sizes (near-equal filled factors).  For
  the balanced configurations DyCuckoo maintains, the two conditions
  coincide to first order, which is why the paper's routing heuristic
  works; tests verify the implementation tracks the *true* optimum.
* **Section IV-B's fill bound** — one upsize lowers the filled factor
  to at least ``beta * d / (d + 1)``, so a feasible lower bound must
  satisfy ``alpha < d / (d + 1)``.  :func:`post_upsize_fill` and
  :func:`max_feasible_alpha` encode both.
* **Section IV-D's amortized resize cost** — a resize touches at most
  ``m / d`` entries.  :func:`resize_work_bound` gives the bound that
  tests compare against measured ``rehashed_entries``.

The module also hosts :func:`check_invariants`, the single reusable
structural checker behind :meth:`repro.core.table.DyCuckooTable.validate`
and the property/fuzz test suites.
"""

from __future__ import annotations

import numpy as np

from repro.errors import InvalidConfigError


def pairwise(m: np.ndarray) -> np.ndarray:
    """``C(m, 2)`` elementwise."""
    m = np.asarray(m, dtype=np.float64)
    return m * (m - 1.0) / 2.0


def expected_conflicts(loads: np.ndarray, sizes: np.ndarray) -> float:
    """Theorem 1's objective: ``sum C(m_i, 2) / n_i``."""
    loads = np.asarray(loads, dtype=np.float64)
    sizes = np.asarray(sizes, dtype=np.float64)
    if loads.shape != sizes.shape:
        raise InvalidConfigError("loads and sizes must align")
    if bool((sizes <= 0).any()):
        raise InvalidConfigError("sizes must be positive")
    return float((pairwise(loads) / sizes).sum())


def optimal_distribution(total: float, sizes: np.ndarray,
                         iterations: int = 200) -> np.ndarray:
    """Solve Theorem 1's minimization for the load split ``m_i``.

    Minimizes ``sum C(m_i, 2) / n_i`` subject to ``sum m_i = total`` and
    ``m_i >= 0``.  The stationarity condition equalizes the derivatives
    ``(2 m_i - 1) / (2 n_i)``, i.e. ``m_i = lam * n_i + 1/2`` with the
    multiplier ``lam`` pinned by the budget — asymptotically the
    proportional split (equal filled factors), see the module docstring
    for how this relates to the paper's statement of Theorem 1.
    """
    sizes = np.asarray(sizes, dtype=np.float64)
    if total < 0:
        raise InvalidConfigError("total must be non-negative")
    if bool((sizes <= 0).any()):
        raise InvalidConfigError("sizes must be positive")
    d = len(sizes)
    # m_i = lam * n_i + 1/2 with sum m_i = total:
    lam = (total - d / 2.0) / sizes.sum()
    m = lam * sizes + 0.5
    # Project negatives to zero and re-solve over the support.
    for _ in range(iterations):
        negative = m < 0
        if not negative.any():
            break
        m[negative] = 0.0
        support = ~negative
        lam = (total - support.sum() / 2.0) / sizes[support].sum()
        m[support] = lam * sizes[support] + 0.5
    return np.maximum(m, 0.0)


def conflict_optimality_gap(loads: np.ndarray, sizes: np.ndarray) -> float:
    """Relative excess of a split's conflicts over the optimum.

    0.0 means the split achieves Theorem 1's minimum; 0.1 means 10%
    more expected conflicts than optimal.  Used by tests to verify the
    weighted router keeps the structure near the optimum.
    """
    loads = np.asarray(loads, dtype=np.float64)
    sizes = np.asarray(sizes, dtype=np.float64)
    actual = expected_conflicts(loads, sizes)
    best = expected_conflicts(optimal_distribution(loads.sum(), sizes),
                              sizes)
    if best <= 0:
        return 0.0
    return actual / best - 1.0


def post_upsize_fill(theta: float, num_doubled: int, num_tables: int
                     ) -> float:
    """Filled factor after one upsize (Section IV-B's derivation).

    With ``d'`` subtables already doubled (size ``2n``) and ``d - d'``
    at size ``n``, doubling one more changes total capacity from
    ``(d + d') n`` to ``(d + d' + 1) n``:

        theta' = theta * (d + d') / (d + d' + 1)
    """
    if not 0 <= num_doubled < num_tables:
        raise InvalidConfigError(
            f"num_doubled must be in [0, num_tables), got {num_doubled}")
    weight = num_tables + num_doubled
    return theta * weight / (weight + 1)


def max_feasible_alpha(num_tables: int) -> float:
    """The paper's bound: ``alpha`` must stay below ``d / (d + 1)``.

    One upsize at ``theta = beta`` lands at least at
    ``beta * d / (d + 1)``; a lower bound at or above ``d / (d + 1)``
    could exceed that landing point and force immediate re-shrinking.
    """
    if num_tables < 1:
        raise InvalidConfigError("num_tables must be >= 1")
    return num_tables / (num_tables + 1.0)


def resize_work_bound(total_entries: int, num_tables: int) -> float:
    """Entries one resize may touch: at most ``m / d`` (Section IV-D).

    The resized subtable is the smallest (upsize) or the largest at most
    twice any other (downsize), so its share of ``m`` is bounded by
    roughly ``m / d`` (upsize) and ``2m / (d + 1)`` (downsize); we
    return the looser downsize bound so one function covers both.
    """
    if num_tables < 1:
        raise InvalidConfigError("num_tables must be >= 1")
    return 2.0 * total_entries / (num_tables + 1.0)


def check_invariants(table, check_fill: bool = False) -> None:
    """Check every structural invariant of a DyCuckoo table.

    Raises ``AssertionError`` naming the first violated invariant.
    Checked unconditionally:

    * per-subtable storage consistency (``Subtable.validate``),
    * every stored key lives in a subtable of its layer-1 pair and in
      its hashed bucket,
    * no key is stored twice (across subtables, or in both a subtable
      and the overflow stash),
    * the 2x size discipline between subtables (Section IV-B),
    * the stash occupancy bound,
    * ``len(table)`` equals a recount of the stored entries plus the
      stash, and ``table.total_slots`` (cached between resizes) a
      recount of the subtables' slots.

    With ``check_fill`` the global filled factor must additionally sit
    inside ``[alpha, beta]`` unless a legitimate stop condition of
    ``enforce_bounds`` explains the excursion: the ``max_total_slots``
    ceiling blocking an upsize; every subtable at ``min_buckets`` or a
    halving that would overshoot ``beta`` blocking a downsize; or a
    fault-injection plan attached / stash occupied (injected resize
    aborts legitimately strand ``theta`` out of bounds until a later
    batch retries).

    When the table has an enabled flight recorder attached, a failing
    check trips it (dumping a post-mortem bundle) before the
    ``AssertionError`` propagates.
    """
    try:
        _check_invariants(table, check_fill=check_fill)
    except AssertionError as exc:
        if table.recorder.enabled:
            table.recorder.trip("invariant_failure", message=str(exc))
        raise


def _check_invariants(table, check_fill: bool) -> None:
    all_codes = []
    for idx, st in enumerate(table.subtables):
        st.validate()
        codes, _values, buckets = st.export_entries()
        all_codes.append(codes)
        if len(codes):
            first, second = table.pair_hash.tables_for(codes)
            in_pair = (first == idx) | (second == idx)
            if not bool(np.all(in_pair)):
                raise AssertionError(
                    f"subtable {idx} stores a key outside its pair"
                )
            if st.migration is not None:
                # Mid-epoch the storage is dual-view: each entry sits in
                # the bucket its pair's migration flag currently selects.
                raw = table.table_hashes[idx].raw(codes)
                expected = st.migration.effective_buckets(raw)
            else:
                expected = table.table_hashes[idx].bucket(codes,
                                                          st.n_buckets)
            if not bool(np.all(expected == buckets)):
                raise AssertionError(
                    f"subtable {idx} has an entry in the wrong bucket"
                )
    merged = (np.concatenate(all_codes) if all_codes
              else np.zeros(0, dtype=np.uint64))
    if len(merged) != len(np.unique(merged)):
        raise AssertionError("duplicate key stored across subtables")
    sizes = [st.n_buckets for st in table.subtables]
    if max(sizes) > 2 * min(sizes):
        raise AssertionError(
            f"subtable size discipline violated: {sizes}"
        )
    table.stash.validate()
    if len(table.stash):
        stash_codes, _stash_values = table.stash.export_entries()
        if np.intersect1d(merged, stash_codes).size:
            raise AssertionError(
                "key stored in both a subtable and the stash"
            )
    expected_len = len(merged) + len(table.stash)
    if len(table) != expected_len:
        raise AssertionError(
            f"len(table)={len(table)} disagrees with the stored entries "
            f"plus stash ({expected_len})"
        )
    slots = sum(st.total_slots for st in table.subtables)
    if table.total_slots != slots:
        raise AssertionError(
            f"total_slots={table.total_slots} disagrees with the "
            f"subtables' {slots} slots"
        )
    if check_fill:
        _check_fill_bounds(table)


def _check_fill_bounds(table) -> None:
    """Fill-bound half of :func:`check_invariants` (see its docstring)."""
    config = table.config
    if not config.auto_resize or table.total_slots == 0:
        return
    if getattr(table.faults, "enabled", False) or len(table.stash):
        return
    if any(st.migration is not None for st in table.subtables):
        # Mid-epoch the physical layout is transitional (the
        # residual-free downsize analysis below reads physical
        # exports); bounds are re-checked once the epoch drains.
        return
    theta = table.load_factor
    if theta > config.beta:
        smallest = min(st.total_slots for st in table.subtables)
        ceiling = config.max_total_slots
        if not (ceiling and table.total_slots + smallest > ceiling):
            raise AssertionError(
                f"filled factor {theta:.3f} above beta={config.beta} "
                "with nothing blocking an upsize"
            )
    if theta < config.alpha:
        target = None
        best_size = -1
        for idx, st in enumerate(table.subtables):
            if st.n_buckets <= config.min_buckets:
                continue
            if st.n_buckets > best_size:
                target = idx
                best_size = st.n_buckets
        if target is None:
            return  # every subtable at min_buckets: legal stop
        st = table.subtables[target]
        projected = table.total_slots - st.total_slots // 2
        if projected and len(table) / projected > config.beta:
            return  # halving would overshoot beta: legal stop
        # A downsize whose merge produces residuals can legitimately
        # fail (spill stall); only a provably residual-free downsize
        # makes the excursion a bug.
        codes, _values, _buckets = st.export_entries()
        new_n = st.n_buckets // 2
        if len(codes):
            new_buckets = table.table_hashes[target].bucket(codes, new_n)
            counts = np.bincount(new_buckets.astype(np.int64),
                                 minlength=new_n)
            residuals = int(np.maximum(counts - st.bucket_capacity, 0).sum())
        else:
            residuals = 0
        if residuals == 0:
            raise AssertionError(
                f"filled factor {theta:.3f} below alpha={config.alpha} "
                "with a residual-free downsize available"
            )
