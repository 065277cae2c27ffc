"""Host sorts — the bulk-load sorts and the 8M-key session they serve.

A batched insert recovers the warp-vote order (the k-th key aimed at a
bucket takes the k-th free slot) and a batch upsert keeps the last
writer of each key.  Both need a stable order over the batch, which
:mod:`repro.core.grouping` takes from one plain ``np.sort`` of packed
``id << index_bits | index`` keys, and from a sort-then-compare
duplicate check, once a batch reaches ``SORT_CUTOFF`` elements.

Four legs:

* ``sorts`` times the two helpers at ``SORT_N`` elements against the
  numpy merge sorts they replace, on the same host, best of
  ``REPEATS``: :func:`~repro.core.grouping.stable_order` against
  ``argsort(kind="stable")``, and
  :func:`~repro.core.grouping.first_occurrence_mask` of distinct keys
  against ``np.unique(return_index=True)``.  The ratios must reach
  ``ORDER_FLOOR`` and ``DISTINCT_FLOOR``.
* ``placement`` times :func:`~repro.core.subtable.claim_slots`, which
  finds every claimant's free slot with one flat scan of the round's
  free mask, against the per-claimant cumsum search it replaced, at
  ``CLAIMANTS`` claimants over ``CLAIM_ROWS`` 32-slot rows, best of
  ``REPEATS``.  The ratio must reach ``PLACEMENT_FLOOR``.
* ``hashing`` times one hashing pass (``UniversalHash.raw``: pre-mix
  and the affine map modulo ``p = 2**31 - 1``, one ``np.remainder`` per
  reduction) against the pass it replaced, which reduced with two
  Mersenne folds (:func:`~repro.core.hashing.fold_to_31_bits`), best of
  ``REPEATS`` loops of ``HASH_LOOP_CODES`` codes, at each of
  ``HASH_SIZES`` codes per pass.  The remainder pass must win by
  ``REMAINDER_FLOOR`` at 64 codes, where most passes are.  The ratio at
  16,384 codes (a bulk load's chunk) is recorded, not checked: the folds
  cost less per code, by how much depends on the CPU and numpy build.
* ``session`` runs both tables of ``examples/multi_tenant_gpu.py`` at
  full size (grow to 8M keys, shrink to 800k) and records each one's
  wall time.

Every timing key is named ``*_seconds`` or ``*speedup*``, so the strict
perf gate skips them; the floors here are the wall-clock gate.  With
``REPRO_BENCH_JSON`` set, results are also dumped as
``BENCH_host_sorts.json``.
"""

import contextlib
import importlib.util
import io
import time
from pathlib import Path

import numpy as np

from repro.bench import shape_check
from repro.bench.artifacts import maybe_dump
from repro.core.grouping import (first_occurrence_mask, rank_within_group,
                                 stable_order)
from repro.core.hashing import UniversalHash, fold_to_31_bits
from repro.core.subtable import claim_slots

from benchmarks.common import once

#: Elements per timed sort.
SORT_N = 4_000_000

#: Best-of repeats per timed sort.
REPEATS = 3

#: Floor on argsort / ``stable_order`` at ``SORT_N`` packed ids.
ORDER_FLOOR = 4.0

#: Floor on ``np.unique`` / ``first_occurrence_mask`` at ``SORT_N``
#: distinct keys.
DISTINCT_FLOOR = 5.0

#: Claimants and 32-slot rows of the timed placement round.
CLAIMANTS = 100_000
CLAIM_ROWS = 4_096

#: Floor on the cumsum search / ``claim_slots`` at ``CLAIMANTS``.
PLACEMENT_FLOOR = 4.0

#: Codes per timed hashing pass.
HASH_SIZES = (8, 64, 1_024, 16_384)

#: Codes hashed per timed loop of passes.
HASH_LOOP_CODES = 1 << 17

#: Floor on the folded / remainder pass time at 64 codes.
REMAINDER_FLOOR = 2.0

EXAMPLE = (Path(__file__).resolve().parent.parent / "examples"
           / "multi_tenant_gpu.py")


def _best_seconds(fn) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _sort_leg() -> dict:
    rng = np.random.default_rng(4)
    # Round ids shaped like the insert path's (subtable << 40) | bucket.
    ids = (rng.integers(0, 4, SORT_N) << 40) | rng.integers(0, 1 << 21,
                                                            SORT_N)
    assert np.array_equal(stable_order(ids), np.argsort(ids, kind="stable"))
    keys = rng.permutation(SORT_N).astype(np.uint64) * np.uint64(0x9E37)
    assert first_occurrence_mask(keys).all()
    argsort_s = _best_seconds(lambda: np.argsort(ids, kind="stable"))
    order_s = _best_seconds(lambda: stable_order(ids))
    unique_s = _best_seconds(lambda: np.unique(keys, return_index=True))
    distinct_s = _best_seconds(lambda: first_occurrence_mask(keys))
    return {
        "n": SORT_N,
        "argsort_seconds": argsort_s,
        "stable_order_seconds": order_s,
        "stable_order_speedup": argsort_s / order_s,
        "unique_seconds": unique_s,
        "distinct_check_seconds": distinct_s,
        "distinct_check_speedup": unique_s / distinct_s,
    }


def _cumsum_search(free: np.ndarray, ranks: np.ndarray,
                   inverse: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The per-claimant slot search ``claim_slots`` replaced."""
    fits = ranks < free.sum(axis=1)[inverse]
    items = np.flatnonzero(fits)
    running = free[inverse[items]].cumsum(axis=1, dtype=np.uint8)
    rank1 = (ranks[items] + 1).astype(np.uint8)
    return fits, (running == rank1[:, None]).argmax(axis=1)


def _placement_leg() -> dict:
    rng = np.random.default_rng(5)
    ranks, _, inverse = rank_within_group(rng.integers(0, CLAIM_ROWS,
                                                       CLAIMANTS))
    free = rng.random((CLAIM_ROWS, 32)) < 0.4
    fits, slots = claim_slots(free, ranks, inverse)
    want_fits, want_slots = _cumsum_search(free, ranks, inverse)
    assert np.array_equal(fits, want_fits)
    assert np.array_equal(slots, want_slots)
    cumsum_s = _best_seconds(lambda: _cumsum_search(free, ranks, inverse))
    claim_s = _best_seconds(lambda: claim_slots(free, ranks, inverse))
    return {
        "claimants": CLAIMANTS,
        "rows": CLAIM_ROWS,
        "cumsum_search_seconds": cumsum_s,
        "claim_slots_seconds": claim_s,
        "claim_slots_speedup": cumsum_s / claim_s,
    }


def _folded_pass(codes: np.ndarray, h: UniversalHash) -> np.ndarray:
    """The pass :meth:`UniversalHash.raw` replaced: two folds."""
    mixed = fold_to_31_bits(np.bitwise_xor(codes, h.premix))
    mixed *= h.a
    mixed += h.b
    return fold_to_31_bits(mixed)


def _pass_seconds(hash_pass, codes: np.ndarray) -> float:
    """Best-of-``REPEATS`` seconds of one ``hash_pass(codes)``."""
    passes = HASH_LOOP_CODES // len(codes)

    def loop() -> None:
        for _ in range(passes):
            hash_pass(codes)

    return _best_seconds(loop) / passes


def _hashing_leg() -> dict:
    rng = np.random.default_rng(6)
    h = UniversalHash.random(rng)
    results: dict = {}
    for n in HASH_SIZES:
        codes = rng.integers(0, 2 ** 64, n, dtype=np.uint64)
        assert np.array_equal(_folded_pass(codes, h), h.raw(codes))
        fold_s = _pass_seconds(lambda c: _folded_pass(c, h), codes)
        remainder_s = _pass_seconds(h.raw, codes)
        results[f"fold_{n}_seconds"] = fold_s
        results[f"remainder_{n}_seconds"] = remainder_s
        results[f"remainder_speedup_{n}"] = fold_s / remainder_s
    return results


def _session_leg() -> dict:
    spec = importlib.util.spec_from_file_location("multi_tenant_gpu",
                                                  EXAMPLE)
    example = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(example)
    results = {}
    for label, table_factory in example.SESSIONS:
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            example.run_session(label, table_factory)
        key = label.lower().replace("-", "_")
        results[f"{key}_seconds"] = time.perf_counter() - start
    return results


def _run_all() -> dict:
    return {"sorts": _sort_leg(), "placement": _placement_leg(),
            "hashing": _hashing_leg(), "session": _session_leg()}


def test_host_sorts(benchmark):
    results = once(benchmark, _run_all)
    maybe_dump("BENCH_host_sorts", results)

    sorts, session = results["sorts"], results["session"]
    placement, hashing = results["placement"], results["hashing"]
    print()
    print(f"{SORT_N:,} elements, best of {REPEATS}: stable argsort "
          f"{sorts['argsort_seconds']:.3f}s, stable_order "
          f"{sorts['stable_order_seconds']:.3f}s; np.unique "
          f"{sorts['unique_seconds']:.3f}s, distinct check "
          f"{sorts['distinct_check_seconds']:.3f}s")
    print(f"{CLAIMANTS:,} claimants over {CLAIM_ROWS:,} rows, best of "
          f"{REPEATS}: cumsum search "
          f"{placement['cumsum_search_seconds'] * 1e3:.2f}ms, claim_slots "
          f"{placement['claim_slots_seconds'] * 1e3:.2f}ms")
    print(f"one hashing pass, best of {REPEATS}, folds / remainder: "
          + ", ".join(f"{n:,} codes {hashing[f'fold_{n}_seconds'] * 1e6:.1f}"
                      f"/{hashing[f'remainder_{n}_seconds'] * 1e6:.1f}us"
                      for n in HASH_SIZES))
    print("8M-key session: " + ", ".join(
        f"{key} {seconds:.1f}s" for key, seconds in session.items()))
    checks = [
        (f"stable_order beats the stable argsort "
         f"({sorts['stable_order_speedup']:.1f}x >= {ORDER_FLOOR}x)",
         sorts["stable_order_speedup"] >= ORDER_FLOOR),
        (f"distinct check beats np.unique "
         f"({sorts['distinct_check_speedup']:.1f}x >= {DISTINCT_FLOOR}x)",
         sorts["distinct_check_speedup"] >= DISTINCT_FLOOR),
        (f"claim_slots beats the cumsum search "
         f"({placement['claim_slots_speedup']:.1f}x >= {PLACEMENT_FLOOR}x)",
         placement["claim_slots_speedup"] >= PLACEMENT_FLOOR),
        (f"one np.remainder per reduction beats the folds at 64 codes "
         f"({hashing['remainder_speedup_64']:.1f}x >= {REMAINDER_FLOOR}x)",
         hashing["remainder_speedup_64"] >= REMAINDER_FLOOR),
        ("both session tables ran",
         sorted(session) == ["dycuckoo_seconds", "megakv_static_seconds"]),
    ]
    for label, ok in checks:
        print(shape_check(label, ok))
        assert ok, label
