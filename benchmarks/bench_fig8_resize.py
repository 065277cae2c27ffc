"""Figure 8 — subtable resize throughput: our strategy vs rehashing.

The paper initializes DyCuckoo at the filled-factor bound, performs one
subtable resize, and compares two mechanisms:

* **resize** — the conflict-free bucket-pair scatter of Section IV-D
  (upsize) / the merge-with-residual-spill (downsize);
* **rehash** — doubling/halving the subtable but relocating its entries
  by *reinserting them with Algorithm 1* into the structure.

Expected shapes: the resize strategy dominates for upsizing (reinsertion
into an almost-full structure triggers eviction storms) and clearly wins
for downsizing too.
"""

import numpy as np

from repro.core.config import DyCuckooConfig
from repro.core.hashing import unhashed
from repro.core.table import DyCuckooTable
from repro.bench import format_table, shape_check

from benchmarks.common import COST_MODEL, once

SLOTS = 64 * 1024


def _make_table(theta: float) -> DyCuckooTable:
    table = DyCuckooTable(DyCuckooConfig(
        num_tables=4, bucket_capacity=32, initial_buckets=SLOTS // (4 * 32),
        auto_resize=False))
    n = int(SLOTS * theta)
    rng = np.random.default_rng(8)
    keys = np.unique(rng.integers(1, 1 << 62, int(n * 1.3)
                                  ).astype(np.uint64))[:n]
    table.insert(keys, keys)
    return table


def _measure(table: DyCuckooTable, action) -> tuple[float, int]:
    """Run ``action``; return (simulated seconds, entries relocated)."""
    before = table.stats.snapshot()
    moved = action()
    delta = table.stats.delta(before)
    seconds = COST_MODEL.batch_seconds(delta, max(1, moved),
                                       compute_ns_per_op=0.3)
    return seconds, moved


def _upsize_strategy():
    table = _make_table(0.85)
    target = 0
    size = table.subtables[target].size

    def action():
        table._resizer._pick_upsize_target = lambda: target
        table.upsize()
        return size

    seconds, moved = _measure(table, action)
    table.validate()
    return moved / seconds / 1e6


def _upsize_rehash():
    """Double subtable 0 but relocate its entries by reinsertion."""
    table = _make_table(0.85)
    st = table.subtables[0]
    codes, values, _ = st.export_entries()

    def action():
        # Empty the doubled subtable, then push its entries through the
        # normal insert path (Algorithm 1) against near-full siblings.
        st.rebuild(st.n_buckets * 2, codes[:0], values[:0],
                   np.zeros(0, dtype=np.int64))
        first, second = table.pair_hash.tables_for(codes)
        targets = table._router.choose(codes, first, second,
                                       table.subtable_sizes(),
                                       table.subtable_loads())
        table._insert_pending(codes, values, targets, unhashed(len(codes)),
                              excluded=None)
        return len(codes)

    seconds, moved = _measure(table, action)
    table.validate()
    return moved / seconds / 1e6


def _downsize_strategy():
    table = _make_table(0.30)
    target = 0
    size = table.subtables[target].size

    def action():
        table._resizer._pick_downsize_target = lambda: target
        table.downsize()
        return size

    seconds, moved = _measure(table, action)
    table.validate()
    return moved / seconds / 1e6


def _downsize_rehash():
    table = _make_table(0.30)
    st = table.subtables[0]
    codes, values, _ = st.export_entries()

    def action():
        st.rebuild(st.n_buckets // 2, codes[:0], values[:0],
                   np.zeros(0, dtype=np.int64))
        first, second = table.pair_hash.tables_for(codes)
        targets = table._router.choose(codes, first, second,
                                       table.subtable_sizes(),
                                       table.subtable_loads())
        table._insert_pending(codes, values, targets, unhashed(len(codes)),
                              excluded=None)
        return len(codes)

    seconds, moved = _measure(table, action)
    table.validate()
    return moved / seconds / 1e6


def _run_all():
    return {
        ("upsize", "resize strategy"): _upsize_strategy(),
        ("upsize", "rehash (Algorithm 1)"): _upsize_rehash(),
        ("downsize", "resize strategy"): _downsize_strategy(),
        ("downsize", "rehash (Algorithm 1)"): _downsize_rehash(),
    }


def test_fig8_resize_vs_rehash(benchmark):
    results = once(benchmark, _run_all)

    print()
    print(format_table(
        ["scenario", "mechanism", "Mops (entries relocated/s)"],
        [[scenario, mech, mops] for (scenario, mech), mops
         in results.items()],
        title="Figure 8: single-subtable resize throughput"))

    up_ratio = (results[("upsize", "resize strategy")]
                / results[("upsize", "rehash (Algorithm 1)")])
    down_ratio = (results[("downsize", "resize strategy")]
                  / results[("downsize", "rehash (Algorithm 1)")])
    checks = [
        (f"upsize: resize strategy beats rehash ({up_ratio:.1f}x)",
         up_ratio > 2.0),
        (f"downsize: resize strategy beats rehash ({down_ratio:.1f}x)",
         down_ratio > 1.2),
        ("rehash hurts more for upsizing than downsizing "
         "(eviction storms in a full structure)",
         up_ratio > down_ratio),
    ]
    print()
    for label, ok in checks:
        print(shape_check(label, ok))
        assert ok, label
