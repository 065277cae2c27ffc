"""NULL_SANITIZER zero-overhead pin across migration-epoch paths.

The sanitizer hooks thread through the hottest code in the tree — the
kernels' access loops, the resize controller's epoch machinery, the
stash, and the memory manager.  The null-object contract is that a
table whose sanitizer is ``NULL_SANITIZER`` (the default) is
*bit-identical* to one that never heard of sanitization, and that an
*enabled* sanitizer observes without perturbing.  The sharpest place to
pin that is the mid-migration-epoch path: kernels running against a
partially-drained dual view, then across a downsize finalize (the
``use-after-retire`` retire point) — on both engines.
"""

import numpy as np
import pytest

from repro.core.config import DyCuckooConfig
from repro.core.instruments import Instruments
from repro.core.table import DyCuckooTable
from repro.kernels import (run_delete_kernel, run_find_kernel,
                           run_voter_insert_kernel)
from repro.sanitizer import NULL_SANITIZER, Sanitizer

ENGINES = ("warp", "cohort")


def _keys(count, seed):
    rng = np.random.default_rng(seed)
    keys = rng.choice(np.arange(1, count * 8, dtype=np.uint64),
                      size=count, replace=False)
    return keys.astype(np.uint64)


def _epoch_workload(table, engine, seed):
    """Insert/find/delete across an open upsize epoch, a partial drain,
    and a finalized downsize epoch (the retire point)."""
    keys = _keys(96, seed)
    values = keys * np.uint64(3)
    half = len(keys) // 2
    results = []
    run_voter_insert_kernel(table, keys[:half], values[:half],
                            engine=engine)
    resizer = table._resizer
    resizer.open_upsize_epoch()
    run_voter_insert_kernel(table, keys[half:], values[half:],
                            engine=engine)
    results.append(run_find_kernel(table, keys, engine=engine))
    resizer.drain_migration(max_pairs=8)  # stays open: dual view
    results.append(run_delete_kernel(table, keys[::3], engine=engine))
    resizer.finalize_migration()
    resizer.open_downsize_epoch()
    results.append(run_find_kernel(table, keys, engine=engine))
    resizer.finalize_migration()  # retires the source view
    results.append(run_find_kernel(table, keys, engine=engine))
    return results


def _fresh_table(seed):
    return DyCuckooTable(DyCuckooConfig(
        initial_buckets=16, bucket_capacity=8, min_buckets=8,
        auto_resize=False, seed=seed))


def _flatten(results):
    out = []
    for result in results:
        if isinstance(result, tuple):
            out.extend(result)
        else:
            out.append(result)
    return out


class TestNullSanitizerBitIdentity:
    """The default NULL_SANITIZER must be invisible on epoch paths."""

    @pytest.mark.parametrize("engine", ENGINES)
    def test_null_matches_untouched_table(self, engine):
        plain = _fresh_table(seed=11)
        assert plain.sanitizer is NULL_SANITIZER
        results_plain = _epoch_workload(plain, engine, seed=11)

        nulled = _fresh_table(seed=11)
        nulled.attach(Instruments(sanitizer=Sanitizer()))
        nulled.attach(None)  # back to the shared null object
        assert nulled.sanitizer is NULL_SANITIZER
        results_nulled = _epoch_workload(nulled, engine, seed=11)

        for a, b in zip(_flatten(results_plain), _flatten(results_nulled)):
            assert np.array_equal(a, b)
        assert plain.to_dict() == nulled.to_dict()
        assert plain.stats.snapshot() == nulled.stats.snapshot()

    @pytest.mark.parametrize("engine", ENGINES)
    def test_enabled_sanitizer_observes_without_perturbing(self, engine):
        plain = _fresh_table(seed=13)
        results_plain = _epoch_workload(plain, engine, seed=13)

        watched = _fresh_table(seed=13)
        san = Sanitizer()
        watched.attach(Instruments(sanitizer=san))
        results_watched = _epoch_workload(watched, engine, seed=13)

        for a, b in zip(_flatten(results_plain),
                        _flatten(results_watched)):
            assert np.array_equal(a, b)
        assert plain.to_dict() == watched.to_dict()
        assert plain.stats.snapshot() == watched.stats.snapshot()
        # The observer really ran: epoch retire + extent checks ticked,
        # and the clean workload stayed clean.
        assert san.ok, [str(v) for v in san.violations]
        assert san.stats["extent_checks"] > 0
        assert san.stats["retired_epochs"] == 1

    def test_engines_bit_identical_under_null_sanitizer(self):
        snapshots = {}
        for engine in ENGINES:
            table = _fresh_table(seed=17)
            _epoch_workload(table, engine, seed=17)
            snapshots[engine] = table.to_dict()
        assert snapshots["warp"] == snapshots["cohort"]

    def test_sanitizer_stats_conform_across_engines(self):
        stats = {}
        for engine in ENGINES:
            table = _fresh_table(seed=19)
            san = Sanitizer()
            table.attach(Instruments(sanitizer=san))
            _epoch_workload(table, engine, seed=19)
            assert san.ok, [str(v) for v in san.violations]
            stats[engine] = dict(san.stats)
        assert stats["warp"] == stats["cohort"]

    def test_null_sanitizer_all_passes_disabled(self):
        assert NULL_SANITIZER.enabled is False
        for flag in ("racecheck", "lockcheck", "memcheck", "initcheck",
                     "synccheck"):
            assert getattr(NULL_SANITIZER, flag) is False, flag

    def test_sanitizer_survives_the_pool_pickle_round_trip(self):
        """The process-pool shard executor ships tables by pickle; the
        default sanitizer must come back as the *same* singleton (the
        `is NULL_SANITIZER` gate) and an enabled one must come back
        functional with its per-table weak maps rebuilt."""
        import pickle

        assert pickle.loads(pickle.dumps(NULL_SANITIZER)) is NULL_SANITIZER
        table = _fresh_table(seed=23)
        clone = pickle.loads(pickle.dumps(table))
        assert clone.sanitizer is NULL_SANITIZER
        san = pickle.loads(pickle.dumps(Sanitizer()))
        assert san.enabled and san.ok
        san.on_epoch_retire(table, 0, old_rows=16, new_rows=8)
        assert san.stats["retired_epochs"] == 1
