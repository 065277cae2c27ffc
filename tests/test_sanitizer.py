"""SIMT sanitizer: the six-pass suite — dynamic passes plus audits.

Three layers of coverage:

* unit tests of the :class:`~repro.sanitizer.Sanitizer` state machine —
  lockset pairing, the locking contract, extent/init/sync checks,
  dedup, the null-object gate;
* the seeded intentional-violation fixtures
  (:mod:`repro.sanitizer.fixtures`): each must produce *exactly* its
  expected violation kinds with round/warp/site attribution;
* end-to-end audits: a clean workload on both engines (including
  mid-migration-epoch paths) yields zero violations
  (``run_clean_audit``), and the determinism lint is clean over
  ``src/repro`` while flagging every rule in
  :data:`~repro.sanitizer.fixtures.BAD_KERNEL_SOURCE`.

The static protocol-contract analyzer has its own suite in
``tests/test_contracts.py``.
"""

import pytest

from repro.cli import main
from repro.core.instruments import Instruments
from repro.sanitizer import (ACCESS_KINDS, NULL_SANITIZER,
                             VIOLATION_KINDS, Sanitizer)
from repro.sanitizer.audit import run_clean_audit, run_fixture_suite
from repro.sanitizer.fixtures import (BAD_CONTRACT_SOURCES,
                                      BAD_KERNEL_SOURCE, FIXTURE_PASSES,
                                      FIXTURES, _FixtureTable)
from repro.sanitizer.lint import (is_strict_path, lint_paths,
                                  lint_source)


def kernel(san, name="k", locking=True):
    san.begin_kernel(name, locking=locking)
    san.begin_round(0)
    return san


class TestRacecheckUnit:
    def test_write_write_disjoint_locksets_is_race(self):
        san = kernel(Sanitizer())
        san.record_access(0, "write", "bucket", 7, site="a")
        san.record_access(1, "write", "bucket", 7, site="b")
        san.end_kernel()
        races = [v for v in san.violations if v.kind == "race"]
        assert len(races) == 1
        assert races[0].pass_name == "racecheck"
        assert {races[0].warp, races[0].other_warp} == {0, 1}
        assert races[0].round_index == 0
        assert races[0].address == 7

    def test_common_lock_orders_the_pair(self):
        san = kernel(Sanitizer())
        for warp in (0, 1):
            san.on_lock_acquire(warp, 7)
            san.record_access(warp, "write", "bucket", 7)
            san.on_lock_release(warp, 7)
        san.end_kernel()
        assert san.ok, [str(v) for v in san.violations]

    def test_read_read_never_races(self):
        san = kernel(Sanitizer())
        san.record_access(0, "read", "bucket", 7)
        san.record_access(1, "read", "bucket", 7)
        san.end_kernel()
        assert san.ok

    def test_same_warp_never_races_itself(self):
        san = kernel(Sanitizer())
        san.record_access(0, "write", "bucket", 7)
        san.record_access(0, "read", "bucket", 7)
        san.end_kernel()
        races = [v for v in san.violations if v.kind == "race"]
        assert not races

    def test_different_rounds_are_ordered(self):
        """Round boundaries are the simulator's happens-before edges."""
        san = kernel(Sanitizer())
        san.record_access(0, "write", "bucket", 7)
        san.begin_round(1)
        san.record_access(1, "write", "bucket", 7)
        san.end_kernel()
        races = [v for v in san.violations if v.kind == "race"]
        assert not races

    def test_probe_and_atomic_kinds_exempt_from_pairing(self):
        san = kernel(Sanitizer())
        san.record_access(0, "write", "bucket", 7)
        san.record_access(1, "probe", "bucket", 7)
        san.record_access(2, "atomic", "value", 7)
        san.end_kernel()
        races = [v for v in san.violations if v.kind == "race"]
        assert not races

    def test_race_dedup_one_report_per_word_per_round(self):
        san = kernel(Sanitizer())
        for warp in range(4):
            san.record_access(warp, "write", "bucket", 9)
        san.end_kernel()
        races = [v for v in san.violations if v.kind == "race"]
        assert len(races) == 1

    def test_unlocked_write_under_locking_contract(self):
        san = kernel(Sanitizer(), locking=True)
        san.record_access(3, "write", "bucket", 11, site="ph2")
        [v] = [v for v in san.violations if v.kind == "unlocked-write"]
        assert v.warp == 3 and v.address == 11 and v.site == "ph2"

    def test_lock_free_kernels_exempt_from_unlocked_write(self):
        san = kernel(Sanitizer(), name="delete", locking=False)
        san.record_access(3, "write", "bucket", 11)
        san.end_kernel()
        assert san.ok

    def test_locked_write_is_clean(self):
        san = kernel(Sanitizer())
        san.on_lock_acquire(3, 11)
        san.record_access(3, "write", "bucket", 11)
        san.on_lock_release(3, 11)
        san.end_kernel()
        assert san.ok


class TestLockcheckUnit:
    def test_double_acquire(self):
        san = kernel(Sanitizer())
        san.on_lock_acquire(0, 5)
        san.on_lock_acquire(0, 5)
        [v] = san.violations
        assert v.kind == "double-acquire" and v.warp == 0

    def test_lock_not_exclusive(self):
        san = kernel(Sanitizer())
        san.on_lock_acquire(0, 5)
        san.on_lock_acquire(1, 5)
        [v] = san.violations
        assert v.kind == "lock-not-exclusive"
        assert v.warp == 1 and v.other_warp == 0

    def test_double_release(self):
        san = kernel(Sanitizer())
        san.on_lock_acquire(0, 5)
        san.on_lock_release(0, 5)
        san.on_lock_release(0, 5)
        [v] = san.violations
        assert v.kind == "double-release"

    def test_leaked_lock_at_kernel_exit(self):
        san = kernel(Sanitizer(), name="leaky")
        san.on_lock_acquire(2, 5)
        san.end_kernel()
        [v] = san.violations
        assert v.kind == "leaked-lock" and v.warp == 2
        assert "leaky" in v.message

    def test_unwind_release_accounts_not_violates(self):
        san = kernel(Sanitizer())
        san.on_lock_acquire(0, 5)
        san.on_unwind_release(0, 5)
        san.end_kernel()
        assert san.ok
        assert san.stats["unwind_releases"] == 1

    def test_one_subtable_resize_guarantee(self):
        san = Sanitizer()
        san.on_subtable_lock(0, "upsize")
        san.on_subtable_lock(1, "spill")
        [v] = san.violations
        assert v.kind == "second-subtable-lock"
        san2 = Sanitizer()
        san2.on_subtable_lock(0, "upsize")
        san2.on_subtable_unlock(0)
        san2.on_subtable_lock(1, "downsize")
        san2.on_subtable_unlock(1)
        assert san2.ok
        assert san2.report()["subtable_locks_held"] == 0


def memkernel(san, rows_per_subtable=(8, 8), locking=False):
    """Kernel scope with a fixture table attached for extent checks."""
    table = _FixtureTable(rows_per_subtable)
    san.begin_kernel("k", locking=locking, table=table)
    san.begin_round(0)
    return san, table


class TestMemcheckUnit:
    def test_in_extent_access_is_clean(self):
        san, _ = memkernel(Sanitizer())
        san.record_access(0, "probe", "bucket", (1 << 40) | 7)
        san.end_kernel()
        assert san.ok
        assert san.stats["extent_checks"] == 1

    def test_bucket_beyond_live_rows_is_oob(self):
        san, _ = memkernel(Sanitizer())
        san.record_access(0, "probe", "bucket", (0 << 40) | 8, site="p")
        [v] = san.violations
        assert v.kind == "oob-access" and v.pass_name == "memcheck"
        assert v.site == "p" and v.warp == 0

    def test_subtable_beyond_table_is_oob(self):
        san, _ = memkernel(Sanitizer())
        san.record_access(0, "probe", "bucket", (5 << 40) | 0)
        [v] = san.violations
        assert v.kind == "oob-access"

    def test_retired_epoch_view_is_use_after_retire(self):
        san, table = memkernel(Sanitizer())
        san.on_epoch_retire(table, 1, old_rows=16, new_rows=8)
        san.record_access(0, "probe", "bucket", (1 << 40) | 12)
        [v] = san.violations
        assert v.kind == "use-after-retire"
        assert san.stats["retired_epochs"] == 1

    def test_beyond_the_retired_extent_is_plain_oob(self):
        san, table = memkernel(Sanitizer())
        san.on_epoch_retire(table, 1, old_rows=16, new_rows=8)
        san.record_access(0, "probe", "bucket", (1 << 40) | 40)
        [v] = san.violations
        assert v.kind == "oob-access"

    def test_extent_tracks_live_geometry(self):
        """Growing the attached table legalizes the new rows."""
        san, table = memkernel(Sanitizer())
        import numpy as np
        table.subtables[0].keys = np.zeros((16, 4), dtype=np.uint64)
        san.record_access(0, "probe", "bucket", (0 << 40) | 12)
        san.end_kernel()
        assert san.ok

    def test_stash_overflow_and_alloc_lifetime(self):
        san = Sanitizer()
        san.on_stash_write(2, 8)
        assert san.ok
        san.on_stash_write(9, 8, site="stash.push")
        [v] = san.violations
        assert v.kind == "stash-overflow"
        san2 = Sanitizer()
        san2.begin_alloc_scope()
        san2.on_alloc("scratch", 256)
        san2.end_alloc_scope(site="scope")
        [v2] = san2.violations
        assert v2.kind == "alloc-leak"
        san3 = Sanitizer()
        san3.on_alloc("buf", 64)
        san3.on_free("buf", known=True)
        san3.on_free("buf", known=False)
        [v3] = san3.violations
        assert v3.kind == "double-free"

    def test_memcheck_off_suppresses_extent_violations(self):
        # The word decode still runs for initcheck's sake, but the
        # out-of-bounds report is gated on the memcheck flag.
        san, _ = memkernel(Sanitizer(memcheck=False))
        san.record_access(0, "probe", "bucket", (5 << 40) | 0)
        san.end_kernel()
        assert san.ok
        assert san.stats["extent_checks"] == 1
        # With both word-level passes off, the decode is skipped too.
        san2, _ = memkernel(Sanitizer(memcheck=False, initcheck=False))
        san2.record_access(0, "probe", "bucket", (5 << 40) | 0)
        san2.end_kernel()
        assert san2.ok
        assert san2.stats["extent_checks"] == 0


class TestInitcheckUnit:
    def test_read_of_marked_slot_is_uninit_read(self):
        san, table = memkernel(Sanitizer())
        san.mark_uninitialized(table, 0, [3, 5])
        san.record_access(0, "probe", "bucket", (0 << 40) | 3, site="rd")
        [v] = san.violations
        assert v.kind == "uninit-read" and v.pass_name == "initcheck"
        assert san.stats["init_checks"] > 0

    def test_write_clears_the_mark(self):
        san, table = memkernel(Sanitizer(), locking=True)
        san.mark_uninitialized(table, 0, [5])
        san.on_lock_acquire(0, (0 << 40) | 5)
        san.record_access(0, "write", "bucket", (0 << 40) | 5)
        san.record_access(0, "read", "bucket", (0 << 40) | 5)
        san.on_lock_release(0, (0 << 40) | 5)
        san.end_kernel()
        assert san.ok, [str(v) for v in san.violations]

    def test_epoch_retire_prunes_dead_marks(self):
        san, table = memkernel(Sanitizer(memcheck=False))
        san.mark_uninitialized(table, 1, [2, 12])
        san.on_epoch_retire(table, 1, old_rows=16, new_rows=8)
        san.record_access(0, "probe", "bucket", (1 << 40) | 2)
        [v] = san.violations
        assert v.kind == "uninit-read" and v.address == (1 << 40) | 2


class TestSynccheckUnit:
    def test_inactive_lane_vote_is_divergent_sync(self):
        san = kernel(Sanitizer())
        san.on_vote(2, 0b0111, 0b0011, site="ballot")
        [v] = san.violations
        assert v.kind == "divergent-sync" and v.warp == 2
        assert san.stats["votes_checked"] == 1

    def test_subset_vote_is_clean(self):
        san = kernel(Sanitizer())
        san.on_vote(2, 0b0001, 0b0011)
        san.on_vote(2, 0b0011, 0b0011)
        san.end_kernel()
        assert san.ok
        assert san.stats["votes_checked"] == 2

    def test_live_lanes_at_exit_is_divergent_exit(self):
        san = kernel(Sanitizer())
        san.on_kernel_exit(3, site="tail")
        [v] = san.violations
        assert v.kind == "divergent-exit"
        san.end_kernel()
        assert san.stats["kernel_exits"] == 1

    def test_unmatched_kernel_brackets(self):
        san = Sanitizer()
        san.begin_kernel("outer")
        san.begin_kernel("inner")
        assert [v.kind for v in san.violations] == [
            "unmatched-kernel-bracket"]
        san.end_kernel()
        san.end_kernel()
        [v] = [v for v in san.violations[1:]]
        assert v.kind == "unmatched-kernel-bracket"


class TestSanitizerPlumbing:
    def test_null_sanitizer_is_disabled_and_shared(self):
        assert NULL_SANITIZER.enabled is False
        assert Sanitizer.enabled is True
        from repro.core.config import DyCuckooConfig
        from repro.core.table import DyCuckooTable
        table = DyCuckooTable(DyCuckooConfig(
            initial_buckets=8, bucket_capacity=4, auto_resize=False))
        assert table.sanitizer is NULL_SANITIZER
        san = Sanitizer()
        table.attach(Instruments(sanitizer=san))
        assert table.sanitizer is san
        table.attach(None)
        assert table.sanitizer is NULL_SANITIZER

    def test_sharded_front_end_shares_one_sanitizer(self):
        import numpy as np
        from repro.core.config import DyCuckooConfig
        from repro.shard import ShardedDyCuckoo
        sharded = ShardedDyCuckoo(num_shards=2, config=DyCuckooConfig(
            initial_buckets=32, bucket_capacity=8, auto_resize=False))
        san = Sanitizer()
        sharded.attach(Instruments(sanitizer=san))
        for shard in sharded.shards:
            assert shard.sanitizer is san
        keys = np.arange(1, 257, dtype=np.uint64)
        sharded.execute_mixed(
            np.zeros(len(keys), dtype=np.int8), keys, keys,
            engine="warp")
        assert san.stats["kernels"] > 0
        assert san.ok, [str(v) for v in san.violations]

    def test_report_shape(self):
        san = kernel(Sanitizer())
        san.record_access(0, "write", "bucket", 7)
        san.end_kernel()
        report = san.report()
        assert set(report) == {"ok", "stats", "subtable_locks_held",
                               "violations"}
        assert report["ok"] is san.ok is False
        [v] = report["violations"]
        assert set(v) == {"pass", "kind", "message", "site", "round",
                          "warp", "other_warp", "space", "address"}
        assert v["kind"] in VIOLATION_KINDS[v["pass"]]

    def test_max_violations_caps_the_report(self):
        san = kernel(Sanitizer(max_violations=3))
        for address in range(10):
            san.record_access(0, "write", "bucket", address)
        assert len(san.violations) == 3

    def test_passes_can_be_disabled_independently(self):
        san = kernel(Sanitizer(racecheck=False))
        san.record_access(0, "write", "bucket", 7)
        san.record_access(1, "write", "bucket", 7)
        san.end_kernel()
        assert san.ok  # racecheck off; lockcheck still on
        san = kernel(Sanitizer(lockcheck=False))
        san.on_lock_acquire(0, 5)
        san.on_lock_acquire(0, 5)
        san.end_kernel()
        assert san.ok

    def test_injected_faults_classify_not_violate(self):
        san = kernel(Sanitizer())
        san.note_injected("lock.acquire")
        san.note_injected("lock.stall")
        san.end_kernel()
        assert san.ok
        assert san.stats["injected_events"] == 2

    def test_access_kind_taxonomy_is_closed(self):
        assert set(ACCESS_KINDS) == {"read", "write", "probe", "atomic"}
        assert set(VIOLATION_KINDS) == {
            "racecheck", "lockcheck", "memcheck", "initcheck",
            "synccheck"}
        kinds = [k for ks in VIOLATION_KINDS.values() for k in ks]
        assert len(kinds) == len(set(kinds)), "kind owned by two passes"


class TestSeededFixtures:
    """Each fixture's planted bug must be detected — exactly."""

    @pytest.mark.parametrize("name", sorted(FIXTURES))
    def test_fixture_detected_with_attribution(self, name):
        build, expected_kinds = FIXTURES[name]
        san = build()
        assert {v.kind for v in san.violations} == expected_kinds
        for v in san.violations:
            assert v.site, str(v)
            if v.space in ("bucket", "lock"):
                assert v.round_index >= 0, str(v)
                assert v.warp >= 0, str(v)

    def test_double_release_attributed_to_second_round(self):
        build, _ = FIXTURES["double-release"]
        [v] = build().violations
        assert v.round_index == 1
        assert "LockArbiter.release" in v.site

    def test_race_names_both_warps(self):
        build, _ = FIXTURES["race-read-write"]
        [v] = build().violations
        assert {v.warp, v.other_warp} == {0, 1}
        assert "no common lock" in v.message

    def test_fixture_suite_aggregate(self):
        report = run_fixture_suite()
        assert report["ok"], report
        expected_entries = (set(FIXTURES) | {"determinism-lint"}
                            | {f"contract:{rule}"
                               for rule in BAD_CONTRACT_SOURCES})
        assert set(report["fixtures"]) == expected_entries
        for result in report["fixtures"].values():
            assert result["ok"]
            assert result["detected"] == result["expected"]

    def test_fixture_suite_pass_restriction(self):
        """--memcheck-style selectors run only the owning fixtures."""
        report = run_fixture_suite(passes={"memcheck"})
        assert report["ok"], report
        expected = {name for name, owners in FIXTURE_PASSES.items()
                    if "memcheck" in owners}
        assert set(report["fixtures"]) == expected
        assert "divergent-sync" not in report["fixtures"]

    def test_every_fixture_maps_to_its_owning_passes(self):
        assert set(FIXTURE_PASSES) == set(FIXTURES)
        for name, (_, expected_kinds) in FIXTURES.items():
            owners = FIXTURE_PASSES[name]
            assert owners, name
            for kind in expected_kinds:
                assert any(kind in VIOLATION_KINDS[p] for p in owners)


class TestDeterminismLint:
    def test_bad_kernel_source_trips_every_rule(self):
        findings = lint_source(BAD_KERNEL_SOURCE,
                               path="repro/gpusim/bad.py")
        got = [(f.line, f.rule) for f in findings]
        assert got == [
            (8, "unseeded-rng"),
            (9, "wall-clock"),
            (12, "set-iteration"),
            (16, "bare-except"),
            (17, "unseeded-rng"),
        ]
        assert {f.rule for f in findings} == {
            "unseeded-rng", "wall-clock", "set-iteration", "bare-except"}

    def test_non_strict_scope_relaxes_clock_and_sets(self):
        findings = lint_source(BAD_KERNEL_SOURCE,
                               path="repro/bench/tool.py")
        rules = {f.rule for f in findings}
        assert "wall-clock" not in rules
        assert "set-iteration" not in rules
        assert "unseeded-rng" in rules
        assert "bare-except" in rules

    def test_strict_path_classification(self):
        assert is_strict_path("src/repro/gpusim/kernel.py")
        assert is_strict_path("src/repro/kernels/insert.py")
        assert is_strict_path("/abs/src/repro/core/table.py")
        assert is_strict_path("src/repro/shard/executor.py")
        assert is_strict_path("src/repro/scenarios/runner.py")
        assert not is_strict_path("src/repro/cli.py")
        assert not is_strict_path("src/repro/telemetry/export.py")
        assert not is_strict_path("tests/test_sanitizer.py")

    def test_suppression_marker_silences_one_rule(self):
        source = ("import numpy as np\n"
                  "rng = np.random.default_rng()"
                  "  # sanitize: allow(unseeded-rng)\n")
        assert lint_source(source, strict=True) == []
        unsuppressed = ("import numpy as np\n"
                        "rng = np.random.default_rng()\n")
        [f] = lint_source(unsuppressed, strict=True)
        assert f.rule == "unseeded-rng" and f.line == 2

    def test_seeded_generator_methods_not_flagged(self):
        source = ("import numpy as np\n"
                  "rng = np.random.default_rng(7)\n"
                  "order = rng.permutation(8)\n")
        assert lint_source(source, strict=True) == []

    def test_syntax_error_becomes_parse_error_finding(self):
        [f] = lint_source("def broken(:\n", path="x.py")
        assert f.rule == "parse-error"

    def test_finding_str_format(self):
        [f] = lint_source("try:\n    pass\nexcept:\n    pass\n",
                          path="m.py", strict=False)
        assert str(f).startswith("m.py:3: [bare-except]")

    def test_src_repro_is_lint_clean(self):
        findings = lint_paths()
        assert findings == [], "\n".join(str(f) for f in findings)


class TestAudits:
    def test_clean_audit_zero_violations_both_engines(self):
        report = run_clean_audit(ops=128, seed=0)
        assert report["ok"], report
        assert report["injected_events"] > 0
        assert {"kernels[warp]", "kernels[cohort]", "resize",
                "faults"} <= set(report["phases"])
        for phase in report["phases"].values():
            assert phase["ok"] and not phase["violations"]
            assert phase["subtable_locks_held"] == 0

    def test_engines_see_identical_access_streams(self):
        """Conformance dividend: both engines log identical counts."""
        report = run_clean_audit(ops=128, seed=3,
                                 engines=("warp", "cohort"))
        sw = report["phases"]["kernels[warp]"]["stats"]
        sc = report["phases"]["kernels[cohort]"]["stats"]
        for key in ("accesses", "words_checked", "lock_acquires",
                    "lock_releases", "rounds", "kernels"):
            assert sw[key] == sc[key], key

    def test_cli_fixture_and_lint_phases(self, capsys):
        assert main(["sanitize", "--fixtures"]) == 0
        assert main(["sanitize", "--lint"]) == 0
        out = capsys.readouterr().out
        assert "seeded violations detected" in out
        assert "determinism lint" in out
