"""Static protocol-contract analyzer (the sanitizer's sixth pass).

The dynamic passes only see code that executes; ``contracts.check_source``
proves the lock-release, kernel-bracket, and guarded-write obligations
on *all* paths of the AST.  Coverage here:

* each seeded bad source in ``BAD_CONTRACT_SOURCES`` trips exactly its
  rule, and the repaired variants are clean;
* the exception-safety idioms the real kernels use (release in
  ``finally``, release in an unwind method, except+straight-line
  ``end_kernel`` pairing) are recognized as safe;
* scope classification and the ``# sanitize: allow(...)`` suppression
  audit trail;
* the real source tree is contract-clean, pinned in CI via
  ``repro sanitize --contracts``.
"""

import pytest

from repro.sanitizer.contracts import (RULES, check_paths, check_source,
                                       contract_scope_paths,
                                       in_contract_scope, in_write_scope)
from repro.sanitizer.fixtures import BAD_CONTRACT_SOURCES


class TestSeededBadSources:
    @pytest.mark.parametrize("rule", sorted(BAD_CONTRACT_SOURCES))
    def test_bad_source_trips_exactly_its_rule(self, rule):
        findings = check_source(BAD_CONTRACT_SOURCES[rule],
                                path=f"<fixture:{rule}>")
        assert {f.rule for f in findings} == {rule}
        for f in findings:
            assert f.line > 0
            assert f.message

    def test_rules_and_fixtures_cover_each_other(self):
        assert set(BAD_CONTRACT_SOURCES) == set(RULES)


class TestUnreleasedLockPath:
    def test_release_in_finally_is_safe(self):
        source = (
            "class CarefulWarp:\n"
            "    def step(self):\n"
            "        if not self.arbiter.try_acquire(self.lock_id):\n"
            "            return\n"
            "        try:\n"
            "            self.write_slot()\n"
            "        finally:\n"
            "            self.arbiter.release(self.lock_id)\n")
        assert check_source(source, path="<t>") == []

    def test_release_in_unwind_method_is_safe(self):
        source = (
            "class UnwindingWarp:\n"
            "    def step(self):\n"
            "        self.arbiter.try_acquire(self.lock_id)\n"
            "    def unwind_locks(self):\n"
            "        self.arbiter.release(self.lock_id)\n")
        assert check_source(source, path="<t>") == []

    def test_arbiter_classes_are_exempt(self):
        source = (
            "class LockArbiter:\n"
            "    def try_acquire(self, lock_id, warp):\n"
            "        return self._cas(lock_id, warp)\n"
            "    def release(self, lock_id, warp):\n"
            "        self._clear(lock_id)\n")
        assert check_source(source, path="<t>") == []

    def test_module_level_function_checked_alone(self):
        source = (
            "def grab(arbiter, lock_id):\n"
            "    arbiter.try_acquire(lock_id)\n"
            "    arbiter.release(lock_id)\n")
        [f] = check_source(source, path="<t>")
        assert f.rule == "unreleased-lock-path"

    def test_subtable_lock_needs_finally_unlock(self):
        leaky = (
            "def resize(san, target):\n"
            "    san.on_subtable_lock(target, 'upsize')\n"
            "    migrate()\n"
            "    san.on_subtable_unlock(target)\n")
        [f] = check_source(leaky, path="<t>")
        assert f.rule == "unreleased-lock-path"
        assert "subtable" in f.message
        safe = (
            "def resize(san, target):\n"
            "    san.on_subtable_lock(target, 'upsize')\n"
            "    try:\n"
            "        migrate()\n"
            "    finally:\n"
            "        san.on_subtable_unlock(target)\n")
        assert check_source(safe, path="<t>") == []


class TestKernelBrackets:
    def test_end_in_finally_is_safe(self):
        source = (
            "def run(table, san):\n"
            "    san.begin_kernel('k')\n"
            "    try:\n"
            "        rounds(table)\n"
            "    finally:\n"
            "        san.end_kernel()\n")
        assert check_source(source, path="<t>") == []

    def test_except_plus_straight_line_pairing_is_safe(self):
        source = (
            "def run(table, san):\n"
            "    san.begin_kernel('k')\n"
            "    try:\n"
            "        rounds(table)\n"
            "    except Exception:\n"
            "        san.end_kernel()\n"
            "        raise\n"
            "    san.end_kernel()\n")
        assert check_source(source, path="<t>") == []

    def test_missing_end_is_flagged(self):
        source = (
            "def run(table, san):\n"
            "    san.begin_kernel('k')\n"
            "    rounds(table)\n")
        [f] = check_source(source, path="<t>")
        assert f.rule == "unpaired-kernel-bracket"
        assert "no end_kernel()" in f.message

    def test_receivers_do_not_cross_pair(self):
        source = (
            "def run(a, b):\n"
            "    a.begin_kernel('k')\n"
            "    try:\n"
            "        pass\n"
            "    finally:\n"
            "        b.end_kernel()\n")
        [f] = check_source(source, path="<t>")
        assert f.rule == "unpaired-kernel-bracket"


class TestStructuralWrites:
    def test_guarded_write_is_clean(self):
        source = (
            "def commit(st, san, bucket, slot, key):\n"
            "    san.record_access(0, 'write', 'bucket', bucket)\n"
            "    st.keys[bucket, slot] = key\n")
        assert check_source(source, path="<t>") == []

    def test_self_keys_lane_registers_exempt(self):
        source = (
            "class Warp:\n"
            "    def load(self, lane, key):\n"
            "        self.keys[lane] = key\n")
        assert check_source(source, path="<t>") == []

    def test_rule_scoped_out_of_resize_copy_over(self):
        source = (
            "def copy_over(st, rows):\n"
            "    st.keys[rows:, :] = 0\n")
        assert check_source(source, path="src/repro/core/resize.py") == []
        [f] = check_source(source, path="src/repro/kernels/insert.py")
        assert f.rule == "unguarded-structural-write"

    def test_arena_write_without_access_stream_flagged(self):
        source = (
            "def commit(arena, rows, slots, keys):\n"
            "    arena.keys[rows, slots] = keys\n")
        [f] = check_source(source, path="src/repro/gpusim/cohort.py")
        assert f.rule == "unguarded-structural-write"

    def test_suppression_marker_is_the_audit_trail(self):
        source = (
            "def copy(st, rows):\n"
            "    st.keys[rows, :] = 0"
            "  # sanitize: allow(unguarded-structural-write)\n")
        assert check_source(source, path="<t>") == []


class TestScopeAndRealTree:
    def test_scope_classification(self):
        assert in_contract_scope("src/repro/kernels/insert.py")
        assert in_contract_scope("src/repro/gpusim/cohort.py")
        assert in_contract_scope("src/repro/core/resize.py")
        assert not in_contract_scope("src/repro/core/table.py")
        assert not in_contract_scope("src/repro/cli.py")
        assert in_write_scope("src/repro/kernels/insert.py")
        assert not in_write_scope("src/repro/core/resize.py")

    def test_scope_covers_kernels_engines_and_resize(self):
        paths = contract_scope_paths()
        assert paths
        tails = {p.replace("\\", "/").rsplit("repro/", 1)[-1]
                 for p in paths}
        assert "core/resize.py" in tails
        assert any(t.startswith("kernels/") for t in tails)
        assert any(t.startswith("gpusim/") for t in tails)

    def test_real_tree_is_contract_clean(self):
        findings = check_paths()
        assert findings == [], "\n".join(str(f) for f in findings)

    def test_syntax_error_becomes_parse_error(self):
        [f] = check_source("def broken(:\n", path="<t>")
        assert f.rule == "parse-error"

    def test_cli_contracts_selector(self, capsys):
        from repro.cli import main
        assert main(["sanitize", "--contracts"]) == 0
        assert "protocol contracts" in capsys.readouterr().out
