"""Self-contained audit drives for ``python -m repro sanitize``.

:func:`run_clean_audit` executes a representative correct workload —
insert/find/delete kernels on *both* execution engines, a resize storm
through the core table path, and a fault-injection phase — under an
attached :class:`~repro.sanitizer.Sanitizer`, and returns the combined
report.  A healthy tree produces **zero** violations: every bucket
write is lock-ordered, every lock pairs, every resize locks exactly one
subtable, and every injected fault is classified as intentional.

:func:`run_fixture_suite` runs the seeded intentional-violation
fixtures (:mod:`repro.sanitizer.fixtures`) across all six passes —
the dynamic builders plus the static determinism-lint and
protocol-contract snippets — and checks each produces exactly its
expected violation set: a sanitizer that cannot see a planted bug
proves nothing by staying silent on real code.
"""

from __future__ import annotations

import numpy as np

from repro.core.instruments import Instruments
from repro.sanitizer import Sanitizer
from repro.sanitizer.fixtures import (BAD_CONTRACT_SOURCES,
                                      BAD_KERNEL_SOURCE, FIXTURE_PASSES,
                                      FIXTURES)

#: Determinism-lint rules :data:`BAD_KERNEL_SOURCE` is built to trip.
_LINT_EXPECTED = frozenset(
    {"unseeded-rng", "wall-clock", "set-iteration", "bare-except"})

_PASS_FLAGS = ("racecheck", "lockcheck", "memcheck", "initcheck",
               "synccheck")


def _new_sanitizer(passes: set | None = None) -> Sanitizer:
    """A sanitizer restricted to ``passes`` (None = every pass)."""
    if passes is None:
        return Sanitizer()
    return Sanitizer(**{flag: flag in passes for flag in _PASS_FLAGS})


def _keys(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    drawn = np.unique(rng.integers(1, 1 << 62, int(n * 1.3) + 16,
                                   dtype=np.int64).astype(np.uint64))
    while len(drawn) < n:
        more = rng.integers(1, 1 << 62, n, dtype=np.int64)
        drawn = np.unique(np.concatenate([drawn,
                                          more.astype(np.uint64)]))
    return drawn[:n]


def _audit_kernels(engine: str, ops: int, seed: int,
                   passes: set | None = None) -> Sanitizer:
    """Insert/find/delete kernel workload on one engine, audited."""
    from repro.core.config import DyCuckooConfig
    from repro.core.table import DyCuckooTable
    from repro.kernels import (run_delete_kernel, run_find_kernel,
                               run_spin_insert_kernel,
                               run_voter_insert_kernel)

    table = DyCuckooTable(DyCuckooConfig(
        initial_buckets=64, bucket_capacity=8, auto_resize=False,
        seed=seed))
    san = _new_sanitizer(passes)
    table.attach(Instruments(sanitizer=san))
    keys = _keys(ops, seed + 1)
    values = keys * np.uint64(3)
    run_voter_insert_kernel(table, keys, values, engine=engine)
    # Upserts + alternate-bucket updates (the lock-free value path).
    run_voter_insert_kernel(table, keys[::2], values[::2] + np.uint64(1),
                            engine=engine)
    run_find_kernel(table, keys, engine=engine)
    run_delete_kernel(table, keys[::3], engine=engine)
    # The spin ablation holds locks across failed rounds — the hottest
    # pairing path the lockcheck pass sees.
    fresh = _keys(ops // 4, seed + 2)
    run_spin_insert_kernel(table, fresh, fresh, engine=engine)
    return san


def _audit_migration_epoch(engine: str, ops: int, seed: int,
                           passes: set | None = None) -> Sanitizer:
    """Kernels against open migration epochs: the dual-view path.

    Opens an upsize epoch, runs every kernel while it is only partially
    drained, finalizes, then does the same through a downsize epoch —
    whose finalize *retires* the source view (``retired_epochs`` ticks)
    — and probes again afterwards.  A healthy tree stays inside the
    live extents throughout: zero violations.
    """
    from repro.core.config import DyCuckooConfig
    from repro.core.table import DyCuckooTable
    from repro.kernels import (run_delete_kernel, run_find_kernel,
                               run_voter_insert_kernel)

    table = DyCuckooTable(DyCuckooConfig(
        initial_buckets=16, bucket_capacity=8, min_buckets=8,
        auto_resize=False, seed=seed))
    san = _new_sanitizer(passes)
    table.attach(Instruments(sanitizer=san))
    keys = _keys(max(ops // 4, 64), seed + 6)
    values = keys * np.uint64(5)
    half = len(keys) // 2
    run_voter_insert_kernel(table, keys[:half], values[:half],
                            engine=engine)
    resizer = table._resizer
    resizer.open_upsize_epoch()
    # Mid-epoch: inserts, finds and deletes all address the dual view.
    run_voter_insert_kernel(table, keys[half:], values[half:],
                            engine=engine)
    run_find_kernel(table, keys, engine=engine)
    resizer.drain_migration(max_pairs=8)  # partial slice; stays open
    run_delete_kernel(table, keys[::3], engine=engine)
    resizer.finalize_migration()
    # Downsize epoch: finalize truncates the physical rows (the retire
    # point); post-retire probes must stay within the live extent.
    resizer.open_downsize_epoch()
    run_find_kernel(table, keys, engine=engine)
    resizer.finalize_migration()
    run_find_kernel(table, keys, engine=engine)
    return san


def _audit_memory(seed: int, passes: set | None = None) -> Sanitizer:
    """Allocation-lifetime audit through the device memory manager."""
    from repro.gpusim.memory_manager import DeviceMemoryManager

    san = _new_sanitizer(passes)
    manager = DeviceMemoryManager(sanitizer=san)
    san.begin_alloc_scope()
    manager.set_allocation("hash_table", (512 << 20) + seed)
    manager.set_allocation("scratch", 1 << 20)
    manager.set_allocation("scratch", 1 << 21)  # grow in place
    manager.free("scratch")
    manager.free("hash_table")
    san.end_alloc_scope()
    return san


def _audit_stash(seed: int, passes: set | None = None) -> Sanitizer:
    """Stash occupancy audit: capacity-bounded pushes stay silent."""
    from repro.core.stash import Stash

    san = _new_sanitizer(passes)
    stash = Stash(capacity=8)
    stash.sanitizer = san
    codes = np.arange(1, 9, dtype=np.uint64) + np.uint64(seed)
    stash.push(codes, codes)
    stash.push(codes[:4], codes[:4] + np.uint64(1))  # in-place updates
    # A push past capacity is *rejected* (not absorbed) — the bound
    # holds, so memcheck stays silent.
    stash.push(codes + np.uint64(100), codes)
    stash.erase(codes[:4])
    stash.push(codes[:2] + np.uint64(200), codes[:2])
    return san


def _audit_resize(ops: int, seed: int,
                  passes: set | None = None) -> Sanitizer:
    """Resize storm through the core table path, audited."""
    from repro.core.config import DyCuckooConfig
    from repro.core.table import DyCuckooTable

    table = DyCuckooTable(DyCuckooConfig(
        initial_buckets=16, bucket_capacity=8, min_buckets=8,
        seed=seed))
    san = _new_sanitizer(passes)
    table.attach(Instruments(sanitizer=san))
    keys = _keys(ops, seed + 3)
    # Grow through repeated upsizes, then shrink through downsizes
    # (residual spills included) — every resize brackets its one
    # subtable lock.
    table.insert(keys, keys)
    table.delete(keys[: (len(keys) * 9) // 10])
    table.insert(keys[:ops // 4], keys[:ops // 4])
    return san


def _audit_faults(ops: int, seed: int,
                  passes: set | None = None) -> Sanitizer:
    """Fault-injection phase: injected events classify, never violate."""
    from repro.core.config import DyCuckooConfig
    from repro.core.table import DyCuckooTable
    from repro.errors import ResizeError
    from repro.faults import FaultPlan
    from repro.kernels import run_voter_insert_kernel

    table = DyCuckooTable(DyCuckooConfig(
        initial_buckets=64, bucket_capacity=8, auto_resize=False,
        seed=seed))
    san = _new_sanitizer(passes)
    table.attach(Instruments(sanitizer=san, faults=FaultPlan(
        seed=seed, rates={"lock.acquire": 0.05, "lock.stall": 0.02})))
    keys = _keys(ops, seed + 4)
    run_voter_insert_kernel(table, keys, keys)

    # Resize aborts at every stage must release the subtable lock on
    # the way out: trigger/plan/rehash roll back, and a spill abort
    # parks the residuals in the stash.
    for stage in ("trigger", "plan", "rehash", "spill"):
        rtable = DyCuckooTable(DyCuckooConfig(
            initial_buckets=16, bucket_capacity=8, min_buckets=8,
            seed=seed))
        rtable.attach(Instruments(sanitizer=san))
        rkeys = _keys(ops // 2, seed + 5)
        rtable.insert(rkeys, rkeys)
        rtable.attach(Instruments(sanitizer=san, faults=FaultPlan(
            seed=seed, rates={f"resize.abort.{stage}": 1.0})))
        try:
            rtable._resizer.downsize()
        except ResizeError:
            pass
        rtable.attach(Instruments(sanitizer=san))
    return san


def run_clean_audit(ops: int = 512, seed: int = 0,
                    engines: tuple = ("warp", "cohort"),
                    passes: set | None = None) -> dict:
    """Audit a correct workload end to end; returns a combined report.

    ``report["ok"]`` is True iff no pass flagged anything across any
    phase.  Phases: per-engine kernel workloads, per-engine
    mid-migration-epoch workloads (kernels against a partially drained
    dual view, through the downsize retire point), a resize storm, a
    device-allocation lifetime audit, a stash occupancy audit, and a
    fault-injection phase whose injected events must classify as
    intentional (``stats["injected_events"] > 0``, zero violations).
    """
    phases: dict[str, dict] = {}
    for engine in engines:
        phases[f"kernels[{engine}]"] = _audit_kernels(
            engine, ops, seed, passes).report()
        phases[f"migration-epoch[{engine}]"] = _audit_migration_epoch(
            engine, ops, seed, passes).report()
    phases["resize"] = _audit_resize(ops, seed, passes).report()
    phases["memory"] = _audit_memory(seed, passes).report()
    phases["stash"] = _audit_stash(seed, passes).report()
    faults = _audit_faults(ops, seed, passes)
    phases["faults"] = faults.report()
    ok = all(p["ok"] and p["subtable_locks_held"] == 0
             for p in phases.values())
    return {
        "ok": ok,
        "injected_events": faults.stats["injected_events"],
        "phases": phases,
    }


def run_fixture_suite(passes: set | None = None) -> dict:
    """Run every seeded-violation fixture; returns per-fixture results.

    Covers all six passes: the dynamic builders (racecheck, lockcheck,
    memcheck, initcheck, synccheck) plus the static determinism-lint
    and protocol-contract snippets.  ``passes`` (names among
    ``racecheck``/``lockcheck``/``memcheck``/``initcheck``/
    ``synccheck``/``lint``/``contracts``) subsets the suite; None runs
    everything.  ``report["ok"]`` is True iff every selected fixture
    produced exactly its expected violation set and every dynamic
    violation carries round/warp attribution.
    """
    from repro.sanitizer.contracts import check_source
    from repro.sanitizer.lint import lint_source

    def selected(fixture_passes: frozenset | set) -> bool:
        return passes is None or bool(passes & set(fixture_passes))

    results: dict[str, dict] = {}
    ok = True
    for name, (build, expected_kinds) in FIXTURES.items():
        if not selected(FIXTURE_PASSES[name]):
            continue
        san = build()
        got_kinds = {v.kind for v in san.violations}
        attributed = all(
            v.round_index >= 0 and v.warp >= 0
            for v in san.violations
            if v.space in ("bucket", "lock"))
        passed = got_kinds == expected_kinds and attributed
        ok = ok and passed
        results[name] = {
            "ok": passed,
            "expected": sorted(expected_kinds),
            "detected": sorted(got_kinds),
            "violations": [v.to_dict() for v in san.violations],
        }
    if selected({"lint"}):
        findings = lint_source(BAD_KERNEL_SOURCE,
                               path="<fixture:lint>", strict=True)
        got_rules = {f.rule for f in findings}
        passed = got_rules == set(_LINT_EXPECTED)
        ok = ok and passed
        results["determinism-lint"] = {
            "ok": passed,
            "expected": sorted(_LINT_EXPECTED),
            "detected": sorted(got_rules),
            "violations": [str(f) for f in findings],
        }
    if selected({"contracts"}):
        for rule, source in BAD_CONTRACT_SOURCES.items():
            findings = check_source(source, path=f"<fixture:{rule}>")
            got_rules = {f.rule for f in findings}
            passed = got_rules == {rule}
            ok = ok and passed
            results[f"contract:{rule}"] = {
                "ok": passed,
                "expected": [rule],
                "detected": sorted(got_rules),
                "violations": [str(f) for f in findings],
            }
    return {"ok": ok, "fixtures": results}
