"""Execute one scenario spec end-to-end and grade it.

The runner interprets a :class:`~repro.scenarios.spec.ScenarioSpec`:
builds the table (sharded or not) with the scenario's resize band,
attaches the requested layers (fault plan, sanitizer, flight recorder,
memory-budget policy), streams the YCSB mix with storm and churn
batches interleaved, prices every batch on the simulated cost model,
runs ``check_invariants`` after every batch, and emits one scorecard
dict (see :mod:`repro.scenarios.scorecard`).

Timing uses the same convention as :mod:`repro.bench.runner`: a batch's
simulated seconds are the cost model's price for its event-counter
delta.  The latency SLO is graded on run and storm batches only —
load and churn waves are bulk maintenance, not request traffic.

With ``differential=True`` the runner mirrors every operation (and
every budget eviction) into a plain dict and asserts agreement after
every batch — the :class:`repro.oracle.DictModel` the differential
fuzz tests use, which makes the scaled-down tier-1 variants a
correctness harness, not just a smoke test.
"""

from __future__ import annotations

import math

import numpy as np

from repro.baselines.dycuckoo_adapter import DyCuckooAdapter
from repro.core.analysis import check_invariants
from repro.core.instruments import Instruments
from repro.core.memory_budget import MemoryBudget
from repro.core.table import DyCuckooTable
from repro.errors import ReproError
from repro.faults import NO_FAULTS, FaultPlan
from repro.gpusim.metrics import CostModel
from repro.oracle import DictModel
from repro.sanitizer import NULL_SANITIZER, Sanitizer
from repro.scenarios.scorecard import SCHEMA, write_scorecard
from repro.scenarios.spec import ScenarioSpec
from repro.shard import ShardedDyCuckoo
from repro.telemetry import FlightRecorder
from repro.telemetry.latency import summarize
from repro.workloads.batches import Operation
from repro.workloads.skew import zipf_keys
from repro.workloads.ycsb import CORE_WORKLOADS, YcsbWorkload

_COSTS = DyCuckooAdapter.KERNEL_COSTS
_PER_KIND_NS = {"insert": _COSTS.insert_ns, "find": _COSTS.find_ns,
                "delete": _COSTS.delete_ns}


def _tables_of(table) -> list[DyCuckooTable]:
    if isinstance(table, ShardedDyCuckoo):
        return list(table.shards)
    return [table]


def _build_table(spec: ScenarioSpec):
    config = spec.config()
    if spec.shards > 1:
        return ShardedDyCuckoo(spec.shards, config=config)
    return DyCuckooTable(config)


def _compute_ns(operations) -> float:
    total = sum(len(op) for op in operations)
    if total == 0:
        return _COSTS.find_ns
    weighted = sum(len(op) * _PER_KIND_NS[op.kind] for op in operations)
    return weighted / total


def _apply(table, op: Operation, model: DictModel | None) -> None:
    """Run ``op``; with a model attached, raise on any lane divergence."""
    if model is not None:
        _raise_divergence(model.apply(table, op.kind, op.keys, op.values))
    elif op.kind == "insert":
        table.insert(op.keys, op.values)
    else:
        getattr(table, op.kind)(op.keys)


def _raise_divergence(problems: list[str]) -> None:
    if problems:
        raise AssertionError("; ".join(problems[:3]))


def _iter_batches(spec: ScenarioSpec, workload: YcsbWorkload):
    """Yield ``(kind, operations)`` for the whole scenario.

    ``load`` batches chunk the bulk load; ``run`` batches come from the
    YCSB run phase; ``storm`` and ``churn`` batches interleave per the
    spec's cadences.
    """
    load = workload.load_phase()
    record_keys = load.keys.copy()
    for start in range(0, len(load.keys), spec.batch_size):
        stop = start + spec.batch_size
        yield "load", [Operation("insert", load.keys[start:stop],
                                 load.values[start:stop])]

    storm_stream = None
    storm_values_rng = None
    if spec.storm is not None:
        n_batches = math.ceil(spec.num_operations / spec.batch_size)
        n_storms = n_batches // spec.storm.every + 1
        # One stream, sliced per storm: the hot set is fixed (one key
        # space for the whole scenario) while draws vary per storm.
        storm_stream = zipf_keys(spec.storm.ops * n_storms,
                                 spec.storm.num_hot,
                                 exponent=spec.storm.exponent,
                                 seed=spec.seed ^ 0x570B)
        storm_values_rng = np.random.default_rng(spec.seed ^ 0x57F)

    churn_rng = np.random.default_rng(spec.seed ^ 0xC4B2)
    churn_held: np.ndarray | None = None
    storm_index = 0
    for index, batch in enumerate(workload.run_phase(), start=1):
        yield "run", list(batch.operations)

        if spec.storm is not None and index % spec.storm.every == 0:
            lo = storm_index * spec.storm.ops
            keys = storm_stream[lo:lo + spec.storm.ops]
            storm_index += 1
            half = len(keys) // 2
            ops = []
            if half:
                ops.append(Operation(
                    "insert", keys[:half],
                    storm_values_rng.integers(
                        1, 1 << 62, half).astype(np.uint64)))
            if len(keys) > half:
                ops.append(Operation("find", keys[half:]))
            yield "storm", ops

        if spec.churn is not None and index % spec.churn.every == 0:
            if churn_held is None:
                count = max(1, int(len(record_keys)
                                   * spec.churn.fraction))
                picks = churn_rng.choice(len(record_keys), size=count,
                                         replace=False)
                churn_held = np.sort(record_keys[np.sort(picks)])
                yield "churn", [Operation("delete", churn_held)]
            else:
                values = churn_rng.integers(
                    1, 1 << 62, len(churn_held)).astype(np.uint64)
                yield "churn", [Operation("insert", churn_held, values)]
                churn_held = None


def run_scenario(spec: ScenarioSpec, scale: float = 1.0,
                 out_dir=None, differential: bool = False) -> dict:
    """Run one scenario at ``scale`` and return its scorecard dict.

    When ``out_dir`` is given the scorecard is also written as
    ``SCORECARD_<name>.json`` there.
    """
    spec.validate()
    spec = spec.scaled(scale)
    table = _build_table(spec)
    recorder = FlightRecorder()
    sanitizer = Sanitizer() if spec.sanitizer else None
    plan = None
    if spec.fault_rates:
        plan = FaultPlan(seed=spec.seed ^ 0xFA17,
                         rates=dict(spec.fault_rates),
                         storms=dict(spec.fault_storms or {}))
    table.attach(Instruments(
        recorder=recorder,
        sanitizer=sanitizer if sanitizer is not None else NULL_SANITIZER,
        faults=plan if plan is not None else NO_FAULTS))
    budget = None
    if spec.memory_budget_bytes is not None:
        budget = MemoryBudget(spec.memory_budget_bytes,
                              seed=spec.seed ^ 0xB4D6)
    workload = YcsbWorkload(CORE_WORKLOADS[spec.mix],
                            num_records=spec.num_records,
                            num_operations=spec.num_operations,
                            batch_size=spec.batch_size,
                            zipf_exponent=spec.zipf_exponent,
                            seed=spec.seed)
    cost_model = CostModel(overhead_scale=scale)
    model = DictModel() if differential else None

    problems: list[str] = []
    slo_samples: list[float] = []
    maintenance_samples: list[float] = []
    batch_kinds = {"load": 0, "run": 0, "storm": 0, "churn": 0}
    executed = 0
    invariant_checks = 0
    invariant_error: str | None = None
    peak_bytes = 0
    worst_batch = -1
    worst_sample = -1.0
    error: str | None = None

    try:
        for kind, operations in _iter_batches(spec, workload):
            before = table.stats.snapshot()
            batch_ops = 0
            for op in operations:
                _apply(table, op, model)
                batch_ops += len(op)
            if budget is not None and budget.over_budget(table):
                report = budget.enforce(table)
                if model is not None:
                    model.evict(report.evicted_keys)
                batch_ops += report.evicted
            delta = table.stats.delta(before)
            seconds = cost_model.batch_seconds(
                delta, batch_ops, _compute_ns(operations),
                kernel_launches=max(1, len(operations)))
            batch_kinds[kind] += 1
            executed += batch_ops
            if kind in ("run", "storm") and batch_ops:
                sample = seconds / batch_ops * 1e9
                slo_samples.append(sample)
                if sample > worst_sample:
                    worst_sample = sample
                    worst_batch = len(slo_samples) - 1
            elif kind == "churn" and batch_ops:
                # Churn waves are bulk maintenance, outside the request
                # SLO — but they are where resize epochs open, so
                # their per-op latency is tracked separately (and gated
                # for the resize scenarios).
                maintenance_samples.append(seconds / batch_ops * 1e9)
            peak_bytes = max(peak_bytes,
                             int(table.memory_footprint().total_bytes))
            for part in _tables_of(table):
                check_invariants(part)
            invariant_checks += 1
            if model is not None:
                _raise_divergence(model.divergence(table))
        table.validate()
        invariant_checks += 1
        if model is not None:
            _raise_divergence(model.divergence(table))
    except AssertionError as exc:
        error = f"divergence: {exc}"
        invariant_error = str(exc)
    except ReproError as exc:
        error = f"{type(exc).__name__}: {exc}"
    if error is not None:
        problems.append(error)

    latency = summarize(slo_samples)
    latency.pop("total", None)
    latency["worst_batch"] = worst_batch
    maintenance = summarize(maintenance_samples)
    maintenance.pop("total", None)
    slo_violations = spec.slo.check(latency) if error is None else []
    problems.extend(slo_violations)

    snap = table.stats.snapshot()
    stashes = [t.stash for t in _tables_of(table)]
    san_ok = True
    san_violations = 0
    if sanitizer is not None:
        san_violations = len(sanitizer.violations)
        san_ok = sanitizer.ok and not (
            sanitizer.report()["subtable_locks_held"])
        if not san_ok:
            problems.append(
                f"sanitizer: {san_violations} violation(s)")
    budget_ok = budget is None or budget.violations == 0
    if not budget_ok:
        problems.append(
            f"memory budget missed in {budget.violations} "
            f"enforcement(s)")

    card = {
        "schema": SCHEMA,
        "name": spec.name,
        "seed": spec.seed,
        "scale": float(scale),
        "verdict": "pass" if not problems else "fail",
        "problems": problems,
        "workload": {
            "mix": spec.mix,
            "num_records": spec.num_records,
            "num_operations": spec.num_operations,
            "batch_size": spec.batch_size,
            "shards": spec.shards,
        },
        "ops": {
            "executed": executed,
            "batches": sum(batch_kinds.values()),
            "load_batches": batch_kinds["load"],
            "storm_batches": batch_kinds["storm"],
            "churn_batches": batch_kinds["churn"],
        },
        "latency": latency,
        "latency_maintenance": maintenance,
        "slo": {
            "targets": spec.slo.targets(),
            "attained": not slo_violations and error is None,
            "violations": slo_violations,
        },
        "invariants": {
            "checks": invariant_checks,
            "ok": invariant_error is None and error is None,
            "error": invariant_error,
        },
        "stash": {
            "high_water": max(s.high_water for s in stashes),
            "final": sum(len(s) for s in stashes),
            "pushes": int(snap.get("stash_pushes", 0)),
            "drained": int(snap.get("stash_drained", 0)),
        },
        "resizes": {
            "upsizes": int(snap.get("upsizes", 0)),
            "downsizes": int(snap.get("downsizes", 0)),
            "aborts": int(snap.get("resize_aborts", 0)),
            "migration_slices": int(snap.get("migration_slices", 0)),
            "migrated_pairs": int(snap.get("migrated_pairs", 0)),
            "capacity_blocked": int(snap.get("capacity_blocked", 0)),
        },
        "faults": {
            "enabled": plan is not None,
            "fired": len(plan.fired) if plan is not None else 0,
            "by_site": (plan.fired_by_site()
                        if plan is not None else {}),
        },
        "sanitizer": {
            "enabled": sanitizer is not None,
            "ok": san_ok,
            "violations": san_violations,
        },
        "memory": {
            "budget_bytes": spec.memory_budget_bytes,
            "peak_bytes": peak_bytes,
            "final_bytes": int(table.memory_footprint().total_bytes),
            "evictions": budget.total_evicted if budget else 0,
            "budget_ok": budget_ok,
        },
    }
    if card["verdict"] == "fail" and recorder.enabled:
        card["flight_recorder"] = recorder.summary()
    if out_dir is not None:
        write_scorecard(card, out_dir)
    return card
