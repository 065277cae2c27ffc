"""Measurement harness: drive tables through workloads, produce Mops.

Two entry points mirror the paper's two experimental settings:

* :func:`run_static` — insert an entire dataset, then issue random FIND
  queries (Section VI-C),
* :func:`run_dynamic` — execute the batched insert/find/delete protocol
  while tracking throughput and the filled factor per batch
  (Section VI-D).

Throughput is *simulated* GPU throughput: each batch's event-counter
delta is priced by :class:`repro.gpusim.metrics.CostModel` on the paper's
GTX 1080.  Wall-clock host time is also recorded for pytest-benchmark.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from repro.baselines.base import GpuHashTable
from repro.errors import UnsupportedOperationError
from repro.gpusim.metrics import CostModel
from repro.workloads.batches import DynamicWorkload


@dataclass(frozen=True)
class BatchResult:
    """Measurements for one dynamic-protocol batch."""

    index: int
    phase: int
    ops: int
    simulated_seconds: float
    fill_factor: float
    live_entries: int
    total_slots: int
    memory_bytes: int

    @property
    def mops(self) -> float:
        if self.simulated_seconds <= 0:
            return float("inf")
        return self.ops / self.simulated_seconds / 1e6


@dataclass
class DynamicRunResult:
    """Aggregate of one dynamic run for one table."""

    table_name: str
    batches: list[BatchResult] = field(default_factory=list)

    @property
    def total_ops(self) -> int:
        return sum(b.ops for b in self.batches)

    @property
    def total_seconds(self) -> float:
        return sum(b.simulated_seconds for b in self.batches)

    @property
    def mops(self) -> float:
        if self.total_seconds <= 0:
            return float("inf")
        return self.total_ops / self.total_seconds / 1e6

    @property
    def fill_series(self) -> list[float]:
        """Filled factor after each batch (Figure 12's y-axis)."""
        return [b.fill_factor for b in self.batches]

    @property
    def peak_memory_bytes(self) -> int:
        return max((b.memory_bytes for b in self.batches), default=0)


@dataclass(frozen=True)
class StaticRunResult:
    """Insert-everything-then-query measurements (Figure 9)."""

    table_name: str
    insert_ops: int
    insert_seconds: float
    find_ops: int
    find_seconds: float
    fill_factor: float

    @property
    def insert_mops(self) -> float:
        return (self.insert_ops / self.insert_seconds / 1e6
                if self.insert_seconds > 0 else float("inf"))

    @property
    def find_mops(self) -> float:
        return (self.find_ops / self.find_seconds / 1e6
                if self.find_seconds > 0 else float("inf"))


def _batch_compute_ns(table: GpuHashTable, operations) -> float:
    """Op-count weighted per-op compute cost for one batch."""
    costs = table.KERNEL_COSTS
    per_kind = {"insert": costs.insert_ns, "find": costs.find_ns,
                "delete": costs.delete_ns}
    total = sum(len(op) for op in operations)
    if total == 0:
        return costs.find_ns
    weighted = sum(len(op) * per_kind[op.kind] for op in operations)
    return weighted / total


def execute_operations(table: GpuHashTable, operations) -> int:
    """Run a batch's operations; returns ops executed.

    DELETE batches are skipped for tables that do not support deletion
    (the paper excludes CUDPP from the dynamic comparison entirely, so
    in practice this only guards misuse).
    """
    executed = 0
    for op in operations:
        if op.kind == "insert":
            table.insert(op.keys, op.values)
        elif op.kind == "find":
            table.find(op.keys)
        elif op.kind == "delete":
            if not table.SUPPORTS_DELETE:
                raise UnsupportedOperationError(
                    f"{table.NAME} cannot execute delete batches"
                )
            table.delete(op.keys)
        executed += len(op)
    return executed


def _sample_fill_telemetry(telemetry, table: GpuHashTable,
                           footprint) -> None:
    """Record global and per-subtable fill-factor gauges for one batch.

    Per-subtable factors exist only for subtable designs (DyCuckoo); the
    global filled factor is sampled for every table.
    """
    fill = footprint.filled_factor
    telemetry.metrics.gauge("fill.global").set(fill)
    telemetry.tracer.counter("fill.global", fill)
    per_subtable = getattr(table, "subtable_load_factors", None)
    if per_subtable is not None:
        series = {}
        for idx, factor in enumerate(per_subtable):
            telemetry.metrics.gauge(f"fill.subtable{idx}").set(factor)
            series[f"subtable{idx}"] = factor
        telemetry.tracer.counter("fill.subtable", series)


def run_dynamic(table: GpuHashTable, workload: DynamicWorkload,
                cost_model: CostModel | None = None,
                max_batches: int | None = None) -> DynamicRunResult:
    """Drive the full dynamic protocol; collect per-batch measurements.

    When the table carries an enabled telemetry handle (see
    :meth:`repro.baselines.base.GpuHashTable.attach`), each batch
    is wrapped in a ``batch`` span whose duration is the batch's
    *simulated* GPU time — the exported trace timeline is laid out in
    simulated time — and per-subtable fill-factor gauges are sampled
    after every batch.  A table carrying an enabled deep profiler
    additionally gets a per-batch ``batch`` fill-timeline sample.
    """
    cost_model = cost_model or CostModel()
    telemetry = table.telemetry
    profiler = table.instruments.profiler
    result = DynamicRunResult(table_name=table.NAME)
    for batch in workload.batches():
        if max_batches is not None and batch.index >= max_batches:
            break
        batch_ctx = (telemetry.tracer.span("batch", "bench",
                                           index=batch.index,
                                           phase=batch.phase)
                     if telemetry.enabled else nullcontext())
        with batch_ctx:
            before = table.stats.snapshot()
            ops = execute_operations(table, batch.operations)
            delta = table.stats.delta(before)
            seconds = cost_model.batch_seconds(
                delta, ops, _batch_compute_ns(table, batch.operations),
                kernel_launches=len(batch.operations))
            footprint = table.memory_footprint()
            if telemetry.enabled:
                _sample_fill_telemetry(telemetry, table, footprint)
                # Lay the batch out over its simulated duration so the
                # span's width in the trace is the simulated GPU time.
                telemetry.tracer.advance(seconds)
            if profiler.enabled and hasattr(table, "subtable_load_factors"):
                profiler.sample_fill("batch", table)
        result.batches.append(BatchResult(
            index=batch.index,
            phase=batch.phase,
            ops=ops,
            simulated_seconds=seconds,
            fill_factor=footprint.filled_factor,
            live_entries=footprint.live_entries,
            total_slots=footprint.total_slots,
            memory_bytes=footprint.total_bytes,
        ))
    return result


def run_static(table: GpuHashTable, keys: np.ndarray, values: np.ndarray,
               num_finds: int, cost_model: CostModel | None = None,
               insert_chunk: int = 200_000, seed: int = 0
               ) -> StaticRunResult:
    """The static experiment: bulk insert, then random FIND queries."""
    cost_model = cost_model or CostModel()
    telemetry = table.telemetry
    keys = np.asarray(keys, dtype=np.uint64)
    values = np.asarray(values, dtype=np.uint64)

    insert_ctx = (telemetry.tracer.span("static.insert", "bench",
                                        n=len(keys))
                  if telemetry.enabled else nullcontext())
    with insert_ctx:
        before = table.stats.snapshot()
        chunks = 0
        for start in range(0, len(keys), insert_chunk):
            stop = min(start + insert_chunk, len(keys))
            table.insert(keys[start:stop], values[start:stop])
            chunks += 1
        insert_delta = table.stats.delta(before)
        insert_seconds = cost_model.batch_seconds(
            insert_delta, len(keys), table.KERNEL_COSTS.insert_ns,
            kernel_launches=chunks)
        telemetry.tracer.advance(insert_seconds)

    rng = np.random.default_rng(seed)
    queries = rng.choice(keys, size=num_finds, replace=True)
    find_ctx = (telemetry.tracer.span("static.find", "bench", n=num_finds)
                if telemetry.enabled else nullcontext())
    with find_ctx:
        before = table.stats.snapshot()
        table.find(queries)
        find_delta = table.stats.delta(before)
        find_seconds = cost_model.batch_seconds(
            find_delta, num_finds, table.KERNEL_COSTS.find_ns)
        telemetry.tracer.advance(find_seconds)

    return StaticRunResult(
        table_name=table.NAME,
        insert_ops=len(keys),
        insert_seconds=insert_seconds,
        find_ops=num_finds,
        find_seconds=find_seconds,
        fill_factor=table.load_factor,
    )
