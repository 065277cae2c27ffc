"""Execution-engine selection and shared telemetry for the kernels.

Every ``run_*_kernel`` entry point takes ``engine="warp" | "cohort"``:

* ``"warp"`` — the reference per-warp SIMT interpreter (one Python
  object per warp, stepped by :class:`~repro.gpusim.kernel.RoundScheduler`),
* ``"cohort"`` — the structure-of-arrays engine of
  :mod:`repro.gpusim.cohort`, bit-for-bit conformant with the
  reference and 1-2 orders of magnitude faster.

Both engines emit the same telemetry: one ``kernel.<op>`` span per run
(labelled with the engine) and counters derived from the aggregate
:class:`~repro.kernels.insert.KernelRunResult` — which the conformance
contract guarantees to be identical across engines, so dashboards see
the same stream regardless of the engine that produced it.
"""

from __future__ import annotations

from contextlib import nullcontext

from repro.core.batch_ops import EncodedBatch
from repro.errors import InvalidConfigError

#: Engines accepted by the ``run_*_kernel`` entry points.
VALID_ENGINES = ("warp", "cohort")


def resolve_engine(engine: str) -> str:
    """Validate an engine name; returns it for chaining."""
    if engine not in VALID_ENGINES:
        raise InvalidConfigError(
            f"unknown kernel engine {engine!r}; expected one of "
            f"{VALID_ENGINES}"
        )
    return engine


def kernel_batch(table, keys, codes: EncodedBatch | None) -> EncodedBatch:
    """The batch a ``run_*_kernel`` entry point runs on: ``codes`` when
    the caller has already encoded it, else ``keys`` encoded now."""
    if isinstance(codes, EncodedBatch):
        return codes
    return EncodedBatch(table, keys)


def kernel_span(table, op: str, n: int, engine: str):
    """Context manager for one kernel launch (span when instrumented)."""
    telemetry = table.telemetry
    if not telemetry.enabled:
        return nullcontext()
    return telemetry.tracer.span(f"kernel.{op}", "kernel", n=n,
                                 engine=engine)


def record_kernel_counters(table, result) -> None:
    """Fold a run's aggregate counters into the table's metrics.

    Counter values come only from the :class:`KernelRunResult`
    aggregates, never from engine internals, so the stream is identical
    whichever engine executed the launch.
    """
    telemetry = table.telemetry
    if not telemetry.enabled:
        return
    metrics = telemetry.metrics
    metrics.counter("kernel.rounds").inc(result.rounds)
    metrics.counter("kernel.transactions").inc(result.memory_transactions)
    metrics.counter("kernel.lock_acquisitions").inc(result.lock_acquisitions)
    metrics.counter("kernel.lock_conflicts").inc(result.lock_conflicts)
    metrics.counter("kernel.evictions").inc(result.evictions)
    metrics.counter("kernel.completed_ops").inc(result.completed_ops)
