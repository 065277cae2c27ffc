"""Execution-engine selection and the one instrumented kernel launch.

Every ``run_*_kernel`` entry point takes ``engine="warp" | "cohort"``:

* ``"warp"`` — the reference per-warp SIMT interpreter (one Python
  object per warp, stepped by :class:`~repro.gpusim.kernel.RoundScheduler`),
* ``"cohort"`` — the structure-of-arrays engine of
  :mod:`repro.gpusim.cohort`, bit-for-bit conformant with the
  reference and 1-2 orders of magnitude faster.

Whichever engine runs, the launch goes through :func:`launch`, the one
place a kernel is instrumented: the sanitizer's kernel scope, the
profiler's kernel record, one ``kernel.<op>`` span (labelled with the
engine) and counters derived from the aggregate
:class:`~repro.kernels.insert.KernelRunResult` — which the conformance
contract guarantees to be identical across engines, so dashboards see
the same stream regardless of the engine that produced it.
"""

from __future__ import annotations

import dataclasses

from repro.core.batch_ops import EncodedBatch, as_batch
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
    the caller has already encoded it, else ``keys``, which may itself
    be an :class:`EncodedBatch` (see :func:`~repro.core.batch_ops.as_batch`)."""
    return as_batch(table, keys if codes is None else codes)


def launch(table, op: str, batch, engine: str, body):
    """Run ``body()`` as one instrumented ``op`` kernel launch.

    ``body`` executes the launch on ``engine`` and returns its
    :class:`~repro.kernels.insert.KernelRunResult`, or a tuple whose
    last element is one; :func:`launch` returns that unchanged.  Around
    it, on whichever instruments the table carries:

    * the sanitizer's kernel scope — ``locking=True`` for INSERT only,
      since FIND and DELETE are lock-free by design (Section V-B): their
      probes and the at-most-one-matching-lane slot clear are exempt
      from the unlocked-write contract;
    * the profiler's kernel record, closed with the run's counters (or
      bare, when the body raises);
    * one ``kernel.<op>`` span, which also carries a cohort insert's
      ``hazard_rounds`` / ``hazard_lanes`` diagnostics;
    * the run's counters folded into the metrics.  They come only from
      the result's aggregate fields, never from engine internals, so the
      stream is identical whichever engine executed the launch.
    """
    n = len(batch)
    san = table.sanitizer
    prof = table.profiler
    telemetry = table.telemetry
    if san.enabled:
        san.begin_kernel(op, locking=op == "insert", table=table)
    if prof.enabled:
        prof.begin_kernel(op, n)
    try:
        with telemetry.tracer.span(f"kernel.{op}", "kernel", n=n,
                                   engine=engine) as span:
            out = body()
            result = out[-1] if isinstance(out, tuple) else out
            if span is not None and getattr(result, "hazard_rounds", 0):
                span.args["hazard_rounds"] = result.hazard_rounds
                span.args["hazard_lanes"] = result.hazard_lanes
    except BaseException:
        if prof.enabled:
            prof.end_kernel()
        raise
    finally:
        if san.enabled:
            san.end_kernel()
    if prof.enabled:
        prof.end_kernel(dataclasses.asdict(result))
    if telemetry.enabled:
        metrics = telemetry.metrics
        metrics.counter("kernel.rounds").inc(result.rounds)
        metrics.counter("kernel.transactions").inc(
            result.memory_transactions)
        metrics.counter("kernel.lock_acquisitions").inc(
            result.lock_acquisitions)
        metrics.counter("kernel.lock_conflicts").inc(result.lock_conflicts)
        metrics.counter("kernel.evictions").inc(result.evictions)
        metrics.counter("kernel.completed_ops").inc(result.completed_ops)
    return out
