"""Observability for table runs: tracing, metrics, and exporters.

The observability stack has three layers:

* **telemetry** (this package's original core) —
  :class:`~repro.telemetry.tracer.Tracer` span / instant / counter
  events on a logical simulated-time clock, plus
  :class:`~repro.telemetry.metrics.MetricsRegistry` counters, gauges
  and fixed-bucket histograms, with JSON-lines / Chrome ``trace_event``
  / Prometheus exporters in :mod:`repro.telemetry.export`;
* **profiler** — :class:`~repro.telemetry.profiler.Profiler`, a deep
  Nsight-Compute-style pass over the kernel engines (per-round
  occupancy timelines, lock-contention heatmaps, probe/chain-depth
  histograms, fill time series);
* **flight recorder** — :class:`~repro.telemetry.recorder.FlightRecorder`,
  a bounded ring of recent events that auto-dumps a post-mortem bundle
  on fault trips, sanitizer violations and invariant failures.

:mod:`repro.telemetry.latency` supplies the shared deterministic
latency-percentile analysis (p50/p99/worst-batch on simulated time).

Instrumented code holds a :class:`Telemetry` handle bundling one tracer
and one registry.  The default is :data:`NULL_TELEMETRY`, whose
``enabled`` is ``False``: every hook site gates on that one attribute,
so an uninstrumented run does no telemetry work beyond the check.  The
profiler and recorder follow the same idiom with
:data:`~repro.telemetry.profiler.NULL_PROFILER` and
:data:`~repro.telemetry.recorder.NULL_RECORDER`.

Example
-------
>>> from repro import DyCuckooTable, Instruments
>>> from repro.telemetry import Telemetry
>>> table = DyCuckooTable()
>>> tel = Telemetry()
>>> table.attach(Instruments(telemetry=tel))
>>> import numpy as np
>>> table.insert(np.arange(100, dtype=np.uint64),
...              np.arange(100, dtype=np.uint64))
>>> len(tel.tracer.spans("insert"))
1

See ``docs/observability.md`` for the event taxonomy and how to open a
trace in Perfetto.
"""

from __future__ import annotations

from repro.nulls import NullSingleton
from repro.telemetry.aggregate import merge_registries
from repro.telemetry.export import (chrome_trace, prometheus_text,
                                    write_chrome_trace, write_jsonl)
from repro.telemetry.latency import (format_summary, percentile, summarize,
                                     summarize_batches)
from repro.telemetry.metrics import (Counter, Gauge, Histogram,
                                     MetricsRegistry)
from repro.telemetry.profiler import NULL_PROFILER, Profiler
from repro.telemetry.recorder import NULL_RECORDER, FlightRecorder
from repro.telemetry.tracer import (NULL_TRACER, NullTracer, TraceEvent,
                                    Tracer)


class Telemetry:
    """A tracer plus a metrics registry, handed to instrumented code."""

    __slots__ = ("tracer", "metrics")

    #: Instrumentation gate; the null subclass overrides it to False.
    enabled = True

    def __init__(self, tracer: Tracer | None = None,
                 metrics: MetricsRegistry | None = None) -> None:
        self.tracer = tracer if tracer is not None else Tracer()
        self.metrics = metrics if metrics is not None else MetricsRegistry()


class _NullTelemetry(NullSingleton, Telemetry):
    """Disabled telemetry: the default on every table."""

    __slots__ = ()

    enabled = False
    SINGLETON = "NULL_TELEMETRY"

    def __init__(self) -> None:
        super().__init__(tracer=NULL_TRACER, metrics=MetricsRegistry())


#: Shared disabled-telemetry singleton (one attribute check to skip).
NULL_TELEMETRY = _NullTelemetry()

__all__ = [
    "Telemetry",
    "NULL_TELEMETRY",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "TraceEvent",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
    "prometheus_text",
    "merge_registries",
    "Profiler",
    "NULL_PROFILER",
    "FlightRecorder",
    "NULL_RECORDER",
    "percentile",
    "summarize",
    "summarize_batches",
    "format_summary",
]
