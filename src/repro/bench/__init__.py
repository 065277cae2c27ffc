"""Benchmark harness: runners and paper-style reporting.

* :mod:`repro.bench.runner` — static and dynamic experiment drivers
  producing simulated-GPU Mops and filled-factor series,
* :mod:`repro.bench.report` — text rendering of the paper's tables,
  series and qualitative shape checks.
"""

from repro.bench.artifacts import maybe_dump, maybe_dump_trace
from repro.bench.regression import (RegressionReport, compare_dirs,
                                    format_report)
from repro.bench.report import (format_series, format_table, shape_check,
                                sparkline, unit_fraction)
from repro.bench.runner import (BatchResult, DynamicRunResult,
                                StaticRunResult, execute_operations,
                                run_dynamic, run_static)

__all__ = [
    "run_static",
    "run_dynamic",
    "execute_operations",
    "BatchResult",
    "DynamicRunResult",
    "StaticRunResult",
    "format_table",
    "format_series",
    "sparkline",
    "shape_check",
    "unit_fraction",
    "maybe_dump",
    "maybe_dump_trace",
    "compare_dirs",
    "format_report",
    "RegressionReport",
]
