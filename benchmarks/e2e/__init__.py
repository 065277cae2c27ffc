"""End-to-end benchmark: four workloads on the host and simulated clocks.

See ``benchmarks/e2e/README.md``; run ``python3 benchmarks/e2e/run.py``.
"""

import json
from pathlib import Path

#: The benchmark's definition: workloads, metric names, units and bounds.
BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load_benchmark() -> dict:
    """``BENCHMARK.json``, the one place metric names and units are set."""
    return json.loads(BENCHMARK_JSON.read_text())


def metric_units(section: str) -> dict[str, str]:
    """``name -> unit`` of one metric list (``end_to_end`` or ``per_layer``)."""
    return {m["name"]: m["unit"] for m in load_benchmark()[section]}
