"""Smoke test of the end-to-end benchmark at 1/20 scale.

    PYTHONPATH=src python -m pytest -q benchmarks/e2e

Runs the whole command twice with one seed (once with ``--trace 0``,
once with ``--trace 1``, which adds a second untraced run and a traced
one) and checks names, correctness and the determinism of simulated
counters.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SEED = 3


def _run(out: Path, *extra: str) -> tuple[dict, dict[str, dict]]:
    """Run the smoke benchmark; return its last line and saved reports."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--seed",
         str(SEED), "--out", str(out), *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    reports = {}
    for path in out.glob("*.json"):
        report = json.loads(path.read_text())
        if "metrics" in report:  # not a layers_*.json
            reports[report["workload"]] = report
    return json.loads(proc.stdout.strip().splitlines()[-1]), reports


@pytest.fixture(scope="module")
def bench() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    return _run(tmp_path_factory.mktemp("untraced"), "--trace", "0")


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    out = tmp_path_factory.mktemp("traced")
    return (*_run(out, "--trace", "1"), out)


def _split(metrics: dict) -> dict[str, set[str]]:
    """``workload -> metric names`` from a multi-workload last line."""
    names: dict[str, set[str]] = {}
    for key in metrics:
        workload, metric = key.split(".", 1)
        names.setdefault(workload, set()).add(metric)
    return names


def test_metric_names_match_benchmark_json(bench, untraced, traced):
    workloads = {w["name"] for w in bench["workloads"]}
    e2e = {m["name"] for m in bench["end_to_end"]}
    per_layer = {m["name"] for m in bench["per_layer"]}
    assert _split(untraced[0]["metrics"]) == dict.fromkeys(workloads, e2e)
    assert _split(traced[0]["metrics"]) == dict.fromkeys(workloads,
                                                         per_layer)


def test_no_failed_operations(untraced, traced):
    for last, _reports, *_ in (untraced, traced):
        assert last["correct"] and last["failed"] == 0
        assert last["attempted"] > 0


def test_same_seed_gives_identical_simulated_values(untraced, traced):
    first, second = untraced[1], traced[1]
    assert first.keys() == second.keys()
    for workload, report in first.items():
        other = second[workload]
        for name, entry in report["metrics"].items():
            if name.startswith("sim_"):
                assert entry == other["metrics"][name], (workload, name)
        assert report["sim"] == other["sim"], workload


def test_tracing_leaves_simulated_counters_unchanged(traced):
    _last, reports, out = traced
    for workload, report in reports.items():
        per_layer = report["per_layer"]
        for name, value in report["sim"].items():
            assert per_layer[name]["value"] == value, (workload, name)
        assert per_layer["trace.coverage"]["value"] >= 0.95, workload
        assert (out / f"spans_{workload}.npz").is_file()
        assert (out / f"layers_{workload}.json").is_file()
