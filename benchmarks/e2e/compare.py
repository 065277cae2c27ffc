"""Compare two sets of end-to-end results against the benchmark's bounds.

    python -m benchmarks.e2e.compare PARENT_DIR CHANGE_DIR

Each directory holds the result JSONs that ``run.py --out DIR`` writes,
one per workload run.  Runs are paired by workload and seed: the k-th
parent run of a seed with the k-th change run of the same seed.  Runs
without a partner are left out, and the row says how many pairs it
used.  A seed fixes the inputs, so the simulated metrics of a pair
differ only by what the change did, and a host metric differs by the
change plus run-to-run noise.  The spread of the parent's own runs
would mix in how much the metric moves from seed to seed, so the
spread used below is the distance between the quartiles of the pairs'
relative differences: 0 for an exact metric, the host's noise for a
timed one.

For every workload and end-to-end metric of ``BENCHMARK.json`` the
command prints each side's quartiles and median, the signed gain of the
change's median over the parent's, and a verdict:

* ``unresolved``: the spread is wider than the metric's bound and the
  change does not win every pair;
* ``worse``: the change's median is worse than the parent's by more
  than the bound;
* ``better``: the gain exceeds the spread and the change wins at least
  nine tenths of the pairs, ties counting for neither;
* ``same``: anything else.

Exit status is 1 when any row is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from pathlib import Path
from statistics import median, quantiles

from benchmarks.e2e import load_benchmark

#: ``workload -> seed -> [metric values of one run, ...]``
Runs = dict[str, dict[int, list[dict[str, float]]]]


def load_runs(directory: Path) -> Runs:
    """Every result JSON in ``directory``, by workload and seed."""
    runs: Runs = defaultdict(lambda: defaultdict(list))
    for path in sorted(directory.glob("*.json")):
        report = json.loads(path.read_text())
        if "workload" not in report or "metrics" not in report:
            continue  # layers_*.json and unrelated files
        runs[report["workload"]][report["seed"]].append(
            {m: entry["value"] for m, entry in report["metrics"].items()})
    return runs


def pair_runs(parent: Runs, change: Runs, workload: str):
    """``(parent run, change run)`` pairs of one workload, seed by seed."""
    p_seeds, c_seeds = parent.get(workload, {}), change.get(workload, {})
    return [pair for seed in sorted(p_seeds.keys() & c_seeds.keys())
            for pair in zip(p_seeds[seed], c_seeds[seed])]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = quantiles(values, n=4)
    return q1, q2, q3


def verdict(pairs: list[tuple[float, float]], better: str,
            bound: float) -> tuple[str, float, float]:
    """Verdict, signed gain (>0 is better) and spread of paired values.

    Every end-to-end metric is chosen never to read 0.
    """
    sign = 1.0 if better == "higher" else -1.0
    p_med = median(p for p, _ in pairs)
    c_med = median(c for _, c in pairs)
    gain = sign * (c_med - p_med) / abs(p_med)
    diffs = [sign * (c - p) / abs(p) for p, c in pairs]
    q1, _, q3 = quartiles(diffs)
    spread = q3 - q1
    wins = sum(d > 0 for d in diffs)
    if spread > bound and wins < len(pairs):
        return "unresolved", gain, spread
    if gain < -bound:
        return "worse", gain, spread
    if gain > spread and wins >= 0.9 * len(pairs):
        return "better", gain, spread
    return "same", gain, spread


def compare(parent_dir: Path, change_dir: Path) -> list[dict]:
    bench = load_benchmark()
    parent, change = load_runs(parent_dir), load_runs(change_dir)
    rows = []
    for workload in (w["name"] for w in bench["workloads"]):
        pairs = pair_runs(parent, change, workload)
        for metric in bench["end_to_end"]:
            name = metric["name"]
            row = {"workload": workload, "metric": name, "pairs": len(pairs)}
            rows.append(row)
            if not pairs:
                row["verdict"] = "missing"
                continue
            values = [(p[name], c[name]) for p, c in pairs]
            result, gain, spread = verdict(values, metric["better"],
                                           metric["bound"])
            row.update(unit=metric["unit"], bound=metric["bound"],
                       parent=quartiles([p for p, _ in values]),
                       change=quartiles([c for _, c in values]),
                       gain=gain, spread=spread, verdict=result)
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="benchmarks.e2e.compare",
        description="Compare two sets of e2e benchmark results.")
    parser.add_argument("parent_dir", type=Path)
    parser.add_argument("change_dir", type=Path)
    args = parser.parse_args(argv)
    rows = compare(args.parent_dir, args.change_dir)
    print(f"{'workload':14s} {'metric':18s} {'parent q1/med/q3':>32s} "
          f"{'change q1/med/q3':>32s} {'gain':>8s} {'spread':>7s} "
          f"{'bound':>6s} verdict")
    for row in rows:
        if row["verdict"] == "missing":
            print(f"{row['workload']:14s} {row['metric']:18s} missing")
            continue
        p = "/".join(f"{v:.4g}" for v in row["parent"])
        c = "/".join(f"{v:.4g}" for v in row["change"])
        print(f"{row['workload']:14s} {row['metric']:18s} {p:>32s} "
              f"{c:>32s} {row['gain']:>+8.2%} {row['spread']:>7.2%} "
              f"{row['bound']:>6.1%} {row['verdict']}  "
              f"(pairs={row['pairs']})")
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
