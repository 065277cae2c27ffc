"""Performance gate over dumped ``BENCH_*.json`` artifacts.

Compares the current bench-artifact directory against a baseline
directory with :func:`repro.bench.regression.compare_dirs` and prints
the report.  Two deployment styles:

* **Warn-only trajectory** (the default, baseline restored from the
  previous CI run's cache): perf drift is visible in CI logs without
  blocking unrelated changes on noisy shared runners.
* **Enforcing** (``--strict`` against the committed baseline in
  ``benchmarks/baselines/``): deterministic simulated-cost leaves must
  match; wall-clock and throughput leaves are excluded with ``--skip``
  because they depend on host speed.

Exit status:

* ``0`` — clean, baseline missing/empty (first run), or deviations
  found while warn-only.
* ``1`` — deviations found and ``--strict`` was passed.

On top of the directory diff, a dedicated **stability gate** watches
the resize tail: when both directories carry
``BENCH_fig12_stability.json``, every ``<dataset>/DyCuckoo`` entry's
``latency.p99`` and ``latency.worst`` must stay within
``--stability-headroom`` (default +25 %) of the committed baseline, at
equal-or-better throughput (``mops`` within the same headroom the
other way).  The baseline was recorded with lazily draining migration
epochs, so any change that re-concentrates migration cost into the
triggering batch — a whole-subtable rehash, a drain budget that stopped
being bounded, an epoch that stopped opening — shows up here as a tail
blow-up even when the deterministic cost counters still match.
Latency leaves of that artifact are excluded from the exact diff
(they are gated with headroom instead); the headroom absorbs
placement-order chaos near ``beta``, where eviction storms make tail
batches sensitive to any reordering.

Usage::

    python benchmarks/perf_gate.py BASELINE_DIR CURRENT_DIR [--strict]
        [--tolerance 0.05] [--only 'BENCH_kernel_engine*']
        [--skip '*seconds*'] [--skip '*ops_per_sec*']
        [--stability-headroom 0.25]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.bench.regression import compare_dirs, format_report

STABILITY_ARTIFACT = "BENCH_fig12_stability.json"


def check_stability(baseline_dir: Path, current_dir: Path,
                    headroom: float) -> list[str]:
    """Tail-latency violations in the Figure 12 stability artifact.

    Returns human-readable violation strings; empty means the gate
    passed (or the artifact is absent on either side, which is not a
    violation — the directory diff already reports missing files).
    """
    base_path = baseline_dir / STABILITY_ARTIFACT
    cur_path = current_dir / STABILITY_ARTIFACT
    if not base_path.is_file() or not cur_path.is_file():
        return []
    base = json.loads(base_path.read_text())
    cur = json.loads(cur_path.read_text())
    violations = []
    for key, entry in sorted(base.items()):
        if not key.endswith("/DyCuckoo"):
            continue
        if key not in cur:
            violations.append(f"{key}: missing from current artifact")
            continue
        for metric in ("p99", "worst"):
            was = entry["latency"][metric]
            now = cur[key]["latency"][metric]
            if now > was * (1.0 + headroom):
                violations.append(
                    f"{key}: latency.{metric} {now:.6g} exceeds baseline "
                    f"{was:.6g} by more than {headroom:.0%}")
        was_mops = entry["mops"]
        now_mops = cur[key]["mops"]
        if now_mops < was_mops * (1.0 - headroom):
            violations.append(
                f"{key}: mops {now_mops:.3f} below baseline "
                f"{was_mops:.3f} by more than {headroom:.0%}")
    return violations


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="baseline artifact directory")
    parser.add_argument("current", help="current artifact directory")
    parser.add_argument("--tolerance", type=float, default=0.05,
                        help="relative tolerance per numeric result")
    parser.add_argument("--strict", action="store_true",
                        help="exit 1 on deviations instead of warning")
    parser.add_argument("--only", action="append", default=[],
                        metavar="PATTERN",
                        help="restrict to artifact file names matching "
                             "this fnmatch pattern (repeatable)")
    parser.add_argument("--skip", action="append", default=[],
                        metavar="PATTERN",
                        help="ignore leaves whose 'artifact:path' matches "
                             "this fnmatch pattern (repeatable)")
    parser.add_argument("--stability-headroom", type=float, default=0.25,
                        help="allowed relative growth of fig12 DyCuckoo "
                             "p99/worst latency (and mops shrink) over "
                             "the baseline")
    args = parser.parse_args(argv)

    baseline = Path(args.baseline)
    if not baseline.is_dir() or not list(baseline.glob("*.json")):
        print(f"perf gate: no baseline artifacts in {baseline} "
              "(first run?); skipping comparison")
        return 0
    current = Path(args.current)
    if not current.is_dir():
        print(f"perf gate: current directory {current} missing",
              file=sys.stderr)
        return 1

    # The stability artifact's latency/mops leaves are gated with
    # headroom below, not by the exact diff.
    skip = [*args.skip, "BENCH_fig12_stability*DyCuckoo/latency*",
            "BENCH_fig12_stability*DyCuckoo/mops*"]
    report = compare_dirs(baseline, current, rel_tolerance=args.tolerance,
                          only=args.only, skip=skip)
    print(format_report(report))

    stability = check_stability(baseline, current,
                                headroom=args.stability_headroom)
    if stability:
        print(f"stability gate ({STABILITY_ARTIFACT}, "
              f"headroom {args.stability_headroom:.0%}):")
        for line in stability:
            print(f"  REGRESSION {line}")
    elif (baseline / STABILITY_ARTIFACT).is_file():
        print(f"stability gate ({STABILITY_ARTIFACT}): ok")

    if report.clean and not stability:
        return 0
    if args.strict:
        return 1
    print("perf gate: deviations above are WARN-ONLY (pass --strict to "
          "enforce)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
