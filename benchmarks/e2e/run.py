"""End-to-end benchmark of DyCuckoo on both clocks.

Run from the repository root::

    python3 benchmarks/e2e/run.py --seed 1 [--workload NAME] [--trace 0|1]
                                  [--seconds N | --smoke] [--out DIR]

(``PYTHONPATH=src python -m benchmarks.e2e`` is the same command.)
Each workload runs in its own fresh child process with one BLAS/OpenMP
thread, one workload at a time.  The command prints every metric with
its unit, checks every output against the expected results, and ends
with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones.  With
``--trace 1`` they are the per-layer ones, from a second, traced child;
the end-to-end metrics still come from the untraced child.  Metric
names and units are those of ``BENCHMARK.json``.  Exit status is 1 when
an operation failed, 2 when the program under test cannot be found or a
child process died.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: A child that takes longer than this is killed and the run fails.
CHILD_TIMEOUT_S = 170

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

#: ``--seconds`` at which every workload runs its full size.  The work
#: scales with ``--seconds`` and does not depend on the host's speed.
NOMINAL_SECONDS = 10.0


def _use_checkout_sources() -> bool:
    """Import ``repro`` and this package from the checkout, or fail.

    Returns False when ``src/repro`` is missing, so that a directory
    holding only the benchmark exits without a result.
    """
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        return False
    # As a script, sys.path[0] is this directory, whose trace.py would
    # shadow the standard library's ``trace``.
    sys.path[:] = [p for p in sys.path if Path(p or ".").resolve() != HERE]
    for path in (ROOT, ROOT / "src"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    import repro

    return Path(repro.__file__).resolve().is_relative_to(ROOT / "src")


class ChildFailed(RuntimeError):
    """A child process died or printed no result."""


def _spawn(name: str, seed: int, scale: float, traced: bool,
           out_dir: Path) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--child", name,
           "--seed", str(seed), "--scale", repr(scale), "--out",
           str(out_dir)]
    if traced:
        cmd.append("--traced")
    env = dict(os.environ, PYTHONHASHSEED="0",
               **{var: "1" for var in THREAD_VARS})
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{name}: no result in {CHILD_TIMEOUT_S} s") \
            from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{name}: child exited {proc.returncode}")
    return json.loads(lines[-1])


def layer_metrics(untraced: dict, traced: dict,
                  names) -> dict[str, float]:
    """Values of the per-layer metrics ``names`` from a traced child and
    its untraced twin."""
    summary = traced["trace"]
    values = {f"{layer}.{key}": value
              for layer, acc in summary["layers"].items()
              for key, value in acc.items()}
    values.update(traced["sim"])
    values["trace.overhead"] = (traced["e2e"]["ops_per_s"]
                                / untraced["e2e"]["ops_per_s"] - 1.0)
    values["trace.coverage"] = summary["coverage"]
    return {metric: values[metric] for metric in names}


def _print_metrics(values: dict, units: dict) -> None:
    for metric, unit in units.items():
        print(f"  {metric:34s} {values[metric]:>18.6g} {unit}")


def run_workload(name: str, seed: int, scale: float, trace: bool,
                 out_dir: Path) -> dict:
    """Run one workload (twice with ``trace``), print and save it."""
    from benchmarks.e2e import metric_units
    from benchmarks.e2e.hostspeed import calib_ms

    e2e_units = metric_units("end_to_end")
    calib_before = calib_ms()
    untraced = _spawn(name, seed, scale, False, out_dir)
    runs = [untraced]
    report = {
        "workload": name, "seed": seed, "scale": scale,
        "metrics": {m: {"value": untraced["e2e"][m], "unit": u}
                    for m, u in e2e_units.items()},
        "sim": untraced["sim"],
        "diag": untraced["diag"],
    }
    if trace:
        traced = _spawn(name, seed, scale, True, out_dir)
        runs.append(traced)
        if traced["sim_digest"] != untraced["sim_digest"]:
            traced["error"] = "traced run changed the simulated counters"
            traced["correct"] = False
        layer_units = metric_units("per_layer")
        values = layer_metrics(untraced, traced, layer_units)
        report["per_layer"] = {m: {"value": values[m], "unit": u}
                               for m, u in layer_units.items()}
        (out_dir / f"layers_{name}.json").write_text(json.dumps(
            dict(traced["trace"], trace_overhead=values["trace.overhead"],
                 workload=name, seed=seed), indent=1))
    calib_after = calib_ms()
    drift = calib_after / calib_before - 1.0
    report.update(
        correct=all(r["correct"] for r in runs),
        attempted=sum(r["attempted"] for r in runs),
        failed=sum(r["failed"] for r in runs),
        errors=[r["error"] for r in runs if r["error"]],
        meta={"host_calib_ms": [calib_before, calib_after],
              "host_calib_drift": drift})

    diag = untraced["diag"]
    print(f"== {name}  seed {seed}  scale {scale:g}  {diag['batches']} "
          f"batches x {diag['passes']} passes  {diag['ops']} ops/pass")
    _print_metrics(untraced["e2e"], e2e_units)
    print(f"  [diag] batch_p95_ms {diag['batch_p95_ms']:.4g} ms "
          f"(n={diag['batches']}, {diag['batch_p95_beyond']} beyond)")
    print("  [diag] ops_per_s of each pass "
          + " ".join(f"{v:.6g}" for v in diag["pass_ops_per_s"]))
    print(f"  [diag] failed_ops_frac {report['failed']}/"
          f"{report['attempted']}")
    print(f"  [meta] host_calib_ms {calib_before:.4f} -> "
          f"{calib_after:.4f} ({drift:+.1%})")
    if trace:
        print("  -- per layer (traced run) --")
        _print_metrics(values, layer_units)
        for layer, acc in traced["trace"]["layers"].items():
            print(f"  [diag] {layer}.self_s {acc['self_s']:.4f} s")
    for err in report["errors"]:
        print(f"  [error] {err}")
    if abs(drift) > 0.10:
        print(f"warning: {name}: host calibration drifted {drift:+.1%} "
              "during the run; host-clock numbers are suspect",
              file=sys.stderr)
    out_dir.mkdir(parents=True, exist_ok=True)
    suffix = "_trace" if trace else ""
    (out_dir / f"{name}_s{seed}{suffix}_{time.time_ns()}.json").write_text(
        json.dumps(report, indent=1))
    return report


def _parse(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="benchmarks.e2e",
        description="End-to-end DyCuckoo benchmark (host and simulated "
                    "clocks).")
    parser.add_argument("--workload", help="run only this workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=NOMINAL_SECONDS,
                        help="timed seconds per workload the work is sized "
                             "for on the reference host (default 10)")
    parser.add_argument("--smoke", dest="seconds", action="store_const",
                        const=NOMINAL_SECONDS / 20,
                        help="same as --seconds 0.5, for tests")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report the per-layer metrics of an added "
                             "traced run instead of the end-to-end ones")
    parser.add_argument("--out", type=Path, default=HERE / "results",
                        help="directory for result, layer and span files")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    parser.add_argument("--scale", type=float, help=argparse.SUPPRESS)
    parser.add_argument("--traced", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    if not _use_checkout_sources():
        print(f"error: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if args.child:
        from benchmarks.e2e.measure import measure

        print(json.dumps(measure(args.child, args.seed, args.scale,
                                 args.traced, args.out.resolve())))
        return 0

    from benchmarks.e2e.workloads import WORKLOADS

    names = [args.workload] if args.workload else list(WORKLOADS)
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown:
        print(f"error: unknown workload {unknown[0]!r}; expected one of "
              f"{list(WORKLOADS)}", file=sys.stderr)
        return 2
    scale = args.seconds / NOMINAL_SECONDS
    out_dir = args.out.resolve()
    try:
        reports = [run_workload(name, args.seed, scale, bool(args.trace),
                                out_dir) for name in names]
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    key = "per_layer" if args.trace else "metrics"
    if len(reports) == 1:
        metrics = reports[0][key]
    else:
        metrics = {f"{r['workload']}.{m}": v for r in reports
                   for m, v in r[key].items()}
    correct = all(r["correct"] for r in reports)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
