"""Figure 12 — filled factor tracked after every batch.

The paper's stability experiment: run the dynamic protocol at default
parameters and plot the filled factor after each batch.  Expected
shapes:

* DyCuckoo stays inside [alpha, beta] after warm-up and moves smoothly
  (one subtable resized at a time);
* MegaKV jumps in large steps at every double/half rehash;
* SlabHash decays as symbolic deletions accumulate — below 25% by the
  end on COM (the paper reports <20%) — and its allocated memory never
  shrinks, which is the "up to 4x memory" headline.

Besides the fill series, the run reports batch-latency percentiles on
the simulated clock (p50/p99/worst batch via
:mod:`repro.telemetry.latency`) — the SLO view of the same stability
story: resizes show up as tail batches, and DyCuckoo's one-subtable
resizing keeps that tail short.  With ``REPRO_BENCH_JSON`` set the
latency summaries land in ``BENCH_fig12_stability.json``.
"""

import numpy as np

from repro import Instruments
from repro.bench import format_series, maybe_dump_trace, run_dynamic, shape_check
from repro.bench.artifacts import maybe_dump
from repro.telemetry import Telemetry, format_summary, summarize_batches
from repro.workloads import ALL_DATASETS, DynamicWorkload

from benchmarks.common import (BATCH_SIZE, COST_MODEL, SCALE,
                               make_dycuckoo_dynamic, make_megakv_dynamic,
                               make_slab_dynamic, once)

APPROACHES = ("DyCuckoo", "MegaKV", "SlabHash")


def _run_all():
    results = {}
    for spec in ALL_DATASETS:
        keys, values = spec.generate(scale=SCALE, seed=12)
        expected_live = len(np.unique(keys)) // 2
        for factory in (make_dycuckoo_dynamic, make_megakv_dynamic,
                        lambda: make_slab_dynamic(expected_live)):
            table = factory()
            if table.NAME == "DyCuckoo":
                # Full-fidelity trace of the stability run: with
                # REPRO_BENCH_JSON set, a Chrome-trace artifact with the
                # resize lifecycle and fill-factor samples lands next to
                # the JSON results.
                telemetry = Telemetry()
                table.attach(Instruments(telemetry=telemetry))
            workload = DynamicWorkload(keys, values, batch_size=BATCH_SIZE,
                                       seed=4)
            run = run_dynamic(table, workload, cost_model=COST_MODEL)
            if table.NAME == "DyCuckoo":
                maybe_dump_trace(
                    f"bench_fig12_stability_{spec.name}_dycuckoo",
                    telemetry.tracer,
                    metadata={"dataset": spec.name, "scale": SCALE,
                              "batch_size": BATCH_SIZE})
            results[(spec.name, table.NAME)] = (run, table)
    return results


def test_fig12_fill_factor_stability(benchmark):
    results = once(benchmark, _run_all)

    latencies = {key: summarize_batches(run.batches)
                 for key, (run, _table) in results.items()}
    maybe_dump("BENCH_fig12_stability", {
        f"{ds}/{name}": {"mops": run.mops, "latency": latencies[(ds, name)]}
        for (ds, name), (run, _table) in results.items()})

    checks = []
    for spec in ALL_DATASETS:
        ds = spec.name
        print()
        print(format_series(
            f"Figure 12: filled factor per batch — {ds}",
            {name: results[(ds, name)][0].fill_series
             for name in APPROACHES},
            lo=0.0, hi=1.0))

        for name in APPROACHES:
            print(f"  {name:>8} batch latency: "
                  + format_summary(latencies[(ds, name)]))

        dy_run, dy_table = results[(ds, "DyCuckoo")]
        mega_run, _ = results[(ds, "MegaKV")]
        slab_run, _ = results[(ds, "SlabHash")]

        dy_series = np.asarray(dy_run.fill_series[3:])
        checks.append((f"{ds}: DyCuckoo fill never exceeds beta",
                       bool(np.all(dy_series <= dy_table.config.beta + 1e-9))))
        mega_jumps = np.abs(np.diff(np.asarray(mega_run.fill_series)))
        dy_jumps = np.abs(np.diff(dy_series))
        checks.append((f"{ds}: MegaKV's largest step exceeds DyCuckoo's "
                       "(whole-table vs one-subtable resizing)",
                       mega_jumps.max() > dy_jumps.max()))
        checks.append((f"{ds}: SlabHash memory never shrinks",
                       slab_run.batches[-1].total_slots
                       >= max(b.total_slots for b in slab_run.batches)))

        # Peak-memory headline, sharpest on the skewed COM dataset.
        dy_peak = dy_run.peak_memory_bytes
        others_peak = max(mega_run.peak_memory_bytes,
                          slab_run.peak_memory_bytes)
        checks.append((f"{ds}: DyCuckoo peak memory the smallest "
                       f"({others_peak / dy_peak:.1f}x saved)",
                       dy_peak <= others_peak))

    slab_com = results[("COM", "SlabHash")][0]
    checks.append(("COM: SlabHash fill decays below 25% "
                   f"(ends at {slab_com.fill_series[-1]:.0%})",
                   slab_com.fill_series[-1] < 0.25))

    print()
    for label, ok in checks:
        print(shape_check(label, ok))
    failures = [label for label, ok in checks if not ok]
    assert not failures, failures
