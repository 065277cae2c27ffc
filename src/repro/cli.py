"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``info``
    Print the library version, the simulated device, and the paper's
    default parameters.
``demo``
    Run a small end-to-end demonstration (insert/find/delete with
    automatic resizing) and print the resulting statistics.
``datasets``
    Print Table 2 (paper statistics and generated surrogate statistics
    at a chosen scale).
``dynamic``
    Run the dynamic-workload comparison (DyCuckoo vs MegaKV vs SlabHash)
    on one dataset and print throughput, fill-factor tracking, and peak
    memory — a one-command version of Figures 11/12.
``profile``
    Deep-profile DyCuckoo: derived per-batch kernel metrics, a
    lane-faithful deep pass on both execution engines (occupancy and
    divergence timelines, lock-contention heatmap, probe/chain
    histograms, cross-checked for identity), a dynamic pass with
    resizes (fill timeline, batch-latency percentiles), and a seeded
    flight-recorder demonstration.  ``--html`` writes a self-contained
    report; ``--smoke`` is CI's profiler health check.
``trace``
    Run a dynamic workload on DyCuckoo with telemetry enabled and write
    a Chrome-trace JSON (``chrome://tracing`` / Perfetto), optionally a
    JSON-lines event log and a Prometheus metrics dump.  ``--smoke``
    runs a fast built-in configuration and fails if the trace misses
    the expected structure (CI's telemetry health check).

``shard``
    Run an insert/find/delete stream through the sharded front-end
    (:class:`repro.shard.ShardedDyCuckoo`), check every lane against a
    dict model, and report per-shard balance plus the simulated SM-group
    speedup.  ``--sweep`` scans S in {1, 2, 4, 8}; ``--parallel W``
    also checks the process-pool executor against serial on warm
    batches.  Both checks live in :mod:`repro.bench.protocols`.

``kernel``
    Run one mixed insert/find/delete batch through the lane-faithful
    kernels and report cost counters per execution engine.  With
    ``--engine both`` (the default) the per-warp reference and the
    vectorized cohort engine both run, their results, counters and
    storage are cross-checked bit for bit
    (:func:`repro.bench.protocols.engine_pair`), and the speedup is
    reported.

``faults``
    Run a seeded chaos session: a mixed insert/find/delete workload with
    fault injection at every site (lock-acquire storms, lock stalls,
    allocation failures, resize aborts), continuously differentially
    checked against a plain-dict model, with structural invariants
    verified per batch.  Prints a survival report;
    ``--script``/``--save-script`` replay or capture the exact fault
    sequence; ``--smoke`` is CI's fast robustness health check.

``scenarios``
    Run composed soak scenarios — YCSB mixes with hot-key storms,
    delete/reinsert churn under tight resize bands, seeded chaos fault
    plans with stash degradation, the sanitizer attached, and
    memory-budget eviction — and grade each against its latency SLO
    and structural invariants.  Every run emits a
    ``SCORECARD_<name>.json``; ``--list`` shows the registry,
    ``--matrix`` runs it all, ``--smoke`` is CI's scaled-down check
    with the dict oracle attached.

``demo``, ``dynamic``, and ``profile`` all take ``--seed`` (exact
reproducibility) and ``--json`` (machine-readable results on stdout
instead of the human-readable rendering).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

import numpy as np


def _emit_json(payload) -> None:
    """Print one machine-readable JSON document to stdout."""
    print(json.dumps(payload, indent=2, sort_keys=True))


def _print_problems(heading: str, problems: list[str]) -> None:
    """List ``problems`` on stderr under ``heading``."""
    print(f"{heading}:", file=sys.stderr)
    for problem in problems:
        print(f"  {problem}", file=sys.stderr)


def _cmd_info(_args) -> int:
    import repro
    from repro.core.config import PAPER_PARAMETERS
    from repro.gpusim import GTX_1080

    print(f"repro {repro.__version__} — DyCuckoo reproduction (ICDE 2021)")
    print(f"simulated device: {GTX_1080.name} "
          f"({GTX_1080.num_sms} SMs, {GTX_1080.total_cores} cores, "
          f"{GTX_1080.mem_bandwidth_gbps:.0f} GB/s, "
          f"{GTX_1080.device_memory_bytes / 2**30:.0f} GB)")
    print("paper defaults (Table 3):")
    for name, grid in PAPER_PARAMETERS.items():
        print(f"  {name}: default {grid['default']}, "
              f"settings {grid['settings']}")
    return 0


def _cmd_demo(args) -> int:
    from repro import DyCuckooConfig, DyCuckooTable

    table = DyCuckooTable(DyCuckooConfig())
    rng = np.random.default_rng(args.seed)
    keys = rng.permutation(np.arange(args.keys, dtype=np.uint64))
    table.insert(keys, keys * np.uint64(2))
    fill_after_insert = table.load_factor
    _values, found = table.find(keys[: args.keys // 2])
    hit_rate = float(found.mean()) if len(found) else 0.0
    table.delete(keys[: int(args.keys * 0.8)])
    table.validate()
    if args.json:
        _emit_json({
            "command": "demo",
            "seed": args.seed,
            "keys": args.keys,
            "inserted": args.keys,
            "live_entries": len(table),
            "fill_after_insert": fill_after_insert,
            "find_hit_rate": hit_rate,
            "fill_after_delete": table.load_factor,
            "stats": table.stats.snapshot(),
        })
        return 0
    print(f"inserted {args.keys:,} keys, filled factor "
          f"{fill_after_insert:.1%}")
    print(f"find hit rate: {hit_rate:.1%}")
    print(f"after deleting 80%: filled factor {table.load_factor:.1%} "
          f"({table.stats.downsizes} downsizes)")
    print("validate(): ok")
    return 0


def _cmd_datasets(args) -> int:
    from repro.bench import format_table
    from repro.workloads import ALL_DATASETS

    rows = []
    for spec in ALL_DATASETS:
        keys, _values = spec.generate(scale=args.scale, seed=args.seed)
        unique = len(np.unique(keys))
        rows.append([spec.name, f"{spec.total_pairs:,}",
                     f"{spec.unique_keys:,}", f"{len(keys):,}",
                     f"{unique:,}"])
    print(format_table(
        ["dataset", "paper KVs", "paper unique",
         f"KVs @ {args.scale}", f"unique @ {args.scale}"],
        rows, title="Table 2: datasets"))
    return 0


def _cmd_dynamic(args) -> int:
    from repro.baselines import DyCuckooAdapter, MegaKVTable, SlabHashTable
    from repro.baselines.slab import slab_buckets_for_fill
    from repro.bench import format_series, format_table, run_dynamic
    from repro.core.config import DyCuckooConfig
    from repro.gpusim.metrics import CostModel
    from repro.workloads import DynamicWorkload, dataset_by_name

    spec = dataset_by_name(args.dataset)
    keys, values = spec.generate(scale=args.scale, seed=args.seed)
    expected_live = max(1, len(np.unique(keys)) // 2)
    cost_model = CostModel(overhead_scale=args.scale)

    runs = {}
    for factory in (
            lambda: DyCuckooAdapter(DyCuckooConfig(initial_buckets=8)),
            lambda: MegaKVTable(initial_buckets=32),
            lambda: SlabHashTable(
                n_buckets=slab_buckets_for_fill(expected_live, 0.85))):
        table = factory()
        workload = DynamicWorkload(keys, values, batch_size=args.batch,
                                   ratio_r=args.ratio, seed=args.seed)
        runs[table.NAME] = run_dynamic(table, workload,
                                       cost_model=cost_model)

    if args.json:
        _emit_json({
            "command": "dynamic",
            "dataset": spec.name,
            "scale": args.scale,
            "batch": args.batch,
            "ratio": args.ratio,
            "seed": args.seed,
            "approaches": {
                name: {
                    "mops": run.mops,
                    "total_ops": run.total_ops,
                    "peak_memory_bytes": run.peak_memory_bytes,
                    "fill_series": run.fill_series,
                }
                for name, run in runs.items()
            },
        })
        return 0
    print(format_table(
        ["approach", "Mops", "peak MB"],
        [[name, run.mops, run.peak_memory_bytes / 1e6]
         for name, run in runs.items()],
        title=f"dynamic workload on {spec.name} "
              f"(scale {args.scale}, r={args.ratio}, batch {args.batch})"))
    print()
    print(format_series("filled factor per batch",
                        {name: run.fill_series for name, run in runs.items()},
                        lo=0.0, hi=1.0))
    return 0


def _cmd_profile(args) -> int:
    from repro import DyCuckooConfig, DyCuckooTable, Instruments
    from repro.baselines import DyCuckooAdapter
    from repro.bench import run_dynamic
    from repro.bench.protocols import presized_config, run_engine
    from repro.faults import FaultPlan
    from repro.gpusim.metrics import CostModel
    from repro.oracle import mixed_batch
    from repro.telemetry import (FlightRecorder, Profiler, format_summary,
                                 summarize_batches)
    from repro.telemetry.profiler import profile_operation
    from repro.telemetry.report import write_html_report
    from repro.workloads import DynamicWorkload, dataset_by_name

    smoke = args.smoke
    keys_n = 2_000 if smoke else args.keys
    deep_ops = 1_200 if smoke else args.ops
    scale, batch = (0.0005, 250) if smoke else (0.001, 500)

    # Phase 0 — derived per-batch metrics (the classic report).
    table = DyCuckooTable(DyCuckooConfig())
    rng = np.random.default_rng(args.seed)
    keys = rng.permutation(np.arange(keys_n, dtype=np.uint64))
    profiles = [
        profile_operation(table, "insert", table.insert, keys, keys),
        profile_operation(table, "find", table.find, keys),
        profile_operation(table, "delete", table.delete, keys),
    ]

    # Phase 1 — deep pass through the lane-faithful kernel engines:
    # occupancy/divergence timelines, lock heatmap, probe and chain
    # histograms.  With both engines the snapshots are cross-checked.
    # The hazard counters (rounds the cohort engine replayed in order
    # because carried keys coincide, and the lanes in them) are
    # engine-side cost telemetry, reported apart from the snapshots.
    engines = (["warp", "cohort"] if args.engine == "both"
               else [args.engine])
    deep_batch = mixed_batch(np.random.default_rng(args.seed), deep_ops)
    deep_config = presized_config(deep_ops, args.seed)
    deep = {engine: Profiler() for engine in engines}
    for engine, profiler in deep.items():
        run_engine(engine, *deep_batch, deep_config,
                   Instruments(profiler=profiler))
    snapshots = {engine: p.snapshot() for engine, p in deep.items()}
    hazard_counts = {engine: {"rounds": p.hazard_rounds,
                              "lanes": p.hazard_lanes}
                     for engine, p in deep.items()}

    # Phase 2 — dynamic pass with resizes: per-subtable fill timeline,
    # stash samples, and batch-latency percentiles on the simulated
    # clock.
    spec = dataset_by_name("COM")
    dyn_keys, dyn_values = spec.generate(scale=scale, seed=args.seed)
    adapter = DyCuckooAdapter(DyCuckooConfig(initial_buckets=8))
    dyn_profiler = Profiler()
    adapter.attach(Instruments(profiler=dyn_profiler))
    workload = DynamicWorkload(dyn_keys, dyn_values, batch_size=batch,
                               ratio_r=0.2, seed=args.seed)
    run = run_dynamic(adapter, workload,
                      cost_model=CostModel(overhead_scale=scale))
    latency = summarize_batches(run.batches)
    dynamic = dyn_profiler.snapshot()

    # Phase 3 — flight-recorder demonstration: a seeded fault plan that
    # aborts every resize trips the recorder and dumps bundles.
    rec_table = DyCuckooTable(DyCuckooConfig(initial_buckets=8))
    recorder = FlightRecorder()
    rec_table.attach(Instruments(
        profiler=Profiler(), recorder=recorder,
        faults=FaultPlan(seed=args.seed,
                         rates={"resize.abort.trigger": 1.0})))
    slots = rec_table.total_slots
    rec_keys = rng.permutation(
        np.arange(1, int(slots * 0.88) + 1, dtype=np.uint64))
    rec_table.insert(rec_keys, rec_keys)
    recorder_summary = recorder.summary()

    report = {
        "command": "profile",
        "seed": args.seed,
        "keys": keys_n,
        "ops": deep_ops,
        "profiles": [dataclasses.asdict(p) for p in profiles],
        "engines": snapshots,
        "hazards": hazard_counts,
        "dynamic": dynamic,
        "latency": latency,
        "recorder": recorder_summary,
    }
    if len(engines) == 2:
        report["conformant"] = snapshots["warp"] == snapshots["cohort"]

    written = None
    if args.html:
        written = write_html_report(args.html, report)
        report["html"] = written

    if args.json:
        _emit_json(report)
    else:
        for profile in profiles:
            print(profile)
        for engine in engines:
            snap = snapshots[engine]
            rounds = sum(len(k["rounds"]) for k in snap["kernels"])
            conflicts = sum(c["conflicts"] for c in snap["lock_heatmap"])
            hz = hazard_counts[engine]
            print(f"deep pass [{engine}]: {len(snap['kernels'])} kernels, "
                  f"{rounds} occupancy samples, "
                  f"{len(snap['lock_heatmap'])} heatmap cells "
                  f"({conflicts} conflicts), "
                  f"{hz['rounds']} hazard rounds "
                  f"({hz['lanes']} lanes), "
                  f"probe lengths {snap['probe_lengths']}, "
                  f"chain depths {snap['chain_depths']}")
        if "conformant" in report:
            print("engine snapshots: "
                  + ("identical" if report["conformant"] else "DIVERGENT"))
        print(f"dynamic pass: {len(run.batches)} batches, "
              f"{len(dynamic['fill_timeline'])} fill samples "
              f"({sum(1 for p in dynamic['fill_timeline'] if p['event'] != 'batch')} resizes)")
        print("batch latency: " + format_summary(latency))
        print(f"flight recorder: {recorder_summary['trips']} trips, "
              f"{recorder_summary['bundles']} bundles retained")
        if written:
            print(f"wrote {written}")

    problems: list[str] = []
    if smoke:
        for engine in engines:
            snap = snapshots[engine]
            if not any(k["rounds"] for k in snap["kernels"]):
                problems.append(f"{engine}: empty divergence timeline")
            if not snap["lock_heatmap"]:
                problems.append(f"{engine}: empty lock heatmap")
            if not snap["probe_lengths"]:
                problems.append(f"{engine}: empty probe-length histogram")
        if report.get("conformant") is False:
            problems.append("engine snapshots diverged")
        if not dynamic["fill_timeline"]:
            problems.append("dynamic pass recorded no fill timeline")
        if not latency["count"]:
            problems.append("no batch latency samples")
        if not recorder_summary["trips"]:
            problems.append("seeded fault plan never tripped the recorder")
        if problems:
            _print_problems("profile smoke check FAILED", problems)
            return 1
        if not args.json:
            print("profile smoke check ok")
    return 1 if problems else 0


def _cmd_trace(args) -> int:
    from repro import Instruments
    from repro.baselines import DyCuckooAdapter
    from repro.bench import run_dynamic
    from repro.core.config import DyCuckooConfig
    from repro.gpusim.metrics import CostModel
    from repro.telemetry import Telemetry
    from repro.telemetry.export import (prometheus_text, write_chrome_trace,
                                        write_jsonl)
    from repro.workloads import DynamicWorkload, dataset_by_name

    # --smoke: a fast fixed configuration with structural validation,
    # used as CI's telemetry health check.
    scale = 0.0005 if args.smoke else args.scale
    batch = 250 if args.smoke else args.batch

    spec = dataset_by_name(args.workload)
    keys, values = spec.generate(scale=scale, seed=args.seed)
    table = DyCuckooAdapter(DyCuckooConfig(initial_buckets=8))
    telemetry = Telemetry()
    table.attach(Instruments(telemetry=telemetry))
    workload = DynamicWorkload(keys, values, batch_size=batch,
                               ratio_r=args.ratio, seed=args.seed)
    run = run_dynamic(table, workload, cost_model=CostModel(
        overhead_scale=scale))

    out = args.out
    if out is None:
        out = f"trace_{spec.name.lower()}.json"
    tracer = telemetry.tracer
    path = write_chrome_trace(tracer, out, metadata={
        "workload": spec.name, "scale": scale, "batch": batch,
        "ratio": args.ratio, "seed": args.seed})
    written = [str(path)]
    if args.jsonl:
        written.append(str(write_jsonl(tracer, args.jsonl)))
    if args.metrics_out:
        with open(args.metrics_out, "w", encoding="utf-8") as handle:
            handle.write(prometheus_text(telemetry.metrics))
        written.append(args.metrics_out)

    summary = {
        "command": "trace",
        "workload": spec.name,
        "batches": len(run.batches),
        "mops": run.mops,
        "events": len(tracer.events),
        "spans": len(tracer.spans()),
        "resize_upsizes": len(tracer.spans("resize.upsize_epoch")),
        "resize_downsizes": len(tracer.spans("resize.downsize_epoch")),
        "resize_triggers": len(tracer.instants("resize.trigger")),
        "fill_samples": len(tracer.counters("fill.subtable")),
        "written": written,
    }
    if args.json:
        _emit_json(summary)
    else:
        print(f"{spec.name}: {summary['batches']} batches, "
              f"{run.mops:.1f} simulated Mops")
        print(f"trace: {summary['events']} events "
              f"({summary['spans']} spans, "
              f"{summary['resize_upsizes']} upsizes, "
              f"{summary['resize_downsizes']} downsizes, "
              f"{summary['fill_samples']} fill samples)")
        for item in written:
            print(f"wrote {item}")
        print("open in chrome://tracing or https://ui.perfetto.dev")

    if args.smoke:
        problems = []
        if summary["spans"] == 0:
            problems.append("no spans recorded")
        if summary["resize_upsizes"] == 0:
            problems.append(
                "no resize.upsize_epoch span (table never grew)")
        if summary["resize_triggers"] == 0:
            problems.append("no resize.trigger instant")
        if summary["fill_samples"] != len(run.batches):
            problems.append("fill gauge samples != batches")
        if problems:
            _print_problems("telemetry smoke check FAILED", problems)
            return 1
        print("telemetry smoke check ok")
    return 0


def _cmd_shard(args) -> int:
    from repro.bench import format_table, unit_fraction
    from repro.bench.protocols import (executor_check, shard_session,
                                       shard_stream)
    from repro.core.config import DyCuckooConfig
    from repro.oracle import mixed_batch

    keys, values = shard_stream(np.random.default_rng(args.seed), args.keys)
    config = DyCuckooConfig(initial_buckets=8)

    results, problems = [], []
    for num_shards in ((1, 2, 4, 8) if args.sweep else (args.shards,)):
        session = shard_session(num_shards, keys, values,
                                batch=args.batch, config=config)
        problems += [f"S={num_shards}: {p}" for p in session.problems]
        results.append({"num_shards": num_shards,
                        "shard_loads": session.table.shard_loads(),
                        "live_entries": len(session.table),
                        "report": session.report.to_dict()})
    payload = {"command": "shard", "keys": args.keys, "batch": args.batch,
               "seed": args.seed, "results": results}

    if args.parallel >= 2:
        # One untimed warm-up batch starts the pool; two timed follow.
        rng = np.random.default_rng(args.seed + 1)
        batches = [mixed_batch(rng, max(args.keys, 4)) for _ in range(3)]
        payload["parallel"] = executor_check(
            batches, num_shards=max(args.shards, 2), workers=args.parallel,
            config=config, warmup=1)
        problems += [f"parallel executor: {p}"
                     for p in payload["parallel"]["problems"]]
    payload["problems"] = problems

    if args.json:
        _emit_json(payload)
    else:
        print(format_table(
            ["S", "serial Mops", "parallel Mops", "speedup",
             "lock fraction", "shard loads"],
            [[r["num_shards"], r["report"]["serial_mops"],
              r["report"]["parallel_mops"], r["report"]["speedup"],
              unit_fraction(r["report"]["resize_lock_fraction"]),
              "/".join(str(n) for n in r["shard_loads"])]
             for r in results],
            title=f"sharded front-end: {args.keys:,} keys, "
                  f"batch {args.batch}"))
        pc = payload.get("parallel")
        if pc is not None:
            print(f"parallel executor ({pc['workers']} workers, "
                  f"S={pc['num_shards']}, median of {pc['batches']} warm "
                  f"batches): serial {pc['serial_seconds']:.3f}s, "
                  f"parallel {pc['parallel_seconds']:.3f}s")
        if not problems:
            print("differential check ok: every lane and the final "
                  "contents match the dict model")
    if problems:
        _print_problems("SHARD CHECK FAILED", problems)
    return 1 if problems else 0


def _cmd_kernel(args) -> int:
    from repro.bench.protocols import engine_pair, presized_config, run_engine
    from repro.oracle import mixed_batch

    n = args.ops
    ops, keys, values = mixed_batch(np.random.default_rng(args.seed), n)
    config = presized_config(n, args.seed)

    report = {"command": "kernel", "ops": n, "seed": args.seed,
              "buckets": config.initial_buckets,
              "bucket_capacity": config.bucket_capacity, "engines": {}}
    if args.engine == "both":
        runs, problems = engine_pair(ops, keys, values, config)
        report["conformant"] = not problems
        report["problems"] = problems
        report["speedup"] = (runs["warp"].seconds
                             / max(runs["cohort"].seconds, 1e-12))
    else:
        runs = {args.engine: run_engine(args.engine, ops, keys, values,
                                        config)}
        problems = []
    for engine, run in runs.items():
        report["engines"][engine] = {
            "seconds": run.seconds,
            "ops_per_sec": n / run.seconds if run.seconds else float("inf"),
            "runs": run.result.runs,
            **dataclasses.asdict(run.result.kernel),
        }

    if args.json:
        _emit_json(report)
    else:
        print(f"mixed batch: {n:,} ops over "
              f"{next(iter(runs.values())).result.runs} homogeneous runs "
              f"(seed {args.seed})")
        for engine, stats in report["engines"].items():
            print(f"  {engine:6s}: {stats['seconds']:.3f}s "
                  f"({stats['ops_per_sec']:,.0f} ops/s), "
                  f"{stats['rounds']} rounds, "
                  f"{stats['memory_transactions']} transactions, "
                  f"{stats['evictions']} evictions, "
                  f"{stats['lock_conflicts']} lock conflicts")
        if "speedup" in report:
            print(f"cohort speedup: {report['speedup']:.1f}x")
        if report.get("conformant"):
            print("conformance: results, storage, and cost counters "
                  "identical across engines")
    if problems:
        _print_problems("CONFORMANCE FAILED", problems)
    return 1 if problems else 0


def _cmd_faults(args) -> int:
    from repro import DyCuckooConfig, DyCuckooTable, Instruments
    from repro.core.analysis import check_invariants
    from repro.errors import CapacityError
    from repro.faults import FaultPlan, default_chaos_plan
    from repro.gpusim.memory_manager import DeviceMemoryManager
    from repro.kernels.insert import run_voter_insert_kernel
    from repro.oracle import DictModel

    batches = 10 if args.smoke else args.batches
    batch = 200 if args.smoke else args.batch
    keyspace = max(batch * 4, args.keyspace)

    if args.script:
        with open(args.script, encoding="utf-8") as handle:
            plan = FaultPlan.from_script(handle.read())
    else:
        plan = default_chaos_plan(seed=args.seed, intensity=args.intensity)

    config = DyCuckooConfig(initial_buckets=16, bucket_capacity=8,
                            min_buckets=8)
    table = DyCuckooTable(config)
    table.attach(Instruments(faults=plan))

    # Phase 1: differential chaos on the vectorized table — every batch
    # is checked against a plain-dict model and the invariant suite.
    model = DictModel()
    rng = np.random.default_rng(args.seed)
    problems: list[str] = []
    for index in range(batches):
        keys = rng.integers(0, keyspace, batch).astype(np.uint64)
        values = rng.integers(0, 1 << 32, batch).astype(np.uint64)
        diverged = model.apply(table, "insert", keys, values)
        diverged += model.apply(table, "find", rng.integers(
            0, keyspace, batch // 2).astype(np.uint64))
        diverged += model.apply(table, "delete", rng.integers(
            0, keyspace, batch // 4).astype(np.uint64))
        problems.extend(f"batch {index}: {problem}" for problem in diverged)
        try:
            check_invariants(table)
        except AssertionError as exc:
            problems.append(f"batch {index}: invariant violated: {exc}")
    problems.extend(f"final state: {problem}"
                    for problem in model.divergence(table))
    total_ops = batches * (batch + batch // 2 + batch // 4)

    # Phase 2: the lane-level voter kernel under lock faults (the
    # vectorized path never consults the lock sites).
    kernel_table = DyCuckooTable(DyCuckooConfig(
        initial_buckets=64, bucket_capacity=8, min_buckets=8,
        auto_resize=False))
    kernel_table.attach(Instruments(faults=plan))
    kernel_keys = np.unique(rng.integers(0, 1 << 40, 512).astype(np.uint64))
    kernel_result = run_voter_insert_kernel(kernel_table, kernel_keys,
                                            kernel_keys + np.uint64(1),
                                            engine=args.engine)
    _kv, kernel_found = kernel_table.find(kernel_keys)
    if not bool(kernel_found.all()):
        problems.append(
            f"voter kernel lost {int((~kernel_found).sum())} inserts")

    # Phase 3: the device memory manager.
    manager = DeviceMemoryManager(faults=plan)
    alloc_failures = 0
    for step in range(1, 51):
        try:
            manager.set_allocation("table", step * 1_000_000)
        except CapacityError:
            alloc_failures += 1

    counts = plan.fired_by_site()
    invocations = plan.invocations()
    report = {
        "command": "faults",
        "seed": plan.seed,
        "mode": "script" if args.script else "chaos",
        "batches": batches,
        "total_ops": total_ops,
        "live_entries": len(table),
        "stash_entries": len(table.stash),
        "faults_fired": len(plan.fired),
        "fired_by_site": counts,
        "invocations_by_site": invocations,
        "resize_aborts": table.stats.resize_aborts,
        "stash_pushes": table.stats.stash_pushes,
        "stash_drained": table.stats.stash_drained,
        "kernel_rounds": kernel_result.rounds,
        "kernel_lock_conflicts": kernel_result.lock_conflicts,
        "injected_alloc_failures": manager.injected_failures,
        "problems": problems,
        "survived": not problems,
    }
    if args.save_script:
        with open(args.save_script, "w", encoding="utf-8") as handle:
            handle.write(plan.script_json())
        report["script"] = args.save_script

    if args.json:
        _emit_json(report)
    else:
        print(f"chaos session: {total_ops:,} table ops over {batches} "
              f"batches, seed {plan.seed}")
        print(f"faults fired: {len(plan.fired)} across "
              f"{len(counts)} sites")
        for site in sorted(invocations):
            print(f"  {site}: {counts.get(site, 0)} fired / "
                  f"{invocations[site]} invocations")
        print(f"recovery: {table.stats.resize_aborts} resize aborts, "
              f"{table.stats.stash_pushes} keys stashed, "
              f"{table.stats.stash_drained} drained back, "
              f"{len(table.stash)} still stashed")
        outcome = ("no lost inserts" if bool(kernel_found.all())
                   else "LOST INSERTS")
        print(f"voter kernel: {kernel_result.rounds} rounds, "
              f"{kernel_result.lock_conflicts} lock conflicts, {outcome}")
        if args.save_script:
            print(f"wrote fault script to {args.save_script}")
        if problems:
            _print_problems("SURVIVAL CHECK FAILED", problems)
        else:
            print("survival check ok: zero divergences, all invariants held")
    return 1 if problems else 0


def _cmd_sanitize(args) -> int:
    from repro.sanitizer.audit import run_clean_audit, run_fixture_suite
    from repro.sanitizer.contracts import check_paths
    from repro.sanitizer.lint import lint_paths

    # Pass selectors, compute-sanitizer --tool style: any selector
    # restricts the run to the named passes; none selected runs the
    # whole six-pass suite.
    dynamic_sel = {name for name in ("memcheck", "initcheck", "synccheck")
                   if getattr(args, name)}
    static_sel = {name for name in ("lint", "contracts")
                  if getattr(args, name)}
    run_all = not (dynamic_sel or static_sel or args.fixtures)
    smoke = args.smoke
    report: dict = {"command": "sanitize"}
    problems: list[str] = []

    if run_all or args.fixtures or dynamic_sel:
        suite_passes = (None if run_all or args.fixtures
                        else dynamic_sel | static_sel)
        fixtures = run_fixture_suite(passes=suite_passes)
        report["fixtures"] = fixtures
        if not fixtures["ok"]:
            for name, res in fixtures["fixtures"].items():
                if not res["ok"]:
                    problems.append(
                        f"fixture '{name}' expected {res['expected']} "
                        f"but detected {res['detected']}")

    if run_all or dynamic_sel:
        engines = (("warp", "cohort") if args.engine == "both"
                   else (args.engine,))
        ops = 256 if smoke else args.ops
        audit = run_clean_audit(ops=ops, seed=args.seed, engines=engines,
                                passes=None if run_all else dynamic_sel)
        report["audit"] = audit
        if not audit["ok"]:
            for phase, res in audit["phases"].items():
                for v in res["violations"]:
                    problems.append(f"{phase}: {v['pass']}:{v['kind']} "
                                    f"{v['message']}")
                if res["subtable_locks_held"]:
                    problems.append(
                        f"{phase}: {res['subtable_locks_held']} subtable "
                        "lock(s) still held after the audit")
        if run_all and audit["injected_events"] == 0:
            problems.append("fault phase injected nothing — the "
                            "intentional-fault classification went "
                            "unexercised")

    if run_all or "lint" in static_sel:
        findings = lint_paths()
        report["lint"] = {
            "findings": [str(f) for f in findings],
            "ok": not findings,
        }
        problems.extend(str(f) for f in findings)

    if run_all or "contracts" in static_sel:
        cfindings = check_paths()
        report["contracts"] = {
            "findings": [str(f) for f in cfindings],
            "ok": not cfindings,
        }
        problems.extend(str(f) for f in cfindings)

    report["problems"] = problems
    report["ok"] = not problems

    if args.json:
        _emit_json(report)
    else:
        if "fixtures" in report:
            n = len(report["fixtures"]["fixtures"])
            good = sum(1 for r in report["fixtures"]["fixtures"].values()
                       if r["ok"])
            print(f"fixtures: {good}/{n} seeded violations detected "
                  "with round/warp attribution")
        if "audit" in report:
            audit = report["audit"]
            for phase, res in audit["phases"].items():
                stats = res["stats"]
                print(f"{phase}: {stats['accesses']} accesses over "
                      f"{stats['rounds']} rounds, "
                      f"{stats['lock_acquires']} lock acquires, "
                      f"{len(res['violations'])} violations")
            print(f"fault classification: "
                  f"{audit['injected_events']} injected events counted "
                  "as intentional")
        if "lint" in report:
            n_lint = len(report["lint"]["findings"])
            print(f"determinism lint: {n_lint} finding(s) in src/repro")
        if "contracts" in report:
            n_con = len(report["contracts"]["findings"])
            print(f"protocol contracts: {n_con} finding(s) in "
                  "kernel/engine/resize code")
        if problems:
            _print_problems("SANITIZE FAILED", problems)
        else:
            print("sanitize ok: zero violations, all selected seeded "
                  "fixtures detected, static passes clean")
    return 1 if problems else 0


def _scenario_row(card: dict) -> str:
    lat = card["latency"]
    extras = []
    if card["faults"]["enabled"]:
        extras.append(f"faults={card['faults']['fired']}")
    if card["stash"]["high_water"]:
        extras.append(f"stash_hw={card['stash']['high_water']}")
    if card["memory"]["budget_bytes"] is not None:
        extras.append(f"evicted={card['memory']['evictions']}")
    if card["sanitizer"]["enabled"]:
        extras.append("san=" + ("ok" if card["sanitizer"]["ok"]
                                else "VIOLATED"))
    resizes = card["resizes"]
    extras.append(f"resizes={resizes['upsizes']}+{resizes['downsizes']}"
                  f"/{resizes['aborts']}ab")
    return (f"{card['name']:<24} {card['verdict']:<4} "
            f"p50 {lat['p50']:6.1f}  p99 {lat['p99']:7.1f}  "
            f"worst {lat['worst']:8.1f} ns/op  " + "  ".join(extras))


def _cmd_scenarios(args) -> int:
    from repro.scenarios import (REGISTRY, get_scenario, run_scenario,
                                 validate_scorecard)

    if args.list or not (args.run or args.matrix or args.smoke):
        if args.json:
            _emit_json([{"name": s.name,
                         "description": s.description,
                         "composition": s.composition()}
                        for s in REGISTRY.values()])
            return 0
        print(f"{len(REGISTRY)} registered scenarios "
              f"(axes: storm/churn/faults/sanitizer/budget/shards)")
        for spec in REGISTRY.values():
            axes = [axis for axis, on in spec.composition().items()
                    if on and axis != "skew"]
            tag = f" [{', '.join(axes)}]" if axes else ""
            print(f"  {spec.name:<24} {spec.description}{tag}")
        return 0

    if args.smoke:
        specs = list(REGISTRY.values())
        scale = args.scale if args.scale is not None else 0.02
        differential = True
        out_dir = args.out_dir  # smoke writes only when asked
    else:
        specs = ([get_scenario(args.run)] if args.run
                 else list(REGISTRY.values()))
        scale = args.scale if args.scale is not None else 1.0
        differential = args.differential
        out_dir = args.out_dir or "scorecards"

    if args.sanitize:
        # Nightly soak: every selected scenario runs with the full
        # six-pass sanitizer attached (specs are frozen; derive).
        specs = [dataclasses.replace(spec, sanitizer=True)
                 for spec in specs]

    problems: list[str] = []
    cards = []
    for spec in specs:
        card = run_scenario(spec, scale=scale, out_dir=out_dir,
                            differential=differential)
        cards.append(card)
        schema_problems = validate_scorecard(card)
        problems.extend(f"{spec.name}: {p}" for p in schema_problems)
        if card["verdict"] != "pass":
            problems.extend(f"{spec.name}: {p}"
                            for p in card["problems"])
        if not args.json:
            print(_scenario_row(card))

    if args.json:
        _emit_json(cards if len(cards) > 1 else cards[0])
    else:
        passed = sum(1 for c in cards if c["verdict"] == "pass")
        print(f"\n{passed}/{len(cards)} scenarios passed "
              f"at scale {scale}"
              + (f"; scorecards in {out_dir}/" if out_dir else ""))
        if problems:
            _print_problems("SCENARIOS FAILED", problems)
    return 1 if problems else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="DyCuckoo reproduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="library and device information")

    demo = sub.add_parser("demo", help="small end-to-end demonstration")
    demo.add_argument("--keys", type=int, default=100_000)
    demo.add_argument("--seed", type=int, default=0,
                      help="RNG seed for exact reproducibility")
    demo.add_argument("--json", action="store_true",
                      help="machine-readable JSON on stdout")

    datasets = sub.add_parser("datasets", help="Table 2 dataset statistics")
    datasets.add_argument("--scale", type=float, default=0.001)
    datasets.add_argument("--seed", type=int, default=0)

    dynamic = sub.add_parser("dynamic", help="dynamic-workload comparison")
    dynamic.add_argument("--dataset", default="COM")
    dynamic.add_argument("--scale", type=float, default=0.001)
    dynamic.add_argument("--batch", type=int, default=1000)
    dynamic.add_argument("--ratio", type=float, default=0.2)
    dynamic.add_argument("--seed", type=int, default=0,
                         help="RNG seed for exact reproducibility")
    dynamic.add_argument("--json", action="store_true",
                         help="machine-readable JSON on stdout")

    profile = sub.add_parser(
        "profile", help="deep-profile DyCuckoo kernels; write a report")
    profile.add_argument("--keys", type=int, default=100_000,
                         help="keys for the per-batch derived metrics pass")
    profile.add_argument("--ops", type=int, default=4_000,
                         help="mixed operations for the deep kernel pass")
    profile.add_argument("--engine", choices=["warp", "cohort", "both"],
                         default="both",
                         help="execution engine(s) for the deep pass; "
                              "'both' cross-checks the snapshots")
    profile.add_argument("--html", default=None, metavar="PATH",
                         help="write a self-contained HTML report")
    profile.add_argument("--smoke", action="store_true",
                         help="fast built-in configuration; fail unless "
                              "the report has the expected structure")
    profile.add_argument("--seed", type=int, default=0,
                         help="RNG seed for exact reproducibility")
    profile.add_argument("--json", action="store_true",
                         help="machine-readable JSON on stdout")

    trace = sub.add_parser(
        "trace", help="run a workload with telemetry; write a Chrome trace")
    trace.add_argument("workload", nargs="?", default="COM",
                       help="dataset name (see `repro datasets`)")
    trace.add_argument("--scale", type=float, default=0.001)
    trace.add_argument("--batch", type=int, default=1000)
    trace.add_argument("--ratio", type=float, default=0.2)
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument("--out", default=None,
                       help="Chrome-trace output path "
                            "(default trace_<workload>.json)")
    trace.add_argument("--jsonl", default=None,
                       help="also write a JSON-lines event log here")
    trace.add_argument("--metrics-out", default=None,
                       help="also write Prometheus-format metrics here")
    trace.add_argument("--json", action="store_true",
                       help="machine-readable summary on stdout")
    trace.add_argument("--smoke", action="store_true",
                       help="fast run + structural validation (CI check)")

    shard = sub.add_parser(
        "shard", help="sharded front-end: differential check + speedup")
    shard.add_argument("--shards", type=int, default=4,
                       help="shard count S (power of two)")
    shard.add_argument("--sweep", action="store_true",
                       help="scan S in {1, 2, 4, 8} instead of --shards")
    shard.add_argument("--keys", type=int, default=20_000)
    shard.add_argument("--batch", type=int, default=1000)
    shard.add_argument("--seed", type=int, default=0,
                       help="RNG seed for exact reproducibility")
    shard.add_argument("--parallel", type=int, default=0, metavar="W",
                       help="also run a mixed batch through the "
                            "process-pool shard executor with W workers "
                            "and differentially check it against serial")
    shard.add_argument("--json", action="store_true",
                       help="machine-readable JSON on stdout")

    kernel = sub.add_parser(
        "kernel", help="lane-faithful kernel engines on a mixed batch")
    kernel.add_argument("--ops", type=int, default=10_000,
                        help="operations in the mixed batch")
    kernel.add_argument("--engine", choices=("warp", "cohort", "both"),
                        default="both",
                        help="execution engine ('both' cross-checks and "
                             "reports the speedup)")
    kernel.add_argument("--seed", type=int, default=0,
                        help="RNG seed for exact reproducibility")
    kernel.add_argument("--json", action="store_true",
                        help="machine-readable JSON on stdout")

    faults = sub.add_parser(
        "faults", help="seeded chaos session with a survival report")
    faults.add_argument("--seed", type=int, default=0,
                        help="chaos seed (exact replay with same seed)")
    faults.add_argument("--batches", type=int, default=40,
                        help="mixed-op batches to run")
    faults.add_argument("--batch", type=int, default=500,
                        help="inserts per batch (finds/deletes scale off it)")
    faults.add_argument("--keyspace", type=int, default=0,
                        help="key domain size (default 4x batch)")
    faults.add_argument("--intensity", type=float, default=1.0,
                        help="scale factor on all default fault rates")
    faults.add_argument("--script", default=None,
                        help="replay a fault script (JSON file) instead of "
                             "seeded chaos")
    faults.add_argument("--save-script", default=None,
                        help="write the fired fault script here for replay")
    faults.add_argument("--json", action="store_true",
                        help="machine-readable survival report on stdout")
    faults.add_argument("--smoke", action="store_true",
                        help="fast fixed configuration (CI robustness check)")
    faults.add_argument("--engine", choices=("warp", "cohort"),
                        default="warp",
                        help="kernel engine for the lane-level phase; "
                             "both engines run fault plans natively and "
                             "make the same fault decisions")

    scenarios = sub.add_parser(
        "scenarios", help="composed soak scenarios with JSON scorecards "
                          "(chaos + skew + churn + memory pressure)")
    scenarios.add_argument("--list", action="store_true",
                           help="list the registered scenarios")
    scenarios.add_argument("--run", metavar="NAME", default=None,
                           help="run one named scenario")
    scenarios.add_argument("--matrix", action="store_true",
                           help="run every registered scenario")
    scenarios.add_argument("--smoke", action="store_true",
                           help="scaled-down matrix with the dict oracle "
                                "attached (CI health check)")
    scenarios.add_argument("--scale", type=float, default=None,
                           help="workload scale factor "
                                "(default 1.0; --smoke defaults to 0.02)")
    scenarios.add_argument("--out-dir", default=None,
                           help="directory for SCORECARD_<name>.json "
                                "(default scorecards/; --smoke writes "
                                "only when set)")
    scenarios.add_argument("--differential", action="store_true",
                           help="mirror every op into a dict oracle "
                                "(slow at full scale)")
    scenarios.add_argument("--sanitize", action="store_true",
                           help="attach the full sanitizer to every "
                                "selected scenario (nightly soak)")
    scenarios.add_argument("--json", action="store_true",
                           help="machine-readable scorecards on stdout")

    sanitize = sub.add_parser(
        "sanitize", help="SIMT sanitizer: six-pass suite (racecheck, "
                         "lockcheck, memcheck, initcheck, synccheck, "
                         "lint+contracts)")
    sanitize.add_argument("--ops", type=int, default=512,
                          help="operations per audited kernel workload")
    sanitize.add_argument("--seed", type=int, default=0,
                          help="RNG seed for exact reproducibility")
    sanitize.add_argument("--engine", choices=("warp", "cohort", "both"),
                          default="both",
                          help="kernel engine(s) to audit")
    sanitize.add_argument("--lint", action="store_true",
                          help="run the determinism lint over src/repro")
    sanitize.add_argument("--contracts", action="store_true",
                          help="run the static protocol-contract "
                               "analyzer over kernel/engine/resize code")
    sanitize.add_argument("--memcheck", action="store_true",
                          help="restrict dynamic passes to memcheck")
    sanitize.add_argument("--initcheck", action="store_true",
                          help="restrict dynamic passes to initcheck")
    sanitize.add_argument("--synccheck", action="store_true",
                          help="restrict dynamic passes to synccheck")
    sanitize.add_argument("--fixtures", action="store_true",
                          help="run only the seeded-violation fixtures "
                               "(all six passes)")
    sanitize.add_argument("--smoke", action="store_true",
                          help="fast fixed configuration (CI check)")
    sanitize.add_argument("--json", action="store_true",
                          help="machine-readable JSON on stdout")

    return parser


_COMMANDS = {
    "info": _cmd_info,
    "demo": _cmd_demo,
    "datasets": _cmd_datasets,
    "dynamic": _cmd_dynamic,
    "profile": _cmd_profile,
    "trace": _cmd_trace,
    "shard": _cmd_shard,
    "kernel": _cmd_kernel,
    "faults": _cmd_faults,
    "sanitize": _cmd_sanitize,
    "scenarios": _cmd_scenarios,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
