"""Tests for the telemetry subsystem: tracer, metrics, exporters, wiring.

Covers the observability contract end to end:

* span nesting and ordering on the logical clock,
* histogram bucket-edge semantics,
* Chrome-trace export round-trip (emit -> parse JSON -> validate the
  ``ph``/``ts``/``dur`` invariants Perfetto relies on),
* the zero-overhead guarantee of the no-op default: no events, and no
  counter or content drift versus an uninstrumented run,
* the resize lifecycle (trigger -> plan -> rehash -> spill) appearing as
  properly nested spans in a real table run.
"""

import json

import numpy as np
import pytest

from repro.baselines import DyCuckooAdapter
from repro.bench import maybe_dump_trace, run_dynamic
from repro.bench.artifacts import ENV_VAR
from repro.core.analysis import check_invariants
from repro.core.config import DyCuckooConfig
from repro.core.instruments import Instruments
from repro.core.table import DyCuckooTable
from repro.errors import InvalidConfigError
from repro.gpusim.metrics import CostModel
from repro.telemetry import (NULL_TELEMETRY, NULL_TRACER, MetricsRegistry,
                             Telemetry, Tracer)
from repro.telemetry.export import (prometheus_text,
                                    write_chrome_trace, write_jsonl)
from repro.telemetry.metrics import Histogram
from repro.workloads import DynamicWorkload, dataset_by_name

from tests.conftest import unique_keys


class TestTracerSpans:
    def test_span_nesting_depth_and_containment(self):
        tracer = Tracer()
        with tracer.span("outer"):
            tracer.instant("inside-outer")
            with tracer.span("inner"):
                tracer.instant("inside-inner")
        outer, = tracer.spans("outer")
        inner, = tracer.spans("inner")
        assert outer.depth == 0
        assert inner.depth == 1
        assert tracer.instants("inside-outer")[0].depth == 1
        assert tracer.instants("inside-inner")[0].depth == 2
        # Interval containment: the inner span lies inside the outer.
        assert outer.ts_us <= inner.ts_us
        assert inner.ts_us + inner.dur_us <= outer.ts_us + outer.dur_us

    def test_sibling_spans_do_not_overlap(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        a, = tracer.spans("a")
        b, = tracer.spans("b")
        assert a.ts_us + a.dur_us <= b.ts_us

    def test_event_order_is_strict(self):
        tracer = Tracer()
        for i in range(10):
            tracer.instant(f"e{i}")
        stamps = [e.ts_us for e in tracer.events]
        assert stamps == sorted(stamps)
        assert len(set(stamps)) == len(stamps)

    def test_advance_moves_clock(self):
        tracer = Tracer()
        tracer.instant("before")
        tracer.advance(1.5e-3)  # 1.5 ms
        tracer.instant("after")
        before, after = tracer.events
        assert after.ts_us - before.ts_us >= 1500.0

    def test_span_closed_by_exception_unwind(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    raise RuntimeError("boom")
        assert all(e.dur_us > 0 for e in tracer.spans())
        # The stack fully unwound: a new span starts at depth 0.
        with tracer.span("next"):
            pass
        assert tracer.spans("next")[0].depth == 0

    def test_counter_accepts_scalar_and_mapping(self):
        tracer = Tracer()
        tracer.counter("x", 2)
        tracer.counter("y", {"s0": 0.5, "s1": 0.25})
        x, y = tracer.counters()
        assert x.args == {"value": 2.0}
        assert y.args == {"s0": 0.5, "s1": 0.25}


class TestHistogram:
    def test_bucket_edges_are_inclusive_upper_bounds(self):
        hist = Histogram("h", buckets=(1.0, 2.0, 4.0))
        for value in (0.5, 1.0):      # <= 1 -> bucket 0
            hist.observe(value)
        for value in (1.01, 2.0):     # (1, 2] -> bucket 1
            hist.observe(value)
        hist.observe(3.0)             # (2, 4] -> bucket 2
        hist.observe(4.5)             # > 4 -> overflow
        assert hist.counts.tolist() == [2, 2, 1, 1]
        assert hist.total == 6
        assert hist.sum == pytest.approx(0.5 + 1.0 + 1.01 + 2.0 + 3.0 + 4.5)

    def test_observe_many_matches_scalar_path(self):
        values = np.array([0.0, 1.0, 1.5, 2.0, 7.9, 100.0])
        one_by_one = Histogram("a", buckets=(1.0, 2.0, 8.0))
        for v in values:
            one_by_one.observe(float(v))
        vectorized = Histogram("b", buckets=(1.0, 2.0, 8.0))
        vectorized.observe_many(values)
        assert one_by_one.counts.tolist() == vectorized.counts.tolist()
        assert one_by_one.sum == pytest.approx(vectorized.sum)

    def test_observe_count(self):
        hist = Histogram("h", buckets=(1.0, 2.0))
        hist.observe_count(2.0, 5)
        hist.observe_count(9.0, 2)
        hist.observe_count(1.0, 0)  # no-op
        assert hist.counts.tolist() == [0, 5, 2]
        assert hist.total == 7

    def test_cumulative_ends_at_inf_with_total(self):
        hist = Histogram("h", buckets=(1.0, 2.0))
        hist.observe_many([0.5, 1.5, 3.0, 9.0])
        pairs = hist.cumulative()
        assert pairs[-1][0] == float("inf")
        assert pairs[-1][1] == hist.total
        counts = [c for _b, c in pairs]
        assert counts == sorted(counts)  # cumulative is non-decreasing

    def test_rejects_bad_buckets(self):
        with pytest.raises(InvalidConfigError):
            Histogram("h", buckets=(2.0, 1.0))
        with pytest.raises(InvalidConfigError):
            Histogram("h", buckets=())


class TestMetricsRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("c") is registry.counter("c")
        assert registry.gauge("g") is registry.gauge("g")
        assert registry.histogram("h") is registry.histogram("h")

    def test_counter_cannot_decrease(self):
        registry = MetricsRegistry()
        with pytest.raises(InvalidConfigError):
            registry.counter("c").inc(-1)

    def test_gauge_keeps_series(self):
        gauge = MetricsRegistry().gauge("fill")
        for v in (0.1, 0.5, 0.3):
            gauge.set(v)
        assert gauge.value == pytest.approx(0.3)
        assert gauge.series == pytest.approx([0.1, 0.5, 0.3])

    def test_to_dict_shape(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(3)
        registry.gauge("g").set(0.5)
        registry.histogram("h", (1.0,)).observe(0.5)
        snapshot = registry.to_dict()
        assert snapshot["counters"] == {"c": 3}
        assert snapshot["gauges"]["g"]["value"] == 0.5
        assert snapshot["histograms"]["h"]["count"] == 1


def _traced_run(num_keys: int = 6000):
    """A small instrumented insert/find/delete cycle; returns telemetry."""
    table = DyCuckooTable(DyCuckooConfig(initial_buckets=8,
                                         bucket_capacity=8, min_buckets=8))
    telemetry = Telemetry()
    table.attach(Instruments(telemetry=telemetry))
    keys = unique_keys(num_keys, seed=3)
    table.insert(keys, keys)
    table.find(keys[: num_keys // 2])
    table.delete(keys[: int(num_keys * 0.9)])
    return table, telemetry


class TestChromeExport:
    def test_round_trip_invariants(self, tmp_path):
        _table, telemetry = _traced_run()
        path = write_chrome_trace(telemetry.tracer, tmp_path / "t.json",
                                  metadata={"run": "test"})
        parsed = json.loads(path.read_text())
        events = parsed["traceEvents"]
        assert parsed["otherData"] == {"run": "test"}
        assert len(events) == len(telemetry.tracer.events)
        last_ts = -1.0
        for record in events:
            assert record["ph"] in ("X", "i", "C")
            assert isinstance(record["name"], str) and record["name"]
            assert record["ts"] >= 0
            assert record["pid"] == 0 and record["tid"] == 0
            # Emission order is timestamp order on the logical clock.
            assert record["ts"] >= last_ts
            last_ts = record["ts"]
            if record["ph"] == "X":
                assert record["dur"] > 0
            if record["ph"] == "i":
                assert record["s"] == "t"
            if record["ph"] == "C":
                assert all(isinstance(v, float)
                           for v in record["args"].values())

    def test_span_tree_is_well_nested(self):
        _table, telemetry = _traced_run()
        spans = telemetry.tracer.spans()
        assert spans, "expected spans from an instrumented run"
        stack = []
        for span in spans:  # emission order = start order
            end = span.ts_us + span.dur_us
            while stack and span.ts_us >= stack[-1]:
                stack.pop()
            if stack:
                assert end <= stack[-1] + 1e-9, "overlapping sibling spans"
            stack.append(end)

    def test_jsonl_export(self, tmp_path):
        _table, telemetry = _traced_run(2000)
        path = write_jsonl(telemetry.tracer, tmp_path / "events.jsonl")
        lines = path.read_text().splitlines()
        assert len(lines) == len(telemetry.tracer.events)
        first = json.loads(lines[0])
        assert {"name", "cat", "ph", "ts_us", "dur_us", "depth",
                "args"} <= set(first)


class TestPrometheusExport:
    def test_exposition_format(self):
        registry = MetricsRegistry()
        registry.counter("lock.conflicts").inc(4)
        registry.gauge("fill.global").set(0.625)
        hist = registry.histogram("probe_length", (1.0, 2.0))
        hist.observe_count(1.0, 8)
        hist.observe_count(2.0, 2)
        text = prometheus_text(registry)
        assert "# TYPE lock_conflicts counter\nlock_conflicts 4" in text
        assert "# TYPE fill_global gauge\nfill_global 0.625" in text
        assert 'probe_length_bucket{le="1"} 8' in text
        assert 'probe_length_bucket{le="2"} 10' in text
        assert 'probe_length_bucket{le="+Inf"} 10' in text
        assert "probe_length_sum 12" in text
        assert "probe_length_count 10" in text
        assert text.endswith("\n")

    def test_names_are_sanitized(self):
        registry = MetricsRegistry()
        registry.counter("resize.upsizes-total").inc()
        text = prometheus_text(registry)
        assert "resize_upsizes_total 1" in text


class TestZeroOverhead:
    def test_default_table_has_null_telemetry(self):
        table = DyCuckooTable()
        assert table.telemetry is NULL_TELEMETRY
        assert not table.telemetry.enabled
        assert table.telemetry.tracer is NULL_TRACER

    def test_null_tracer_records_nothing(self):
        with NULL_TRACER.span("anything", x=1):
            NULL_TRACER.instant("nothing")
            NULL_TRACER.counter("zero", 1)
        NULL_TRACER.advance(5.0)
        assert NULL_TRACER.events == ()
        assert NULL_TRACER.spans() == []
        assert NULL_TRACER.instants() == []
        assert NULL_TRACER.counters() == []

    def test_no_counter_drift_versus_uninstrumented_run(self):
        config = DyCuckooConfig(initial_buckets=8, bucket_capacity=8,
                                min_buckets=8)
        keys = unique_keys(8000, seed=11)

        plain = DyCuckooTable(config)
        traced = DyCuckooTable(config)
        traced.attach(Instruments(telemetry=Telemetry()))
        for table in (plain, traced):
            table.insert(keys, keys * np.uint64(3))
            table.find(keys[:4000])
            table.delete(keys[:7000])
            table.validate()
        # Identical event counters -> identical simulated time/Mops.
        assert plain.stats.snapshot() == traced.stats.snapshot()
        assert plain.to_dict() == traced.to_dict()
        # And the instrumented run did record telemetry.
        assert len(traced.telemetry.tracer.events) > 0

    def test_identical_simulated_seconds_under_runner(self):
        spec = dataset_by_name("COM")
        keys, values = spec.generate(scale=0.0003, seed=5)
        results = []
        for instrument in (False, True):
            table = DyCuckooAdapter(DyCuckooConfig(initial_buckets=8))
            if instrument:
                table.attach(Instruments(telemetry=Telemetry()))
            workload = DynamicWorkload(keys, values, batch_size=200, seed=5)
            run = run_dynamic(table, workload,
                              cost_model=CostModel(overhead_scale=0.0003))
            results.append(run)
        plain, traced = results
        assert plain.total_seconds == traced.total_seconds
        assert plain.mops == traced.mops
        assert plain.fill_series == traced.fill_series


class TestResizeLifecycle:
    """Resize metrics mirror the table's counters."""

    def test_metrics_mirror_stats(self):
        table, telemetry = _traced_run()
        counters = telemetry.metrics.counters
        assert counters["resize.upsizes"].value == table.stats.upsizes
        assert counters["resize.downsizes"].value == table.stats.downsizes
        assert counters["evictions"].value == table.stats.evictions
        assert (counters["lock.acquisitions"].value
                == table.stats.lock_acquisitions)
        assert counters["lock.conflicts"].value == table.stats.lock_conflicts
        hist = telemetry.metrics.histograms["probe_length"]
        assert hist.total == table.stats.finds


class TestEpochLifecycle:
    """Incremental (default) resize lifecycle: epoch spans and slices."""

    def test_upsize_epoch_spans_and_slices(self):
        table = DyCuckooTable(DyCuckooConfig(initial_buckets=8,
                                             bucket_capacity=8,
                                             min_buckets=8))
        telemetry = Telemetry()
        table.attach(Instruments(telemetry=telemetry))
        keys = unique_keys(4000, seed=7)
        table.insert(keys, keys)
        tracer = telemetry.tracer
        epochs = tracer.spans("resize.upsize_epoch")
        assert len(epochs) == table.stats.upsizes > 0
        assert len(tracer.spans("resize.plan")) >= len(epochs)
        # No whole-subtable rehash span: entries moved in bounded slices.
        assert not tracer.spans("resize.rehash")
        assert table.stats.migration_slices > 0
        migrates = tracer.instants("resize.migrate")
        assert len(migrates) == table.stats.migration_slices
        # Every epoch except possibly the newest (still draining across
        # future batches) has completed and closed its dual view.
        completes = tracer.instants("resize.epoch_complete")
        assert len(completes) >= len(epochs) - 1
        open_epochs = sum(st.migration is not None
                          for st in table.subtables)
        assert len(completes) + open_epochs == len(epochs)
        table.finalize_resizes()
        assert all(st.migration is None for st in table.subtables)
        check_invariants(table)

    def test_downsize_epoch_completes(self):
        table = DyCuckooTable(DyCuckooConfig(initial_buckets=8,
                                             bucket_capacity=8,
                                             min_buckets=8))
        telemetry = Telemetry()
        table.attach(Instruments(telemetry=telemetry))
        keys = unique_keys(6000, seed=9)
        table.insert(keys, keys)
        table.delete(keys[:5500])
        tracer = telemetry.tracer
        opens = [e for e in tracer.instants("resize.epoch_open")
                 if e.args.get("kind") == "downsize"]
        assert len(opens) == table.stats.downsizes > 0
        table.finalize_resizes()
        assert all(st.migration is None for st in table.subtables)
        check_invariants(table)


class TestDynamicWorkloadTrace:
    """The acceptance-criterion scenario: a Figure-12-style DyCuckoo run
    yields a Chrome trace with a complete resize lifecycle and
    per-subtable fill-factor gauge samples."""

    @pytest.fixture(scope="class")
    def fig12_trace(self):
        spec = dataset_by_name("COM")
        keys, values = spec.generate(scale=0.0005, seed=12)
        table = DyCuckooAdapter(DyCuckooConfig(initial_buckets=8))
        telemetry = Telemetry()
        table.attach(Instruments(telemetry=telemetry))
        workload = DynamicWorkload(keys, values, batch_size=250, seed=4)
        run = run_dynamic(table, workload,
                          cost_model=CostModel(overhead_scale=0.0005))
        return table, telemetry, run

    def test_batch_spans_cover_simulated_time(self, fig12_trace):
        _table, telemetry, run = fig12_trace
        batches = telemetry.tracer.spans("batch")
        assert len(batches) == len(run.batches)
        for span, batch in zip(batches, run.batches):
            assert span.dur_us >= batch.simulated_seconds * 1e6

    def test_fill_gauges_sampled_per_batch(self, fig12_trace):
        table, telemetry, run = fig12_trace
        samples = telemetry.tracer.counters("fill.subtable")
        assert len(samples) == len(run.batches)
        num_subtables = table.table.num_tables
        for sample in samples:
            assert len(sample.args) == num_subtables
            assert all(0.0 <= v <= 1.0 for v in sample.args.values())
        gauge = telemetry.metrics.gauges["fill.global"]
        assert gauge.series == pytest.approx(run.fill_series)

    def test_complete_resize_lifecycle_present(self, fig12_trace):
        table, telemetry, _run = fig12_trace
        tracer = telemetry.tracer
        assert table.stats.upsizes > 0 and table.stats.downsizes > 0
        assert tracer.instants("resize.trigger")
        # Automatic resizes run as incremental epochs: open events,
        # bounded migrate slices, and a completion marker per epoch.
        opens = tracer.instants("resize.epoch_open")
        assert len(opens) == table.stats.upsizes + table.stats.downsizes
        assert tracer.instants("resize.migrate")
        assert tracer.instants("resize.epoch_complete")

    def test_chrome_artifact_written_via_env_var(self, fig12_trace,
                                                 tmp_path, monkeypatch):
        _table, telemetry, _run = fig12_trace
        monkeypatch.setenv(ENV_VAR, str(tmp_path))
        path = maybe_dump_trace("fig12_test", telemetry.tracer)
        assert path is not None and path.exists()
        parsed = json.loads(path.read_text())
        names = {e["name"] for e in parsed["traceEvents"]}
        assert {"batch", "resize.trigger", "resize.epoch_open",
                "resize.migrate", "fill.subtable"} <= names

    def test_artifact_skipped_without_env_var(self, fig12_trace,
                                              monkeypatch):
        _table, telemetry, _run = fig12_trace
        monkeypatch.delenv(ENV_VAR, raising=False)
        assert maybe_dump_trace("nope", telemetry.tracer) is None


class TestKernelTracing:
    """What a kernel launch emits: one ``kernel.<op>`` span and six
    ``kernel.*`` counters, the same stream on either engine."""

    def _mixed(self, engine):
        from repro.core.batch_ops import execute_mixed
        from repro.oracle import mixed_batch

        table = DyCuckooTable(DyCuckooConfig(
            initial_buckets=64, bucket_capacity=8, auto_resize=False,
            seed=3))
        telemetry = Telemetry()
        table.attach(Instruments(telemetry=telemetry))
        ops, keys, values = mixed_batch(np.random.default_rng(5), 1500)
        result = execute_mixed(table, ops, keys, values, engine=engine)
        return telemetry, result

    def test_one_span_per_run_and_counters_match_result(self):
        streams = []
        for engine in ("warp", "cohort"):
            telemetry, result = self._mixed(engine)
            tracer = telemetry.tracer
            runs = tracer.instants("mixed.run")
            launches = [e for e in tracer.spans()
                        if e.name.startswith("kernel.")]
            assert len(runs) == result.runs > 1
            assert [(e.name, e.args) for e in launches] == [
                (f"kernel.{run.args['kind']}",
                 {"n": run.args["ops"], "engine": engine})
                for run in runs]
            kernel = result.kernel
            counters = {name: c.value for name, c in
                        telemetry.metrics.counters.items()
                        if name.startswith("kernel.")}
            assert counters == {
                "kernel.rounds": kernel.rounds,
                "kernel.transactions": kernel.memory_transactions,
                "kernel.lock_acquisitions": kernel.lock_acquisitions,
                "kernel.lock_conflicts": kernel.lock_conflicts,
                "kernel.evictions": kernel.evictions,
                "kernel.completed_ops": kernel.completed_ops,
            }
            streams.append(counters)
        assert streams[0] == streams[1]

    def test_hazardous_cohort_insert_span_carries_hazards(self):
        from repro.core.batch_ops import EncodedBatch
        from repro.sanitizer import Sanitizer

        from tests.conftest import launch_insert

        # Duplicate keys sent to adversarial (but legal) pair members
        # drive the cohort engine's in-order hazard replay.
        rng = np.random.default_rng(0)
        table = DyCuckooTable(DyCuckooConfig(
            initial_buckets=8, bucket_capacity=8, auto_resize=False,
            seed=3))
        telemetry = Telemetry()
        table.attach(Instruments(telemetry=telemetry, sanitizer=Sanitizer()))
        n = 256
        batch = EncodedBatch(
            table, rng.integers(1, n // 2, size=n).astype(np.uint64))
        coin = rng.integers(0, 2, size=n).astype(bool)
        result = launch_insert(table, "cohort", batch,
                               np.arange(1, n + 1, dtype=np.uint64),
                               np.where(coin, batch.first, batch.second))
        assert result.hazard_rounds > 0
        span, = telemetry.tracer.spans("kernel.insert")
        assert span.args == {"n": n, "engine": "cohort",
                             "hazard_rounds": result.hazard_rounds,
                             "hazard_lanes": result.hazard_lanes}


class TestMixedBatchTracing:
    def test_mixed_batch_spans(self):
        from repro.core.batch_ops import (OP_DELETE, OP_FIND, OP_INSERT,
                                          execute_mixed)

        table = DyCuckooTable(DyCuckooConfig(initial_buckets=16,
                                             bucket_capacity=8))
        telemetry = Telemetry()
        table.attach(Instruments(telemetry=telemetry))
        op_codes = np.array([OP_INSERT, OP_INSERT, OP_FIND, OP_DELETE])
        keys = np.array([1, 2, 1, 2], dtype=np.uint64)
        values = np.array([10, 20, 0, 0], dtype=np.uint64)
        result = execute_mixed(table, op_codes, keys, values)
        assert result.runs == 3
        batch, = telemetry.tracer.spans("mixed.batch")
        assert batch.args == {"ops": 4}
        kinds = [e.args["kind"]
                 for e in telemetry.tracer.instants("mixed.run")]
        assert kinds == ["insert", "find", "delete"]


class TestMergeRegistries:
    """Edge cases of the multi-registry roll-up."""

    def test_empty_mapping_yields_empty_registry(self):
        from repro.telemetry import merge_registries

        merged = merge_registries({})
        assert merged.counters == {}
        assert merged.gauges == {}
        assert merged.histograms == {}
        # Exporters must accept the empty merge unchanged.
        assert isinstance(prometheus_text(merged), str)
        assert merged.to_dict() == {
            "counters": {}, "gauges": {}, "histograms": {}}

    def test_divergent_histogram_layouts_skip_rollup(self):
        from repro.telemetry import merge_registries

        a = MetricsRegistry()
        a.histogram("probe.length", buckets=(1.0, 2.0, 4.0)).observe(1.5)
        b = MetricsRegistry()
        b.histogram("probe.length", buckets=(1.0, 8.0)).observe(5.0)

        merged = merge_registries({"s0": a, "s1": b})
        # Labelled copies preserve each source's own layout and counts.
        copy_a = merged.histograms["s0.probe.length"]
        copy_b = merged.histograms["s1.probe.length"]
        assert copy_a.buckets == (1.0, 2.0, 4.0)
        assert copy_b.buckets == (1.0, 8.0)
        assert copy_a.total == 1 and copy_b.total == 1
        # The roll-up keeps the first layout it saw and skips the
        # divergent source instead of silently mixing bucket meanings.
        roll = merged.histograms["probe.length"]
        assert roll.buckets == (1.0, 2.0, 4.0)
        assert roll.total == 1
        assert roll.sum == pytest.approx(1.5)

    def test_matching_histogram_layouts_sum(self):
        from repro.telemetry import merge_registries

        a = MetricsRegistry()
        a.histogram("chain.depth", buckets=(1.0, 2.0)).observe_many([0.5, 1.5])
        b = MetricsRegistry()
        b.histogram("chain.depth", buckets=(1.0, 2.0)).observe(3.0)

        merged = merge_registries({"s0": a, "s1": b})
        roll = merged.histograms["chain.depth"]
        assert roll.total == 3
        assert roll.sum == pytest.approx(5.0)
        assert list(roll.counts) == [1, 1, 1]

    def test_gauge_rollup_sums_across_sources(self):
        from repro.telemetry import merge_registries

        a = MetricsRegistry()
        a.gauge("fill.global").set(0.4)
        b = MetricsRegistry()
        b.gauge("fill.global").set(0.3)
        c = MetricsRegistry()
        c.gauge("fill.global").set(0.0)

        merged = merge_registries({"s0": a, "s1": b, "s2": c})
        # Labelled copies keep the per-source values...
        assert merged.gauges["s0.fill.global"].value == pytest.approx(0.4)
        assert merged.gauges["s1.fill.global"].value == pytest.approx(0.3)
        assert merged.gauges["s2.fill.global"].value == pytest.approx(0.0)
        # ...while the roll-up is the fleet-wide sum, including the
        # zero-valued source (sum semantics, not last-writer-wins).
        assert merged.gauges["fill.global"].value == pytest.approx(0.7)

    def test_gauge_single_source_rollup_equals_source(self):
        from repro.telemetry import merge_registries

        a = MetricsRegistry()
        a.gauge("stash.occupancy").set(5.0)
        merged = merge_registries({"only": a})
        assert merged.gauges["stash.occupancy"].value == pytest.approx(5.0)

    def test_counter_rollup_and_disjoint_names(self):
        from repro.telemetry import merge_registries

        a = MetricsRegistry()
        a.counter("find.hits").inc(3)
        b = MetricsRegistry()
        b.counter("find.hits").inc(4)
        b.counter("insert.evictions").inc(2)

        merged = merge_registries({"s0": a, "s1": b})
        assert merged.counters["find.hits"].value == 7
        # A name present in only one source still gets a roll-up.
        assert merged.counters["insert.evictions"].value == 2
        assert "s0.insert.evictions" not in merged.counters
