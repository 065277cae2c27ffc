"""Deep profiler, flight recorder, and latency/report layer.

Covers the observability tentpole end to end:

* latency percentiles (nearest-rank semantics, batch summaries),
* profiler accumulation through real table runs: kernel timelines,
  lock heatmap, probe/chain histograms, fill timeline, stash tracking,
* the flight recorder ring, trip wiring (fault plan, sanitizer,
  ``check_invariants``), and post-mortem bundle dumps,
* the zero-overhead guarantee: no profiler/recorder attached means
  bit-identical storage and counters versus an uninstrumented run,
* the HTML report surface.
"""

import json

import numpy as np
import pytest

from repro.core.config import DyCuckooConfig
from repro.core.instruments import Instruments
from repro.core.table import DyCuckooTable
from repro.core.analysis import check_invariants
from repro.core.batch_ops import OP_DELETE, OP_FIND, OP_INSERT
from repro.faults import NO_FAULTS, FaultPlan
from repro.sanitizer import NULL_SANITIZER
from repro.telemetry import (NULL_PROFILER, NULL_RECORDER, FlightRecorder,
                             Profiler, format_summary, percentile,
                             summarize, summarize_batches)
from repro.telemetry.report import render_html, write_html_report

from tests.conftest import unique_keys


def small_table(**overrides) -> DyCuckooTable:
    defaults = dict(initial_buckets=16, bucket_capacity=8, seed=7)
    defaults.update(overrides)
    return DyCuckooTable(DyCuckooConfig(**defaults))


class TestLatency:
    def test_percentile_nearest_rank(self):
        samples = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
        assert percentile(samples, 50) == 5.0
        assert percentile(samples, 99) == 10.0
        assert percentile(samples, 100) == 10.0
        with pytest.raises(ValueError):
            percentile(samples, 0)
        with pytest.raises(ValueError):
            percentile([], 50)
        # Order must not matter.
        assert percentile(list(reversed(samples)), 90) == 9.0

    def test_summarize(self):
        summary = summarize([3.0, 1.0, 2.0])
        assert summary["count"] == 3
        assert summary["p50"] == 2.0
        assert summary["worst"] == 3.0
        assert summary["mean"] == pytest.approx(2.0)
        assert summary["total"] == pytest.approx(6.0)

    def test_summarize_empty(self):
        summary = summarize([])
        assert summary["count"] == 0
        assert summary["worst"] == 0.0

    def test_summarize_batches_worst_index(self):
        class Batch:
            def __init__(self, seconds):
                self.simulated_seconds = seconds

        summary = summarize_batches([Batch(1e-6), Batch(9e-6), Batch(2e-6)])
        assert summary["count"] == 3
        assert summary["worst"] == pytest.approx(9e-6)
        assert summary["worst_batch"] == 1
        assert summarize_batches([])["worst_batch"] == -1

    def test_format_summary_units(self):
        text = format_summary(summarize([2e-6, 4e-6]))
        assert "us" in text and "p50" in text and "worst" in text


class TestProfilerAccumulation:
    def run_mixed(self, engine: str) -> dict:
        n = 600
        table = DyCuckooTable(DyCuckooConfig(
            initial_buckets=32, bucket_capacity=8, auto_resize=False,
            seed=11))
        prof = Profiler()
        table.attach(Instruments(profiler=prof))
        keys = unique_keys(n, seed=11)
        values = keys + np.uint64(1)
        ops = np.concatenate([
            np.full(n, OP_INSERT), np.full(n // 2, OP_FIND),
            np.full(n // 4, OP_DELETE)]).astype(np.int64)
        all_keys = np.concatenate([keys, keys[:n // 2], keys[:n // 4]])
        all_values = np.concatenate(
            [values, np.zeros(n // 2 + n // 4, dtype=np.uint64)])
        table.execute_mixed(ops, all_keys, all_values, engine=engine)
        return prof.snapshot()

    def test_kernel_timelines_and_histograms(self):
        snap = self.run_mixed("warp")
        names = [k["op"] for k in snap["kernels"]]
        assert "insert" in names and "find" in names and "delete" in names
        insert = next(k for k in snap["kernels"] if k["op"] == "insert")
        assert insert["n"] == 600
        assert insert["rounds"], "insert must log occupancy rounds"
        for row in insert["rounds"]:
            assert row["active_lanes"] <= row["active_warps"] * 32
        assert snap["lock_heatmap"], "insert takes bucket locks"
        for cell in snap["lock_heatmap"]:
            assert cell["grants"] >= 0 and cell["conflicts"] >= 0
        assert snap["probe_lengths"], "find/delete record probe lengths"
        assert set(snap["probe_lengths"]) <= {"1", "2"}
        assert snap["chain_depths"], "insert records eviction chains"

    def test_engines_produce_identical_snapshots(self):
        assert self.run_mixed("warp") == self.run_mixed("cohort")

    def test_fill_timeline_across_resizes(self):
        table = small_table(initial_buckets=8)
        prof = Profiler()
        table.attach(Instruments(profiler=prof))
        keys = unique_keys(3000, seed=3)
        table.insert(keys, keys)
        snap = prof.snapshot()
        upsizes = [p for p in snap["fill_timeline"] if p["event"] == "upsize"]
        assert upsizes, "inserting 3000 keys into 8 buckets must upsize"
        for point in upsizes:
            assert len(point["subtables"]) == table.config.num_tables
            assert 0.0 <= point["global"] <= 1.0

    def test_stash_high_water(self):
        prof = Profiler()
        prof.sample_stash(2)
        prof.sample_stash(5)
        prof.sample_stash(1)
        snap = prof.snapshot()
        assert snap["stash"]["high_water"] == 5
        assert len(snap["stash"]["samples"]) == 3

    def test_null_profiler_is_disabled(self):
        assert not NULL_PROFILER.enabled
        assert Profiler().enabled


class TestZeroOverhead:
    """Disabled instrumentation must be invisible: same storage, same
    counters, same results as a table that never heard of profiling."""

    def run_workload(self, table: DyCuckooTable):
        keys = unique_keys(2000, seed=5)
        table.insert(keys, keys)
        found = table.find(keys)
        removed = table.delete(keys[:500])
        return keys, found, removed

    def test_disabled_profiler_bit_identical(self):
        plain = small_table()
        _, found_p, removed_p = self.run_workload(plain)

        nulled = small_table()
        nulled.attach(None)
        assert nulled.profiler is NULL_PROFILER
        assert nulled.recorder is NULL_RECORDER
        _, found_n, removed_n = self.run_workload(nulled)

        assert np.array_equal(found_p[0], found_n[0])
        assert np.array_equal(found_p[1], found_n[1])
        assert np.array_equal(removed_p, removed_n)
        assert plain.to_dict() == nulled.to_dict()
        assert plain.stats.snapshot() == nulled.stats.snapshot()

    def test_enabled_profiler_does_not_perturb_results(self):
        plain = small_table()
        self.run_workload(plain)

        profiled = small_table()
        profiled.attach(Instruments(profiler=Profiler(),
                                    recorder=FlightRecorder()))
        self.run_workload(profiled)

        assert plain.to_dict() == profiled.to_dict()
        assert plain.stats.snapshot() == profiled.stats.snapshot()

    def test_shared_singletons_never_gain_a_recorder(self):
        table = small_table()
        table.attach(Instruments(recorder=FlightRecorder()))
        # The table holds the recorder, but the module-level disabled
        # singletons must stay pristine (they are shared globally).
        assert NO_FAULTS.recorder is NULL_RECORDER
        assert NULL_SANITIZER.recorder is NULL_RECORDER


class TestFlightRecorder:
    def test_ring_is_bounded(self):
        rec = FlightRecorder(capacity=8)
        for i in range(20):
            rec.record("tick", i=i)
        assert len(rec.events) == 8
        assert [e["i"] for e in rec.events] == list(range(12, 20))

    def test_fault_trip_produces_bundle(self, tmp_path):
        table = small_table(initial_buckets=8)
        rec = FlightRecorder(dump_dir=str(tmp_path))
        table.attach(Instruments(
            recorder=rec, profiler=Profiler(),
            faults=FaultPlan(seed=1,
                             rates={"resize.abort.trigger": 1.0})))
        keys = unique_keys(int(table.total_slots * 0.88), seed=1)
        table.insert(keys, keys)

        assert rec.trips > 0
        bundle = rec.last_bundle()
        assert bundle["reason"] == "fault"
        assert bundle["detail"]["site"] == "resize.abort.trigger"
        assert bundle["table"]["len"] == len(table)
        assert bundle["profiler"] is not None
        dumps = sorted(tmp_path.glob("postmortem_*.json"))
        assert dumps, "trip must write a post-mortem file"
        on_disk = json.loads(dumps[-1].read_text())
        assert on_disk["reason"] == "fault"

    def test_sanitizer_violation_trips(self):
        from repro.sanitizer import Sanitizer

        table = small_table()
        rec = FlightRecorder()
        san = Sanitizer()
        table.attach(Instruments(recorder=rec, sanitizer=san))
        san._violate("racecheck", "test.rule",
                     "synthetic violation for the recorder")
        assert not san.ok
        assert rec.trips == 1
        assert rec.last_bundle()["reason"] == "sanitizer_violation"

    def test_check_invariants_trips(self):
        table = small_table()
        rec = FlightRecorder()
        table.attach(Instruments(recorder=rec))
        keys = unique_keys(50, seed=2)
        table.insert(keys, keys)
        # Corrupt one stored slot so a structural invariant fails.
        st = table.subtables[0]
        occupied = np.argwhere(st.keys != 0)
        bucket, slot = occupied[0]
        st.keys[bucket, slot] += np.uint64(1)
        with pytest.raises(AssertionError):
            check_invariants(table)
        assert rec.trips == 1
        assert rec.last_bundle()["reason"] == "invariant_failure"

    def test_resize_and_stash_events_recorded(self):
        # Every resize is a migration epoch, so the recorder sees
        # epoch-open events, each with a direction.
        table = small_table(initial_buckets=8)
        rec = FlightRecorder(capacity=512)
        table.attach(Instruments(recorder=rec))
        keys = unique_keys(3000, seed=4)
        table.insert(keys, keys)
        directions = {e.get("direction") for e in rec.events
                      if e["kind"] == "resize.epoch_open"}
        assert "upsize" in directions
        table.delete(keys[:2700])
        directions = {e.get("direction") for e in rec.events
                      if e["kind"] == "resize.epoch_open"}
        assert "downsize" in directions
        kinds = {e["kind"] for e in rec.events}
        assert "resize.migrate" in kinds
        assert "resize.epoch_complete" in kinds

    def test_summary_shape(self):
        rec = FlightRecorder()
        assert rec.summary() == {"trips": 0, "bundles": 0, "events": []}
        rec.record("x")
        rec.trip("manual", why="test")
        digest = rec.summary()
        assert digest["trips"] == 1 and digest["bundles"] == 1
        assert digest["reason"] == "manual"
        json.dumps(digest)  # must embed into failure messages


class TestReportSurface:
    def make_report(self) -> dict:
        table = DyCuckooTable(DyCuckooConfig(
            initial_buckets=32, bucket_capacity=8, auto_resize=False,
            seed=9))
        prof = Profiler()
        table.attach(Instruments(profiler=prof))
        keys = unique_keys(400, seed=9)
        ops = np.concatenate([np.full(400, OP_INSERT),
                              np.full(200, OP_FIND)]).astype(np.int64)
        table.execute_mixed(ops, np.concatenate([keys, keys[:200]]),
                            np.concatenate([keys, keys[:200]]),
                            engine="cohort")
        prof.sample_fill("batch", table)
        prof.sample_fill("batch", table)
        snap = prof.snapshot()
        return {
            "seed": 9, "ops": 400, "keys": 400,
            "engines": {"cohort": snap},
            "conformant": True,
            "dynamic": snap,
            "latency": summarize([1e-6, 2e-6, 3e-6]),
            "profiles": [],
            "recorder": {"trips": 0, "bundles": 0, "events": []},
        }

    def test_render_html_sections(self):
        html = render_html(self.make_report())
        for heading in ("divergence timelines", "Lock-contention heatmap",
                        "Probe lengths", "fill-factor timeline",
                        "Batch latency", "Flight recorder"):
            assert heading in html, heading
        assert "<svg" in html

    def test_write_html_report(self, tmp_path):
        path = tmp_path / "report.html"
        written = write_html_report(path, self.make_report())
        assert str(written) == str(path)
        assert path.read_text().lower().startswith("<!doctype html>")
