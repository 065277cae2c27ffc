"""Tests for the command-line interface."""

import json
import re
from pathlib import Path

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.core.table import DyCuckooTable
from repro.shard import ShardedDyCuckoo

BASELINES = Path(__file__).resolve().parents[1] / "benchmarks" / "baselines"


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_commands_parse(self):
        parser = build_parser()
        for argv in (["info"], ["demo"], ["datasets"],
                     ["dynamic", "--dataset", "COM"], ["profile"],
                     ["trace"], ["trace", "RAND", "--smoke"]):
            args = parser.parse_args(argv)
            assert args.command == argv[0]

    def test_seed_and_json_flags_everywhere(self):
        parser = build_parser()
        for command in ("demo", "dynamic", "profile", "trace"):
            args = parser.parse_args([command, "--seed", "42", "--json"])
            assert args.seed == 42
            assert args.json is True

    def test_trace_defaults(self):
        args = build_parser().parse_args(["trace"])
        assert args.workload == "COM"
        assert args.out is None
        assert args.smoke is False


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "GTX 1080" in out
        assert "Table 3" in out

    def test_demo(self, capsys):
        assert main(["demo", "--keys", "3000"]) == 0
        out = capsys.readouterr().out
        assert "inserted 3,000 keys" in out
        assert "validate(): ok" in out

    def test_datasets(self, capsys):
        assert main(["datasets", "--scale", "0.0002"]) == 0
        out = capsys.readouterr().out
        for name in ("TW", "RE", "LINE", "COM", "RAND"):
            assert name in out

    def test_dynamic(self, capsys):
        assert main(["dynamic", "--dataset", "COM", "--scale", "0.0005",
                     "--batch", "500"]) == 0
        out = capsys.readouterr().out
        assert "DyCuckoo" in out
        assert "MegaKV" in out
        assert "filled factor per batch" in out

    def test_profile(self, capsys):
        assert main(["profile", "--keys", "5000"]) == 0
        out = capsys.readouterr().out
        assert "insert:" in out
        assert "find:" in out
        assert "delete:" in out

    def test_faults_smoke_counts_aborts_without_claiming_rollback(
            self, capsys):
        # Only an epoch-open rehash abort restores a snapshot; a spill
        # abort parks its residuals and a slice's rehash abort leaves
        # its epoch open, so the summary just counts them.
        assert main(["faults", "--smoke"]) == 0
        out = capsys.readouterr().out
        assert re.search(r"^recovery: \d+ resize aborts, \d+ keys stashed",
                         out, re.MULTILINE)
        assert "rolled back" not in out

    def test_unknown_dataset_raises(self):
        with pytest.raises(KeyError):
            main(["dynamic", "--dataset", "NOPE", "--scale", "0.0005"])


class TestJsonOutput:
    def _run_json(self, capsys, argv):
        assert main(argv) == 0
        return json.loads(capsys.readouterr().out)

    def test_demo_json(self, capsys):
        payload = self._run_json(
            capsys, ["demo", "--keys", "3000", "--seed", "7", "--json"])
        assert payload["command"] == "demo"
        assert payload["seed"] == 7
        assert payload["inserted"] == 3000
        assert 0.0 <= payload["fill_after_insert"] <= 1.0
        assert payload["stats"]["inserts"] == 3000

    def test_demo_json_is_seed_reproducible(self, capsys):
        a = self._run_json(capsys, ["demo", "--keys", "3000",
                                    "--seed", "7", "--json"])
        b = self._run_json(capsys, ["demo", "--keys", "3000",
                                    "--seed", "7", "--json"])
        assert a == b

    def test_dynamic_json(self, capsys):
        payload = self._run_json(
            capsys, ["dynamic", "--dataset", "COM", "--scale", "0.0005",
                     "--batch", "500", "--json"])
        assert payload["command"] == "dynamic"
        assert set(payload["approaches"]) == {"DyCuckoo", "MegaKV",
                                              "SlabHash"}
        for result in payload["approaches"].values():
            assert result["mops"] > 0
            assert len(result["fill_series"]) > 0

    def test_profile_json(self, capsys):
        payload = self._run_json(
            capsys, ["profile", "--keys", "5000", "--json"])
        assert payload["command"] == "profile"
        names = [p["name"] for p in payload["profiles"]]
        assert names == ["insert", "find", "delete"]
        for profile in payload["profiles"]:
            assert profile["num_ops"] > 0
            assert profile["simulated_seconds"] > 0

    def test_kernel_json_engines_conform(self, capsys):
        payload = self._run_json(capsys, ["kernel", "--ops", "2000",
                                          "--json"])
        assert payload["conformant"] is True and payload["problems"] == []

    @pytest.mark.parametrize("engine", ["warp", "cohort"])
    def test_kernel_single_engine_claims_no_conformance(self, capsys,
                                                        engine):
        # One engine alone is cross-checked against nothing.
        payload = self._run_json(capsys, ["kernel", "--ops", "2000",
                                          "--engine", engine, "--json"])
        assert set(payload["engines"]) == {engine}
        for key in ("conformant", "problems", "speedup"):
            assert key not in payload

    def test_shard_parallel_json_identical(self, capsys):
        payload = self._run_json(capsys, ["shard", "--keys", "2000",
                                          "--parallel", "2", "--json"])
        assert payload["parallel"]["identical"] is True

    def test_shard_sweep_reproduces_bench_baseline(self, capsys):
        # ``bench_shard_scaling`` drives the same stream (seed 1080,
        # 10,000 keys, batches of 1,000), so every leaf of each S entry
        # in its committed baseline must come back exactly.
        payload = self._run_json(capsys, [
            "shard", "--sweep", "--seed", "1080", "--keys", "10000",
            "--batch", "1000", "--json"])
        baseline = json.loads((BASELINES / "BENCH_shard.json").read_text())
        reports = {str(r["num_shards"]): r["report"]
                   for r in payload["results"]}
        assert set(reports) == {"1", "2", "4", "8"}
        for shards, report in reports.items():
            assert report == baseline[shards], f"S={shards}"

    def test_shard_sweep_text_renders_lock_fraction_exactly(self, capsys):
        # 1/(S*d) with d = 4: a rounded float column would print 0.0.
        assert main(["shard", "--sweep", "--keys", "2000"]) == 0
        rows = [line.split() for line in capsys.readouterr().out.splitlines()
                if line[:1].isdigit()]
        assert [(row[0], row[4]) for row in rows] == [
            ("1", "1/4"), ("2", "1/8"), ("4", "1/16"), ("8", "1/32")]

    def test_faults_smoke_json_survives_on_both_engines(self, capsys):
        reports = [self._run_json(capsys, ["faults", "--smoke", "--engine",
                                           engine, "--json"])
                   for engine in ("warp", "cohort")]
        assert reports[0]["survived"] is True
        assert reports[0] == reports[1]


class TestFailureExits:
    """Each check exits 1 and names the divergence it saw."""

    def test_shard_lane_divergence(self, capsys, monkeypatch):
        plain = ShardedDyCuckoo.find

        def lossy_find(self, keys):
            values, found = plain(self, keys)
            found[:1] = False
            return values, found

        monkeypatch.setattr(ShardedDyCuckoo, "find", lossy_find)
        assert main(["shard", "--keys", "2000", "--shards", "2"]) == 1
        err = capsys.readouterr().err
        assert "SHARD CHECK FAILED" in err
        assert re.search(r"S=2: FIND\(\d+\) returned miss, model has \d+",
                         err)

    def test_shard_parallel_divergence(self, capsys, monkeypatch):
        plain = ShardedDyCuckoo.execute_mixed

        def skewed(self, *args, **kwargs):
            result = plain(self, *args, **kwargs)
            if self.parallel_workers:
                result.values[0] ^= np.uint64(1)
            return result

        monkeypatch.setattr(ShardedDyCuckoo, "execute_mixed", skewed)
        assert main(["shard", "--keys", "2000", "--parallel", "2",
                     "--json"]) == 1
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["parallel"]["identical"] is False
        assert payload["problems"] == [
            f"parallel executor: {problem}"
            for problem in payload["parallel"]["problems"]]
        assert ("parallel executor: warm-up batch 0: values diverged"
                in captured.err)

    def test_kernel_engine_divergence(self, capsys, monkeypatch):
        plain = DyCuckooTable.execute_mixed

        def skewed(self, *args, engine=None, **kwargs):
            result = plain(self, *args, engine=engine, **kwargs)
            if engine == "cohort":
                result.values[0] ^= np.uint64(1)
            return result

        monkeypatch.setattr(DyCuckooTable, "execute_mixed", skewed)
        assert main(["kernel", "--ops", "2000", "--json"]) == 1
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert payload["conformant"] is False
        assert payload["problems"] == ["values diverged"]
        assert "CONFORMANCE FAILED" in captured.err


class TestTraceCommand:
    def test_trace_writes_chrome_trace(self, capsys, tmp_path):
        out = tmp_path / "trace.json"
        assert main(["trace", "COM", "--scale", "0.0005", "--batch", "500",
                     "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "events" in text
        parsed = json.loads(out.read_text())
        assert parsed["traceEvents"]
        assert parsed["otherData"]["workload"] == "COM"

    def test_trace_json_summary_with_side_outputs(self, capsys, tmp_path):
        out = tmp_path / "t.json"
        jsonl = tmp_path / "t.jsonl"
        metrics = tmp_path / "t.prom"
        assert main(["trace", "COM", "--scale", "0.0005", "--batch", "500",
                     "--out", str(out), "--jsonl", str(jsonl),
                     "--metrics-out", str(metrics), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["command"] == "trace"
        assert payload["events"] > 0
        assert payload["fill_samples"] == payload["batches"]
        assert len(payload["written"]) == 3
        assert jsonl.read_text().count("\n") == payload["events"]
        assert "# TYPE" in metrics.read_text()

    def test_trace_smoke(self, capsys, tmp_path):
        out = tmp_path / "smoke.json"
        assert main(["trace", "--smoke", "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "telemetry smoke check ok" in text
        assert out.exists()
