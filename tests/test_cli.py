"""Tests for the command-line interface."""

import json
import re

import pytest

from repro.cli import build_parser, main


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

    def test_shard_parallel_json_identical(self, capsys):
        payload = self._run_json(capsys, ["shard", "--keys", "2000",
                                          "--parallel", "2", "--json"])
        assert payload["parallel"]["identical"] is True

    def test_faults_smoke_json_survives_on_both_engines(self, capsys):
        reports = [self._run_json(capsys, ["faults", "--smoke", "--engine",
                                           engine, "--json"])
                   for engine in ("warp", "cohort")]
        assert reports[0]["survived"] is True
        assert reports[0] == reports[1]


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
