"""Smoke tests: the shipped examples run cleanly end to end."""

import functools
import os
import sys
from pathlib import Path

import pytest

from benchmarks.common import clean_stderr, run_quiet

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"

#: Fast examples run in CI; the streaming example is minutes-long and
#: exercised manually (its machinery is covered by unit tests).
FAST_EXAMPLES = ("quickstart.py", "hash_join.py", "memory_budget.py",
                 "multi_tenant_gpu.py")


@functools.lru_cache(maxsize=None)
def _run_example(script):
    """Run ``script`` once per test session with the default environment.

    The examples are seeded, so the smoke test and the content tests can
    share one run; the multi-tenant example alone takes about a minute.
    """
    return run_quiet([sys.executable, str(EXAMPLES_DIR / script)],
                     timeout=240)


@pytest.mark.parametrize("script", FAST_EXAMPLES)
def test_example_runs(script):
    result = _run_example(script)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip(), "example produced no output"


def test_quickstart_output_content():
    result = _run_example("quickstart.py")
    assert "validate(): all invariants hold" in result.stdout
    assert "downsizes" in result.stdout


def test_memory_budget_shapes():
    result = _run_example("memory_budget.py")
    assert "DyCuckoo" in result.stdout
    assert "saved" in result.stdout
    # The default run is seeded (REPRO_SEED unset -> seed 3) and the
    # eviction-policy demo must hold the budget.
    assert "seed 3" in result.stdout
    assert "budget respected: yes" in result.stdout


def test_memory_budget_honors_repro_seed():
    """Same REPRO_SEED, same bytes on stdout — the example is fully
    reproducible, so its output can be asserted on."""
    env = {**os.environ, "REPRO_SEED": "11"}
    cmd = [sys.executable, str(EXAMPLES_DIR / "memory_budget.py")]
    first = run_quiet(cmd, timeout=240, env=env)
    second = run_quiet(cmd, timeout=240, env=env)
    assert first.returncode == 0, first.stderr
    assert "seed 11" in first.stdout
    assert first.stdout == second.stdout


def test_multi_tenant_story():
    result = _run_example("multi_tenant_gpu.py")
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip(), "example produced no output"
    # The static deployment spills; the dynamic one should not.
    assert "spilled" in result.stdout


class TestStderrFilter:
    def test_drops_conda_noise_keeps_real_errors(self):
        noisy = ("/root/.condarc: parse error\n"
                 "Traceback (most recent call last):\n"
                 "CondaError: something\n"
                 "ValueError: real failure\n")
        cleaned = clean_stderr(noisy)
        assert "condarc" not in cleaned
        assert "CondaError" not in cleaned
        assert "Traceback" in cleaned
        assert "ValueError: real failure" in cleaned

    def test_empty_passthrough(self):
        assert clean_stderr("") == ""
