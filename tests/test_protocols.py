""":mod:`repro.bench.protocols` must report each divergence it checks.

The CLI's ``shard``/``kernel`` commands and their benches call these
protocols; ``tests/test_cli.py`` covers the CLI exits, and these tests
cover what only the benches reach.
"""

import numpy as np

from repro.bench import protocols
from repro.bench.protocols import engine_pair, presized_config
from repro.faults import default_chaos_plan
from repro.oracle import mixed_batch


def _batch(n=1_500, seed=3):
    return mixed_batch(np.random.default_rng(seed), n)


class TestEnginePair:
    def test_engines_make_the_same_fault_decisions(self):
        ops, keys, values = _batch()
        runs, problems = engine_pair(ops, keys, values,
                                     presized_config(len(ops), 3),
                                     fault_seed=7)
        assert problems == []
        fired = runs["cohort"].table.faults.fired
        assert fired and runs["warp"].table.faults.fired == fired

    def test_flags_diverging_fault_decisions(self, monkeypatch):
        seeds = iter([7, 8])
        monkeypatch.setattr(protocols, "default_chaos_plan",
                            lambda seed: default_chaos_plan(seed=next(seeds)))
        ops, keys, values = _batch()
        _runs, problems = engine_pair(ops, keys, values,
                                      presized_config(len(ops), 3),
                                      fault_seed=7)
        assert "fault decisions diverged" in problems
        assert "fault-site invocations diverged" in problems


class TestPresizedConfig:
    def test_targets_about_one_slot_per_op_below_half_fill(self):
        for n in (10, 1_000, 4_000, 10_000):
            config = presized_config(n, seed=5)
            slots = (config.num_tables * config.initial_buckets
                     * config.bucket_capacity)
            # At least one slot per op; the smallest geometry aside,
            # under two.
            assert n <= slots and (slots < 2 * n
                                   or config.initial_buckets == 8)
            assert config.auto_resize is False and config.seed == 5
