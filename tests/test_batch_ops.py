"""Tests for mixed-operation batch execution and its run planner.

``REPRO_FUZZ_EXAMPLES`` sets the example budget of the dict-model
property tests (CI raises it).
"""

import os
from itertools import count
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batch_ops import (OP_DELETE, OP_FIND, OP_INSERT,
                                  execute_mixed, op_runs, plan_runs)
from repro.core.config import DyCuckooConfig
from repro.core.table import DyCuckooTable, encode_keys
from repro.errors import CapacityError, InvalidConfigError
from repro.oracle import DictModel, twin_divergence
from repro.shard import ShardedDyCuckoo

_KINDS = {OP_INSERT: "insert", OP_FIND: "find", OP_DELETE: "delete"}

MAX_EXAMPLES = int(os.environ.get("REPRO_FUZZ_EXAMPLES", "40"))


def fresh_table():
    return DyCuckooTable(DyCuckooConfig(initial_buckets=8,
                                        bucket_capacity=4))


class TestExecuteMixed:
    def test_program_order_semantics(self):
        table = fresh_table()
        ops = np.array([OP_INSERT, OP_FIND, OP_DELETE, OP_FIND])
        keys = np.array([7, 7, 7, 7], dtype=np.uint64)
        values = np.array([70, 0, 0, 0], dtype=np.uint64)
        result = execute_mixed(table, ops, keys, values)
        assert result.found[1] and result.values[1] == 70
        assert result.removed[2]
        assert not result.found[3]
        assert result.runs == 4

    def test_runs_group_same_kind(self):
        table = fresh_table()
        ops = np.array([OP_INSERT, OP_INSERT, OP_FIND, OP_FIND])
        keys = np.array([1, 2, 1, 2], dtype=np.uint64)
        values = np.array([10, 20, 0, 0], dtype=np.uint64)
        result = execute_mixed(table, ops, keys, values)
        assert result.runs == 2
        assert result.found[2:].all()
        assert result.values[2] == 10 and result.values[3] == 20

    def test_insert_requires_values(self):
        table = fresh_table()
        with pytest.raises(InvalidConfigError):
            execute_mixed(table, np.array([OP_INSERT]),
                          np.array([1], dtype=np.uint64))

    def test_find_only_needs_no_values(self):
        table = fresh_table()
        result = execute_mixed(table, np.array([OP_FIND]),
                               np.array([1], dtype=np.uint64))
        assert not result.found[0]

    @pytest.mark.parametrize("op", [-1, 3, 9])
    def test_rejects_unknown_op(self, op):
        table = fresh_table()
        with pytest.raises(InvalidConfigError):
            execute_mixed(table, np.array([OP_FIND, op]),
                          np.array([1, 2], dtype=np.uint64))

    def test_rejects_misaligned(self):
        table = fresh_table()
        with pytest.raises(InvalidConfigError):
            execute_mixed(table, np.array([OP_FIND, OP_FIND]),
                          np.array([1], dtype=np.uint64))

    def test_empty_batch(self):
        table = fresh_table()
        result = execute_mixed(table, np.array([], dtype=np.int64),
                               np.array([], dtype=np.uint64))
        assert result.runs == 0

    @given(st.lists(
        st.tuples(st.sampled_from([OP_INSERT, OP_FIND, OP_DELETE]),
                  st.integers(min_value=0, max_value=30),
                  st.integers(min_value=1, max_value=1000)),
        min_size=1, max_size=80))
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_matches_sequential_dict_model(self, program):
        """Mixed execution must equal a per-op sequential dict replay.

        Program order is the defined semantics, so a scalar replay of
        the same program against a dict must agree on every FIND result
        and DELETE outcome (modulo duplicate handling inside one run,
        which the replay reproduces with the same rules).
        """
        table = fresh_table()
        ops = np.array([op for op, _k, _v in program], dtype=np.int64)
        keys = np.array([k for _op, k, _v in program], dtype=np.uint64)
        values = np.array([v for _op, _k, v in program], dtype=np.uint64)
        result = execute_mixed(table, ops, keys, values)

        # Replay run by run through the dict model, which applies the
        # documented per-run rules to the recorded lanes.
        model = DictModel()
        starts = np.flatnonzero(np.diff(ops, prepend=-1))
        for i, j in zip(starts, [*starts[1:], len(ops)]):
            recorded = SimpleNamespace(
                insert=lambda k, v: None,
                find=lambda k: (result.values[i:j], result.found[i:j]),
                delete=lambda k: result.removed[i:j])
            assert model.apply(recorded, _KINDS[ops[i]], keys[i:j],
                               values[i:j]) == []
        table.validate()
        assert model.divergence(table) == []


def rule_runs(ops: np.ndarray, keys: np.ndarray) -> list[int]:
    """Each op's run under the planning rule, op by op: the kinds cycle
    in their order of first appearance; a key's first op takes its
    kind's first run, any later op the earliest run of its kind at or
    after its key's previous op's run."""
    cycle = list(dict.fromkeys(ops.tolist()))
    last: dict[int, int] = {}
    runs = []
    for op, key in zip(ops.tolist(), keys.tolist()):
        start = last.get(key, 0)
        last[key] = next(r for r in count(start)
                         if cycle[r % len(cycle)] == op)
        runs.append(last[key])
    return runs


def positions(ops, runs) -> list[tuple[int, list[int]]]:
    """A plan's runs as ``(kind, op positions)``."""
    return [(kind, np.arange(len(ops))[at].tolist()) for kind, at in runs]


def assert_plan_keeps_key_order(ops, keys, runs) -> None:
    """The plan's runs are homogeneous, list their ops in arrival order,
    hold every op once, and keep each key's program order: a key's ops
    share a run only when consecutive and of the same kind."""
    run_of = np.full(len(ops), -1)
    for r, (kind, mine) in enumerate(positions(ops, runs)):
        assert (ops[mine] == kind).all()
        assert (np.diff(mine) > 0).all()
        assert (run_of[mine] == -1).all()
        run_of[mine] = r
    assert (run_of >= 0).all()
    assert all(x[0] != y[0] for x, y in zip(runs, runs[1:]))
    for key in np.unique(keys):
        mine = np.flatnonzero(keys == key)
        assert (np.diff(run_of[mine]) >= 0).all()
        for i, j in zip(mine, mine[1:]):
            if run_of[i] == run_of[j]:
                assert ops[i] == ops[j]


def assert_program_order(ops, keys, values, result) -> DictModel:
    """Every position equals a one-op-at-a-time dict replay in arrival
    order; returns the model."""
    model = DictModel()
    for i in range(len(ops)):
        lane = slice(i, i + 1)
        recorded = SimpleNamespace(
            insert=lambda k, v: None,
            find=lambda k: (result.values[lane], result.found[lane]),
            delete=lambda k: result.removed[lane])
        assert model.apply(recorded, _KINDS[ops[i]], keys[lane],
                           values[lane]) == [], f"position {i}"
    return model


class TestPlanRuns:
    def test_commuting_runs_merge_per_kind(self):
        ops = np.array([OP_INSERT, OP_FIND, OP_INSERT, OP_FIND, OP_DELETE])
        runs = plan_runs(ops, np.array([1, 2, 3, 4, 5]))
        assert positions(ops, runs) == [(OP_INSERT, [0, 2]),
                                        (OP_FIND, [1, 3]),
                                        (OP_DELETE, [4])]

    def test_cycle_follows_first_appearance(self):
        ops = np.array([OP_DELETE, OP_INSERT, OP_DELETE, OP_INSERT])
        runs = plan_runs(ops, np.array([1, 2, 3, 4]))
        assert positions(ops, runs) == [(OP_DELETE, [0, 2]),
                                        (OP_INSERT, [1, 3])]

    def test_repeated_key_moves_to_a_later_cycle(self):
        # Key 7 is inserted, found, then deleted and found again: its
        # second find needs a second find run, after the delete run.
        ops = np.array([OP_INSERT, OP_FIND, OP_DELETE, OP_FIND, OP_INSERT])
        runs = plan_runs(ops, np.array([7, 7, 7, 7, 8]))
        assert positions(ops, runs) == [(OP_INSERT, [0, 4]),
                                        (OP_FIND, [1]), (OP_DELETE, [2]),
                                        (OP_FIND, [3])]

    def test_consecutive_same_kind_ops_of_a_key_share_a_run(self):
        ops = np.array([OP_INSERT, OP_FIND, OP_INSERT, OP_FIND])
        runs = plan_runs(ops, np.array([5, 6, 5, 9]))
        assert positions(ops, runs) == [(OP_INSERT, [0, 2]),
                                        (OP_FIND, [1, 3])]

    @pytest.mark.parametrize("ops, keys", [
        # One run per kind already.
        ([OP_FIND, OP_FIND, OP_INSERT, OP_DELETE], [1, 2, 3, 4]),
        # A key's alternating kinds admit no shorter plan.
        ([OP_INSERT, OP_DELETE, OP_INSERT, OP_DELETE], [1, 1, 1, 1]),
        # The plan ties the arrival runs: I F I over a key, F alone.
        ([OP_INSERT, OP_FIND, OP_INSERT], [1, 1, 1]),
    ])
    def test_arrival_runs_when_the_plan_is_not_shorter(self, ops, keys):
        ops = np.array(ops)
        assert plan_runs(ops, np.array(keys)) == [
            (kind, slice(a, b)) for kind, a, b in op_runs(ops)]

    def test_execute_mixed_reports_the_planned_runs(self):
        table = fresh_table()
        ops = np.array([OP_INSERT, OP_FIND, OP_INSERT, OP_FIND])
        keys = np.array([1, 2, 3, 1], dtype=np.uint64)
        result = execute_mixed(table, ops, keys, keys * np.uint64(10))
        assert result.runs == 2
        assert result.found.tolist() == [False, False, False, True]
        assert result.values[3] == 10

    @given(runs=st.lists(st.tuples(st.sampled_from([OP_INSERT, OP_FIND,
                                                     OP_DELETE]),
                                    st.integers(1, 9)),
                          min_size=1, max_size=14),
           keyspace=st.integers(1, 30), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_heavy_repetition(self, runs, keyspace, seed):
        """Over a keyspace of at most 30, the plan follows the rule, is
        never longer than the arrival runs (and is those runs when it
        would not be shorter), keeps each key's program order, and
        every position of a lone table, a sharded batch in waves and
        one on the process pool equals the dict model's replay."""
        rng = np.random.default_rng(seed)
        ops = np.concatenate([np.full(length, kind, dtype=np.int64)
                              for kind, length in runs])
        keys = rng.integers(0, keyspace, len(ops)).astype(np.uint64)
        values = rng.integers(1, 1 << 40, len(ops)).astype(np.uint64)

        planned = plan_runs(ops, encode_keys(keys))
        arrival = op_runs(ops)
        rule = np.array(rule_runs(ops, keys))
        if len(set(rule.tolist())) < len(arrival):
            assert [mine for _kind, mine in positions(ops, planned)] == [
                np.flatnonzero(rule == r).tolist()
                for r in sorted(set(rule.tolist()))]
        else:
            assert planned == [(kind, slice(a, b))
                               for kind, a, b in arrival]
        assert_plan_keeps_key_order(ops, keys, planned)

        config = DyCuckooConfig(initial_buckets=8, min_buckets=8,
                                bucket_capacity=4)
        lone = DyCuckooTable(config)
        waves = ShardedDyCuckoo(num_shards=4, config=config)
        with ShardedDyCuckoo(num_shards=4, config=config,
                             parallel_workers=2) as pool:
            for table in (lone, waves, pool):
                result = table.execute_mixed(ops, keys, values)
                model = assert_program_order(ops, keys, values, result)
                table.validate()
                assert model.divergence(table) == []
                if table is lone:
                    assert result.runs == len(planned)
            assert not pool._parallel_broken


class TestMidBatchFailure:
    def test_a_raising_batch_applied_a_prefix_of_its_plan(self):
        """An overflow (``auto_resize=False``) raises in the plan's insert
        run: the table has applied the plan's runs before it (deletes
        that arrive after the overflow among them) and the part of the
        insert run that running it alone applies; the plan's last run,
        finds of keys deleted earlier, never starts."""
        def build():
            table = DyCuckooTable(DyCuckooConfig(
                initial_buckets=8, min_buckets=8, bucket_capacity=8,
                auto_resize=False))
            table.insert(live, live)
            return table

        keys = np.arange(1, 1001, dtype=np.uint64)
        live, overflow = keys[:120], keys[200:600]
        parts = [(OP_FIND, live[:40]), (OP_DELETE, live[:30]),
                 (OP_INSERT, overflow), (OP_DELETE, live[60:90]),
                 (OP_FIND, live[:30]), (OP_DELETE, live[90:])]
        ops = np.concatenate([np.full(len(part), kind)
                              for kind, part in parts])
        batch = np.concatenate([part for _kind, part in parts])
        runs = plan_runs(ops, encode_keys(batch))
        assert [kind for kind, _run in runs] == [
            OP_FIND, OP_DELETE, OP_INSERT, OP_FIND]

        table, reference = build(), build()
        with pytest.raises(CapacityError):
            table.execute_mixed(ops, batch, batch)
        for kind, run in runs[:3]:
            if kind == OP_INSERT:
                with pytest.raises(CapacityError):
                    reference.insert(batch[run], batch[run])
            else:
                execute_mixed(reference, ops[run], batch[run])
        assert twin_divergence(table, None, reference, None) == []
        assert table.stats.snapshot() == reference.stats.snapshot()
        # All 90 deletes ran, those arriving after the overflow too.
        assert table.stats.delete_hits == 90
