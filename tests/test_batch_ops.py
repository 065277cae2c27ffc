"""Tests for mixed-operation batch execution.

``REPRO_FUZZ_EXAMPLES`` sets the example budget of the dict-model
property test (CI raises it).
"""

import os
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.batch_ops import (OP_DELETE, OP_FIND, OP_INSERT,
                                  execute_mixed)
from repro.core.config import DyCuckooConfig
from repro.core.table import DyCuckooTable
from repro.errors import InvalidConfigError
from repro.oracle import DictModel

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
