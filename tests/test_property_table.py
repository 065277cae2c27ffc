"""Property-based tests: DyCuckoo versus a dict reference model.

Hypothesis drives random batched operation sequences against both the
table and a plain Python dict; after every batch the two must agree on
membership and values, the structural invariants must hold, and the
filled factor must respect the configured bounds whenever the table had
a chance to enforce them.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import DyCuckooConfig
from repro.core.table import DyCuckooTable
from repro.oracle import DictModel

from .conftest import batch_op_strategy

op_strategy = batch_op_strategy(max_key=200, max_size=40)


class TestTableAgainstModel:
    @given(st.lists(op_strategy, min_size=1, max_size=25))
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_random_batches_match_dict(self, ops):
        table = DyCuckooTable(DyCuckooConfig(initial_buckets=8,
                                             bucket_capacity=4,
                                             min_buckets=8))
        model = DictModel()
        for op in ops:
            assert model.apply(table, *op) == []
            assert len(table) == len(model.data)
        table.validate()
        assert model.divergence(table) == []

    @given(st.lists(op_strategy, min_size=1, max_size=15),
           st.sampled_from([2, 3, 4]))
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_invariants_for_various_d(self, ops, d):
        table = DyCuckooTable(DyCuckooConfig(num_tables=d, initial_buckets=8,
                                             bucket_capacity=4,
                                             min_buckets=8))
        model = DictModel()
        for op in ops:
            assert model.apply(table, *op) == []
            table.validate()
            # Beta bound holds after every public batch (alpha may be
            # unreachable when all subtables sit at min size).
            assert table.load_factor <= table.config.beta + 1e-9

    @given(batch_op_strategy(max_key=200, max_size=200, kinds=("insert",)))
    @settings(max_examples=40, deadline=None)
    def test_bulk_insert_then_full_scan(self, op):
        table = DyCuckooTable(DyCuckooConfig(initial_buckets=8,
                                             bucket_capacity=4))
        model = DictModel()  # last writer wins, same as the table
        assert model.apply(table, *op) == []
        assert len(table) == len(model.data)
        out_keys, out_values = table.items()
        assert {int(k): int(v)
                for k, v in zip(out_keys, out_values)} == model.data
