"""Property-based tests: baselines versus a dict reference model.

The same model-based harness as ``test_property_table``, applied to
MegaKV and SlabHash (CUDPP has no delete, so its program space is
insert/find only).
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines.cudpp import CudppHashTable
from repro.baselines.megakv import MegaKVTable
from repro.baselines.slab import SlabHashTable
from repro.oracle import DictModel

from .conftest import batch_op_strategy

full_op = batch_op_strategy(max_key=150, max_size=30)
read_write_op = batch_op_strategy(max_key=150, max_size=30,
                                  kinds=("insert", "find"))


class TestMegaKVModel:
    @given(st.lists(full_op, min_size=1, max_size=20))
    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_matches_dict(self, ops):
        table = MegaKVTable(initial_buckets=8, bucket_capacity=4)
        model = DictModel()
        for op in ops:
            assert model.apply(table, *op) == []
            assert len(table) == len(model.data)
        table.validate()


class TestSlabModel:
    @given(st.lists(full_op, min_size=1, max_size=20))
    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_matches_dict(self, ops):
        table = SlabHashTable(n_buckets=4)
        model = DictModel()
        for op in ops:
            assert model.apply(table, *op) == []
            assert len(table) == len(model.data)
        table.validate()

    @given(st.lists(full_op, min_size=1, max_size=20))
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_memory_never_shrinks(self, ops):
        """Symbolic deletion: allocated slots are monotone."""
        table = SlabHashTable(n_buckets=4)
        model = DictModel()
        slots = table.total_slots
        for op in ops:
            assert model.apply(table, *op) == []
            assert table.total_slots >= slots
            slots = table.total_slots


class TestCudppModel:
    @given(st.lists(read_write_op, min_size=1, max_size=20))
    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_matches_dict(self, ops):
        table = CudppHashTable(expected_entries=400, target_fill=0.5)
        model = DictModel()
        for op in ops:
            assert model.apply(table, *op) == []
            assert len(table) == len(model.data)
        table.validate()
