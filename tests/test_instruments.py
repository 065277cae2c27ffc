"""One ``Instruments`` record attached once per front-end.

Covers the wiring :meth:`DyCuckooTable.attach` owns (recorder into the
fault plan and sanitizer, stash sanitizer, detach back to the nulls),
the sharded and baseline front-ends, and the null singletons keeping
their identity across a pickle round-trip.
"""

import dataclasses
import pickle

import numpy as np
import pytest

from repro import DyCuckooTable, Instruments, ShardedDyCuckoo
from repro.baselines import DyCuckooAdapter
from repro.baselines.megakv import MegaKVTable
from repro.core.config import DyCuckooConfig
from repro.faults import NO_FAULTS, FaultPlan
from repro.sanitizer import NULL_SANITIZER, Sanitizer
from repro.telemetry import NULL_TELEMETRY, Telemetry
from repro.telemetry.profiler import NULL_PROFILER, Profiler
from repro.telemetry.recorder import NULL_RECORDER, FlightRecorder

HANDLES = ("telemetry", "profiler", "recorder", "sanitizer", "faults")

NULLS = {"telemetry": NULL_TELEMETRY, "profiler": NULL_PROFILER,
         "recorder": NULL_RECORDER, "sanitizer": NULL_SANITIZER,
         "faults": NO_FAULTS}


def enabled_handle(name: str):
    """A fresh enabled instance of the instrument called ``name``."""
    return {"telemetry": Telemetry, "profiler": Profiler,
            "recorder": FlightRecorder, "sanitizer": Sanitizer,
            "faults": lambda: FaultPlan(seed=1, rates={})}[name]()


def full_record() -> Instruments:
    return Instruments(**{name: enabled_handle(name) for name in HANDLES})


def small_config() -> DyCuckooConfig:
    return DyCuckooConfig(initial_buckets=16, bucket_capacity=8,
                          min_buckets=8)


class TestRecord:
    def test_defaults_are_the_null_singletons(self):
        inst = Instruments()
        for name in HANDLES:
            assert getattr(inst, name) is NULLS[name]
        assert not inst.active

    @pytest.mark.parametrize("name", HANDLES)
    def test_any_enabled_handle_makes_it_active(self, name):
        assert Instruments(**{name: enabled_handle(name)}).active

    def test_record_is_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            Instruments().telemetry = Telemetry()


class TestTableAttach:
    def test_handles_mirror_the_record(self):
        table = DyCuckooTable(small_config())
        for inst in (Instruments(), full_record()):
            table.attach(inst)
            assert table.instruments is inst
            for name in HANDLES:
                assert getattr(table, name) is getattr(inst, name)
        assert table.stash.sanitizer is table.sanitizer

    def test_recorder_wired_into_plan_and_sanitizer(self):
        table = DyCuckooTable(small_config())
        rec, plan, san = FlightRecorder(), FaultPlan(seed=2), Sanitizer()
        table.attach(Instruments(recorder=rec, faults=plan, sanitizer=san))
        assert plan.recorder is rec
        assert san.recorder is rec
        assert table.stash.sanitizer is san
        san._violate("racecheck", "test.rule", "synthetic violation")
        assert rec.trips == 1
        assert rec.last_bundle()["table"]["len"] == len(table)

    def test_detach_restores_every_null(self):
        table = DyCuckooTable(small_config())
        inst = full_record()
        table.attach(inst)
        table.attach(None)
        assert table.instruments == Instruments()
        for name in HANDLES:
            assert getattr(table, name) is NULLS[name]
        assert table.stash.sanitizer is NULL_SANITIZER
        # The detached plan and sanitizer no longer trip the recorder,
        # and the shared singletons never gained one.
        assert inst.faults.recorder is NULL_RECORDER
        assert inst.sanitizer.recorder is NULL_RECORDER
        assert NO_FAULTS.recorder is NULL_RECORDER
        assert NULL_SANITIZER.recorder is NULL_RECORDER

    def test_wiring_follows_the_record_not_call_order(self):
        table = DyCuckooTable(small_config())
        rec, plan = FlightRecorder(), FaultPlan(seed=3)
        table.attach(Instruments(faults=plan))
        assert plan.recorder is NULL_RECORDER
        table.attach(Instruments(faults=plan, recorder=rec))
        assert plan.recorder is rec
        table.attach(Instruments(faults=plan))
        assert plan.recorder is NULL_RECORDER


class TestShardedAttach:
    def test_child_telemetry_per_shard_other_handles_shared(self):
        table = ShardedDyCuckoo(num_shards=4, config=small_config())
        inst = full_record()
        table.attach(inst)
        assert table.instruments is inst
        assert table.telemetry is inst.telemetry
        children = [shard.telemetry for shard in table.shards]
        assert all(child.enabled for child in children)
        assert len({id(child) for child in children} |
                   {id(inst.telemetry)}) == len(children) + 1
        for shard in table.shards:
            for name in HANDLES[1:]:
                assert getattr(shard, name) is getattr(inst, name)

    def test_active_drives_the_parallel_gate(self):
        table = ShardedDyCuckoo(num_shards=2, config=small_config(),
                                parallel_workers=2)
        keys = np.arange(1, 257, dtype=np.uint64)
        _codes, selections = table._scatter(keys)
        assert not table.instruments.active
        assert table._parallel_eligible(selections)
        for name in HANDLES:
            table.attach(Instruments(**{name: enabled_handle(name)}))
            assert table.instruments.active
            assert not table._parallel_eligible(selections), name
        table.attach(None)
        assert table._parallel_eligible(selections)
        for shard in table.shards:
            assert shard.instruments == Instruments()
        table.close()


class TestHarnessFrontEnds:
    def test_adapter_forwards_the_record(self):
        adapter = DyCuckooAdapter(small_config())
        tel, prof = Telemetry(), Profiler()
        adapter.attach(Instruments(telemetry=tel, profiler=prof))
        assert adapter.telemetry is tel
        assert adapter.table.telemetry is tel
        assert adapter.table.profiler is prof
        keys = np.arange(1, 101, dtype=np.uint64)
        adapter.insert(keys, keys)
        assert tel.tracer.spans("insert")

    def test_baseline_accepts_telemetry(self):
        table = MegaKVTable()
        assert table.telemetry is NULL_TELEMETRY
        tel = Telemetry()
        table.attach(Instruments(telemetry=tel))
        assert table.telemetry is tel
        assert table.instruments.telemetry is tel
        table.attach(None)
        assert table.telemetry is NULL_TELEMETRY


class TestPickleIdentity:
    @pytest.mark.parametrize("name", HANDLES)
    def test_null_singleton_survives_pickle(self, name):
        null = NULLS[name]
        assert pickle.loads(pickle.dumps(null)) is null

    def test_pickled_table_keeps_the_null_record(self):
        table = DyCuckooTable(small_config())
        clone = pickle.loads(pickle.dumps(table))
        assert clone.instruments == Instruments()
        for name in HANDLES:
            assert getattr(clone, name) is NULLS[name]
        assert clone.stash.sanitizer is NULL_SANITIZER
