"""The op-level telemetry streams are pinned event for event.

A table's public ``insert``/``find``/``delete`` each record one ``op``
span over the whole call, and ``execute_mixed`` records one
``mixed.batch`` span holding, per planned homogeneous run, a
``mixed.run`` instant followed by that run's op span.  The events a call records
inside its span (resize lifecycle, lock grants, eviction rounds) keep
their names, order and nesting depth.  An instrumented sharded
homogeneous op records one op span in each shard's own telemetry, for
the shards that hold keys of the batch.
"""

import numpy as np

from repro.core.batch_ops import OP_DELETE, OP_FIND, OP_INSERT
from repro.core.config import DyCuckooConfig
from repro.core.instruments import Instruments
from repro.core.table import DyCuckooTable
from repro.shard import ShardedDyCuckoo
from repro.telemetry import Telemetry

_CONFIG = DyCuckooConfig(initial_buckets=4, bucket_capacity=4,
                         min_buckets=4, seed=3)


def _traced_session() -> list:
    """Grow a small table past two upsizes, probe it, shrink it, then
    run one mixed batch of four arrival runs on distinct keys, which
    the planner serves in three runs (its two insert runs as one);
    returns the recorded events."""
    table = DyCuckooTable(_CONFIG)
    telemetry = Telemetry()
    table.attach(Instruments(telemetry=telemetry))
    keys = np.arange(1, 61, dtype=np.uint64)
    table.insert(keys, keys * np.uint64(2))
    table.find(np.arange(50, 80, dtype=np.uint64))
    table.delete(np.arange(1, 41, dtype=np.uint64))
    ops = np.array([OP_INSERT] * 5 + [OP_FIND] * 4 + [OP_DELETE] * 3
                   + [OP_INSERT] * 2, dtype=np.int64)
    mixed = np.arange(100, 114, dtype=np.uint64)
    table.execute_mixed(ops, mixed, mixed)
    return telemetry.tracer.events


def _inside(span, events) -> int:
    """How many of ``events`` the span ``span`` contains."""
    end = span.ts_us + span.dur_us
    return sum(1 for e in events if span.ts_us < e.ts_us < end)


def test_op_events_names_order_args_and_extent():
    events = _traced_session()
    ops = [(e.name, e.phase, e.depth, e.args, _inside(e, events))
           for e in events if e.category == "op"]
    assert ops == [
        ("insert", "X", 0, {"n": 60}, 16),
        ("find", "X", 0, {"n": 30}, 0),
        ("delete", "X", 0, {"n": 40}, 6),
        ("mixed.batch", "X", 0, {"ops": 14}, 11),
        ("mixed.run", "i", 1, {"kind": "insert", "ops": 7}, 0),
        ("insert", "X", 1, {"n": 7}, 5),
        ("mixed.run", "i", 1, {"kind": "find", "ops": 4}, 0),
        ("find", "X", 1, {"n": 4}, 0),
        ("mixed.run", "i", 1, {"kind": "delete", "ops": 3}, 0),
        ("delete", "X", 1, {"n": 3}, 0),
    ]


def test_whole_stream_names_and_depths():
    events = _traced_session()
    assert [f"{e.name}@{e.depth}" for e in events] == [
        "insert@0", "resize.trigger@1", "resize.upsize_epoch@1",
        "resize.plan@2", "resize.epoch_open@2", "resize.migrate@1",
        "resize.epoch_complete@1", "lock.acquire@1", "lock.acquire@1",
        "lock.acquire@1", "lock.acquire@1", "evict.round@1",
        "lock.acquire@1", "lock.acquire@1", "evict.round@1",
        "lock.acquire@1", "evict.round@1",
        "find@0",
        "delete@0", "resize.trigger@1", "resize.downsize_epoch@1",
        "resize.plan@2", "resize.epoch_open@2", "resize.migrate@1",
        "resize.epoch_complete@1",
        "mixed.batch@0",
        "mixed.run@1", "insert@1", "lock.acquire@2", "lock.acquire@2",
        "lock.acquire@2", "lock.acquire@2", "evict.round@2",
        "mixed.run@1", "find@1",
        "mixed.run@1", "delete@1",
    ]


def test_sharded_homogeneous_op_spans_per_shard_child():
    table = ShardedDyCuckoo(num_shards=4, config=_CONFIG)
    table.attach(Instruments(telemetry=Telemetry()))
    keys = np.arange(1, 61, dtype=np.uint64)
    calls = [("insert", keys, (keys, keys)), ("find", keys[:30], None),
             ("delete", keys[:3], None)]
    expected = [[] for _ in table.shards]
    for name, batch, args in calls:
        getattr(table, name)(*(args or (batch,)))
        counts = np.bincount(table.shard_ids(batch), minlength=4)
        for idx, count in enumerate(counts.tolist()):
            if count:
                expected[idx].append((name, "X", 0, {"n": count}))
    # Some shard holds none of the three deleted keys and records no
    # delete span.
    assert min(map(len, expected)) == 2
    for shard, want in zip(table.shards, expected):
        got = [(e.name, e.phase, e.depth, e.args)
               for e in shard.telemetry.tracer.events if e.category == "op"]
        assert got == want
    assert [(e.name, e.depth, e.args)
            for e in table.telemetry.tracer.events] == [
        ("shard.insert", 0, {"n": 60})]
