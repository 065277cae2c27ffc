"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import strategies as st

from repro.core.config import DyCuckooConfig
from repro.core.table import DyCuckooTable


def pytest_collection_modifyitems(config, items):
    """Keep ``soak``-marked tests out of tier-1 unless asked for.

    Full-scale scenario soaks run minutes of simulated traffic; they
    are opt-in via ``pytest -m soak`` (any ``-m`` expression naming
    the marker enables them) while their scaled-down twins stay in the
    default run.
    """
    if "soak" in (config.getoption("-m") or ""):
        return
    skip_soak = pytest.mark.skip(
        reason="soak scenarios are opt-in: run with -m soak")
    for item in items:
        if "soak" in item.keywords:
            item.add_marker(skip_soak)


@pytest.fixture
def small_config() -> DyCuckooConfig:
    """A small table configuration exercising resizes quickly."""
    return DyCuckooConfig(initial_buckets=16, bucket_capacity=8, min_buckets=8)

@pytest.fixture
def small_table(small_config) -> DyCuckooTable:
    return DyCuckooTable(small_config)


@pytest.fixture
def static_table() -> DyCuckooTable:
    """A table with automatic resizing disabled."""
    return DyCuckooTable(DyCuckooConfig(initial_buckets=64, bucket_capacity=8,
                                        auto_resize=False))


def unique_keys(n: int, seed: int = 0, low: int = 1,
                high: int = 1 << 62) -> np.ndarray:
    """``n`` distinct uint64 keys drawn reproducibly."""
    rng = np.random.default_rng(seed)
    drawn = np.unique(rng.integers(low, high, int(n * 1.2) + 16,
                                   dtype=np.int64).astype(np.uint64))
    while len(drawn) < n:
        more = rng.integers(low, high, n, dtype=np.int64).astype(np.uint64)
        drawn = np.unique(np.concatenate([drawn, more]))
    return drawn[:n]


def launch_insert(table: DyCuckooTable, engine: str, batch, values,
                  targets, voter: bool = True, faults=None, **limits):
    """Run one insert engine on crafted ``targets`` under the kernel launch.

    Tests that hand an engine its targets bypass the entry point's
    router, but not its :func:`~repro.kernels.engine.launch`: the
    sanitizer's kernel scope is what flushes the last round's accesses
    (racecheck) and checks for locks held at exit (lockcheck).  Asserts
    the table's sanitizer opened that scope; ``limits`` passes the
    engine's round limits through.
    """
    from repro.gpusim.cohort import cohort_insert
    from repro.kernels.engine import launch
    from repro.kernels.insert import _run_insert_warps

    if engine == "cohort":
        def body():
            return cohort_insert(table, batch, values, targets, voter=voter,
                                 faults=faults, **limits)
    else:
        def body():
            return _run_insert_warps(table, batch.codes, values, targets,
                                     voter, faults, **limits)
    kernels = table.sanitizer.stats["kernels"]
    try:
        return launch(table, "insert", batch, engine, body)
    finally:
        assert table.sanitizer.stats["kernels"] == kernels + 1


def batch_op_strategy(max_key: int, max_size: int,
                      kinds=("insert", "delete", "find")):
    """Hypothesis strategy for one batched op, ``(kind, keys[, values])``,
    ready to unpack into :meth:`repro.oracle.DictModel.apply`."""
    key = st.integers(min_value=0, max_value=max_key)
    pair = st.tuples(key, st.integers(min_value=0, max_value=1 << 32))
    keys = st.lists(key, min_size=1, max_size=max_size)
    ops = {"insert": st.lists(pair, min_size=1, max_size=max_size).map(
               lambda pairs: ("insert", *zip(*pairs))),
           "delete": keys.map(lambda ks: ("delete", ks)),
           "find": keys.map(lambda ks: ("find", ks))}
    return st.one_of(*(ops[kind] for kind in kinds))
