"""Correctness oracles for the paper's batched INSERT/FIND/DELETE.

Three contracts define "the same behaviour": table ≡ dict model, warp ≡
cohort engine, and serial ≡ parallel shards.  This module is their one
implementation, shared by the CLI, the scenario runner, the benches and
the tests: :class:`DictModel` checks the first, :func:`twin_divergence`
the other two, and :func:`mixed_batch` draws the run-structured batches
they run on.  Each check returns its divergences; empty means agreement.
"""

from __future__ import annotations

import numpy as np

from repro.core.batch_ops import (OP_DELETE, OP_FIND, OP_INSERT,
                                  MixedBatchResult)
from repro.shard import ShardedDyCuckoo

_KINDS = np.array([OP_INSERT, OP_FIND, OP_DELETE], dtype=np.int64)


class DictModel:
    """A dict model of any table with ``insert``/``find``/``delete``/
    ``__len__``: inserts are last-writer-wins; in a delete batch the
    first occurrence of a live key hits and later duplicates miss."""

    def __init__(self) -> None:
        self.data: dict[int, int] = {}

    def apply(self, table, kind: str, keys, values=None) -> list[str]:
        """Run one batched op on ``table``, mirror it, check each lane."""
        keys = np.asarray(keys, dtype=np.uint64)
        problems = []
        if kind == "insert":
            values = np.asarray(values, dtype=np.uint64)
            table.insert(keys, values)
            self.data.update(zip(keys.tolist(), values.tolist()))
        elif kind == "find":
            got, found = table.find(keys)
            for k, v, hit in zip(keys.tolist(), got.tolist(),
                                 found.tolist()):
                want = self.data.get(k)
                if hit != (want is not None) or (hit and v != want):
                    problems.append(f"FIND({k}) returned "
                                    f"{v if hit else 'miss'}, model has "
                                    f"{'miss' if want is None else want}")
        elif kind == "delete":
            removed = table.delete(keys)
            for lane, (k, hit) in enumerate(zip(keys.tolist(),
                                                removed.tolist())):
                if hit != (self.data.pop(k, None) is not None):
                    problems.append(f"DELETE({k}) lane {lane} "
                                    f"{'hit' if hit else 'missed'}")
        else:
            raise ValueError(f"unknown operation kind {kind!r}")
        return problems

    def evict(self, keys) -> None:
        """Drop ``keys`` the table removed on its own (a memory budget)."""
        for k in np.asarray(keys, dtype=np.uint64).tolist():
            self.data.pop(k, None)

    def divergence(self, table) -> list[str]:
        """Whole-table check: the size, and every model key's value."""
        problems = []
        if len(table) != len(self.data):
            problems.append(f"size diverged: table {len(table)} vs "
                            f"model {len(self.data)}")
        keys = np.array(sorted(self.data), dtype=np.uint64)
        got, found = table.find(keys)
        for k, v, hit in zip(keys.tolist(), got.tolist(), found.tolist()):
            if not hit:
                problems.append(f"model key {k} missing from the table")
            elif v != self.data[k]:
                problems.append(f"key {k} holds {v}, model has "
                                f"{self.data[k]}")
        return problems


def twin_divergence(table_a, result_a, table_b, result_b) -> list[str]:
    """Compare two runs of the same work bit for bit.

    Results are :class:`~repro.core.batch_ops.MixedBatchResult` objects
    (``values``, ``found``, ``removed``, ``runs``, ``kernel``) or a
    kernel entry point's outputs.  Tables must agree on each subtable's
    ``size``, ``keys`` and ``values``, the stash and the victim counter,
    shard by shard for a :class:`~repro.ShardedDyCuckoo`.  ``None`` for
    both results (or both tables) skips that half.
    """
    problems = ([] if result_a is None
                else _result_divergence("result", result_a, result_b))
    if table_a is None:
        return problems
    sharded = isinstance(table_a, ShardedDyCuckoo)
    parts_a = table_a.shards if sharded else [table_a]
    parts_b = table_b.shards if sharded else [table_b]
    for s, (ta, tb) in enumerate(zip(parts_a, parts_b)):
        where = f"shard {s} " if sharded else ""
        if ta._victim_counter != tb._victim_counter:
            problems.append(f"{where}victim counter diverged: "
                            f"{ta._victim_counter} != {tb._victim_counter}")
        for t, (sa, sb) in enumerate(zip(ta.subtables, tb.subtables)):
            if not (sa.size == sb.size and np.array_equal(sa.keys, sb.keys)
                    and np.array_equal(sa.values, sb.values)):
                problems.append(f"{where}subtable {t} storage diverged")
        if not all(map(np.array_equal, ta.stash.export_entries(),
                       tb.stash.export_entries())):
            problems.append(f"{where}stash diverged")
    return problems


def _result_divergence(name: str, a, b) -> list[str]:
    if isinstance(a, MixedBatchResult):
        pairs = [(field, getattr(a, field), getattr(b, field)) for field
                 in ("values", "found", "removed", "runs", "kernel")]
    elif isinstance(a, tuple):
        pairs = [(f"{name}[{i}]", x, y) for i, (x, y) in enumerate(zip(a, b))]
    elif isinstance(a, np.ndarray):
        return [] if np.array_equal(a, b) else [f"{name} diverged"]
    else:
        return [] if a == b else [f"{name} diverged: {a} != {b}"]
    return [problem for field, x, y in pairs
            for problem in _result_divergence(field, x, y)]


def mixed_batch(rng: np.random.Generator, n: int, *,
                run_length: tuple[int, int] = (50, 500),
                keyspace: int | None = None, value_high: int = 1 << 32):
    """``(ops, keys, values)``: homogeneous runs of ``run_length`` ops
    (high exclusive), insert/find/delete at 0.5/0.3/0.2; keys uniform in
    ``[1, keyspace]`` (default ``max(2, n // 2)``, so keys repeat),
    values in ``[1, value_high)``."""
    ops = np.empty(n, dtype=np.int64)
    pos = 0
    while pos < n:
        kind = rng.choice(_KINDS, p=[0.5, 0.3, 0.2])
        length = min(int(rng.integers(*run_length)), n - pos)
        ops[pos:pos + length] = kind
        pos += length
    keyspace = max(2, n // 2) if keyspace is None else keyspace
    keys = rng.integers(1, keyspace + 1, n, dtype=np.uint64)
    values = rng.integers(1, value_high, n, dtype=np.uint64)
    return ops, keys, values
