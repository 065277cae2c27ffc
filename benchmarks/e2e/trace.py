"""Outside-in layer tracer for the end-to-end benchmark.

The tracer wraps the program's layer entry points from outside while
it is installed and restores the originals on :meth:`Tracer.uninstall`.
Each function is patched where its caller looks it up: a method on its
class, a module function in the module that calls it (for example
``repro.shard.sharded._execute_mixed``, the alias ``sharded.py`` binds
at import time).

Every call records one span: name, start, end, parent span and batch
id.  Spans live in compact ``array`` buffers and are written once, by
:meth:`Tracer.save`, as an ``.npz``.  A layer's self time is its spans'
durations minus the part covered by their child spans.
"""

from __future__ import annotations

import functools
import importlib
from array import array
from time import perf_counter_ns

import numpy as np

#: ``(layer, module, class or None, attributes, items)``.  ``items``
#: locates the key array whose length a span records: an index into
#: the call's positional arguments (``self`` included), a keyword
#: name, or ``None`` when the function takes no key array.
LAYER_SPECS = (
    ("shard", "repro.shard.sharded", "ShardedDyCuckoo",
     ("execute_mixed",), 2),
    ("shard", "repro.shard.sharded", "ShardedDyCuckoo",
     ("insert", "find", "delete"), 1),
    ("core.table", "repro.core.table", "DyCuckooTable",
     ("find", "insert", "delete"), 1),
    ("core.table", "repro.core.table", "DyCuckooTable",
     ("execute_mixed",), 2),
    ("core.table", "repro.core.batch_ops", None, ("execute_mixed",), 2),
    ("core.table", "repro.shard.sharded", None, ("_execute_mixed",), 2),
    ("core.hashing", "repro.core.hashing", "PairHash",
     ("tables_for", "alternate_table"), 1),
    ("core.hashing", "repro.core.hashing", "UniversalHash",
     ("raw", "bucket"), 1),
    ("core.hashing", "repro.core.hashing", "UniversalHash",
     ("bucket_from_raw",), 0),
    ("core.distribution", "repro.core.distribution", "WeightedRouter",
     ("choose",), 1),
    ("core.distribution", "repro.core.distribution", None,
     ("theorem1_weights",), None),
    ("core.subtable.probe", "repro.core.subtable", "Subtable",
     ("lookup", "update_existing", "erase", "contains"), 1),
    ("core.subtable.place", "repro.core.subtable", "Subtable",
     ("place_round", "swap_slot", "bucket_keys"), 1),
    ("core.resize", "repro.core.resize", "ResizeController",
     ("enforce_bounds", "upsize_for_insert_failure", "upsize_auto",
      "downsize_auto", "upsize_under_pressure", "open_upsize_epoch",
      "open_downsize_epoch", "drain_migration", "migrate_on_access",
      "finalize_migration", "upsize", "downsize"), None),
    ("core.stash", "repro.core.stash", "Stash",
     ("push", "lookup", "update", "erase"), 1),
    ("core.stash", "repro.core.stash", "Stash", ("pop_all",), None),
    ("kernels", "repro.kernels.find", None, ("run_find_kernel",), "codes"),
    ("kernels", "repro.kernels.insert", None,
     ("run_voter_insert_kernel",), "codes"),
    ("kernels", "repro.kernels.delete", None,
     ("run_delete_kernel",), "codes"),
    ("gpusim.cohort", "repro.gpusim.cohort", None,
     ("cohort_find", "cohort_insert", "cohort_delete"), 1),
)

#: Layer names in report order.
LAYERS = tuple(dict.fromkeys(spec[0] for spec in LAYER_SPECS))


def _length(args, kwargs, where) -> int:
    if where is None:
        return 0
    if isinstance(where, str):
        arr = kwargs.get(where)
    else:
        arr = args[where] if len(args) > where else None
    return 0 if arr is None else len(arr)


class Tracer:
    """Span recorder for the program's layer entry points."""

    def __init__(self) -> None:
        #: ``(layer, module, class, attribute, items)`` per name id.
        self._targets = [(layer, module, cls, attr, items)
                         for layer, module, cls, attrs, items in LAYER_SPECS
                         for attr in attrs]
        #: Qualified function name and layer per name id.
        self.names = [".".join(p for p in (module, cls, attr) if p)
                      for _, module, cls, attr, _ in self._targets]
        self.layer_of = [target[0] for target in self._targets]
        self._name = array("i")
        self._start = array("q")
        self._end = array("q")
        self._parent = array("q")
        self._batch = array("q")
        self._items = array("q")
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        #: Batch id stamped on spans opened from now on.
        self.batch = -1

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------

    def install(self) -> None:
        """Wrap every entry point listed in :data:`LAYER_SPECS`."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for name_id, (_, module_name, cls_name, attr, items) in enumerate(
                self._targets):
            module = importlib.import_module(module_name)
            owner = getattr(module, cls_name) if cls_name else module
            original = vars(owner)[attr]
            if isinstance(original, staticmethod):
                wrapped = staticmethod(
                    self._wrap(original.__func__, name_id, items))
            else:
                wrapped = self._wrap(original, name_id, items)
            setattr(owner, attr, wrapped)
            self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every patched entry point."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _wrap(self, fn, name_id: int, items):
        rec_name, rec_start, rec_end = self._name, self._start, self._end
        rec_parent, rec_batch = self._parent, self._batch
        rec_items, stack = self._items, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(rec_name)
            rec_name.append(name_id)
            rec_parent.append(stack[-1] if stack else -1)
            rec_batch.append(self.batch)
            rec_items.append(_length(args, kwargs, items))
            rec_end.append(0)
            stack.append(idx)
            rec_start.append(perf_counter_ns())
            try:
                return fn(*args, **kwargs)
            finally:
                rec_end[idx] = perf_counter_ns()
                stack.pop()

        return traced

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        """The span buffers as numpy arrays (one row per span)."""
        return {
            "name": np.frombuffer(self._name, dtype=np.int32).copy(),
            "start_ns": np.frombuffer(self._start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self._end, dtype=np.int64).copy(),
            "parent": np.frombuffer(self._parent, dtype=np.int64).copy(),
            "batch": np.frombuffer(self._batch, dtype=np.int64).copy(),
            "items": np.frombuffer(self._items, dtype=np.int64).copy(),
        }

    def save(self, path, **meta) -> None:
        """Write every span, the name table and ``meta`` to ``path``."""
        np.savez_compressed(path, names=np.array(self.names),
                            layers=np.array(self.layer_of), **meta,
                            **self.arrays())

    def summary(self, wall_ns: int) -> dict:
        """Per-function and per-layer calls, items and self time.

        ``wall_ns`` is the timed batch wall time the shares are taken
        of; ``coverage`` is the part of it inside top-level spans.
        """
        a = self.arrays()
        dur = a["end_ns"] - a["start_ns"]
        nested = a["parent"] >= 0
        covered = np.bincount(a["parent"][nested], weights=dur[nested],
                              minlength=len(dur))
        self_ns = dur - covered
        n_names = len(self.names)
        calls = np.bincount(a["name"], minlength=n_names)
        items = np.bincount(a["name"], weights=a["items"], minlength=n_names)
        own = np.bincount(a["name"], weights=self_ns, minlength=n_names)
        functions = {
            name: {"layer": self.layer_of[i], "calls": int(calls[i]),
                   "items": int(items[i]), "self_s": float(own[i]) / 1e9}
            for i, name in enumerate(self.names)}
        layers = {layer: {"calls": 0, "items": 0, "self_s": 0.0}
                  for layer in LAYERS}
        for entry in functions.values():
            acc = layers[entry["layer"]]
            for key in ("calls", "items", "self_s"):
                acc[key] += entry[key]
        for acc in layers.values():
            acc["share"] = acc["self_s"] * 1e9 / wall_ns if wall_ns else 0.0
        root_ns = float(dur[~nested].sum())
        return {"layers": layers, "functions": functions,
                "spans": int(len(dur)),
                "coverage": root_ns / wall_ns if wall_ns else 0.0}
