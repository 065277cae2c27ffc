"""Flight recorder — a bounded ring of recent events plus post-mortems.

The profiler answers *what does a healthy run look like*; the flight
recorder answers *what just happened* when a run goes wrong.  It is a
fixed-capacity ring buffer of recent structural events (kernel
launches, resizes, stash spills, injected faults, sanitizer findings)
cheap enough to leave attached in long fuzz sessions, plus an
auto-dumping **post-mortem bundle** mechanism:

whenever a fault-plan injection fires, the sanitizer records a
violation, or :func:`repro.core.analysis.check_invariants` fails, the
attached recorder *trips* — it freezes the ring contents together with
a profiler snapshot (when one is attached) and the table's counter
state into a single plain-JSON bundle.  Bundles are kept on the
recorder (bounded) and optionally written to ``dump_dir``, so a fuzz
counterexample ships with the exact event history that led up to it.

Gating follows the ``NULL_TELEMETRY`` idiom: hook sites check one
``recorder.enabled`` attribute and the default :data:`NULL_RECORDER`
singleton keeps it ``False``.
"""

from __future__ import annotations

import json
import os
from collections import deque

from repro.nulls import NullSingleton

__all__ = ["FlightRecorder", "NULL_RECORDER"]


class FlightRecorder:
    """Bounded event ring with trip-triggered post-mortem bundles.

    Parameters
    ----------
    capacity:
        Ring size; the oldest events fall off first.
    max_bundles:
        How many post-mortem bundles to retain (oldest dropped first).
        Trips beyond the bound still count in :attr:`trips`.
    dump_dir:
        Optional directory; every trip also writes its bundle there as
        ``postmortem_<n>.json``.
    """

    #: Instrumentation gate; the null subclass overrides it to False.
    enabled = True

    def __init__(self, capacity: int = 256, max_bundles: int = 4,
                 dump_dir: str | None = None) -> None:
        self.capacity = int(capacity)
        self.events: deque = deque(maxlen=self.capacity)
        self.bundles: deque = deque(maxlen=int(max_bundles))
        self.dump_dir = dump_dir
        self.trips = 0
        self._seq = 0
        self._table = None

    def attach(self, table) -> "FlightRecorder":
        """Bind a table so bundles can include its state at trip time."""
        self._table = table
        return self

    # ------------------------------------------------------------------
    # Hot path
    # ------------------------------------------------------------------

    def record(self, kind: str, **payload) -> None:
        """Append one event to the ring (O(1), oldest evicted)."""
        self._seq += 1
        event = {"seq": self._seq, "kind": kind}
        event.update(payload)
        self.events.append(event)

    # ------------------------------------------------------------------
    # Trip / post-mortem
    # ------------------------------------------------------------------

    def trip(self, reason: str, **detail) -> dict:
        """Freeze the ring into a post-mortem bundle and retain it."""
        self.trips += 1
        bundle = {
            "reason": reason,
            "detail": {k: _jsonable(v) for k, v in detail.items()},
            "trip": self.trips,
            "seq": self._seq,
            "events": [dict(e) for e in self.events],
            "profiler": None,
            "table": None,
        }
        table = self._table
        if table is not None:
            if table.profiler.enabled:
                bundle["profiler"] = table.profiler.snapshot()
            bundle["table"] = _table_state(table)
        self.bundles.append(bundle)
        if self.dump_dir:
            os.makedirs(self.dump_dir, exist_ok=True)
            path = os.path.join(self.dump_dir,
                                f"postmortem_{self.trips:04d}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(bundle, fh, indent=2, default=str)
        return bundle

    def last_bundle(self) -> dict | None:
        return self.bundles[-1] if self.bundles else None

    def summary(self, max_events: int = 10) -> dict:
        """Compact digest for embedding in a failure message."""
        bundle = self.last_bundle()
        if bundle is None:
            return {"trips": self.trips, "bundles": 0,
                    "events": list(self.events)}
        return {
            "trips": self.trips,
            "bundles": len(self.bundles),
            "reason": bundle["reason"],
            "detail": bundle["detail"],
            "last_events": bundle["events"][-max_events:],
            "table": bundle["table"],
        }


def _table_state(table) -> dict:
    """Counter-level table snapshot (no storage arrays — bundles must
    stay small enough to embed in a failure message)."""
    state = {
        "len": len(table),
        "load_factor": float(table.load_factor),
        "subtable_loads": [int(n) for n in table.subtable_loads()],
        "subtable_load_factors": [float(f) for f in
                                  table.subtable_load_factors],
        "stash": len(getattr(table, "stash", ())),
    }
    stats = getattr(table, "stats", None)
    if stats is not None:
        state["stats"] = stats.snapshot()
    return state


def _jsonable(value):
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return str(value)


class _NullRecorder(NullSingleton, FlightRecorder):
    """Disabled recorder: the default on every table."""

    enabled = False
    SINGLETON = "NULL_RECORDER"

    def __init__(self) -> None:
        super().__init__(capacity=1, max_bundles=1)

    def record(self, kind: str, **payload) -> None:  # pragma: no cover
        pass

    def trip(self, reason: str, **detail) -> dict:  # pragma: no cover
        return {}


#: Shared disabled-recorder singleton (one attribute check to skip).
NULL_RECORDER = _NullRecorder()
