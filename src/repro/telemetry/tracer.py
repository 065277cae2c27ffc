"""Structured tracing: spans, instants, and counter samples.

The tracer records *what happened when* during a table run — kernel
launches, eviction rounds, lock retries, the resize lifecycle — as a
flat list of :class:`TraceEvent` records that the exporters
(:mod:`repro.telemetry.export`) can serialize as JSON-lines or Chrome
``trace_event`` JSON.

Timeline semantics
------------------
The simulator has no wall clock worth tracing (host time measures the
simulation, not the simulated GPU), so the tracer keeps a **logical
microsecond clock**:

* every event advances the clock by a small epsilon, so event order is
  total and strict;
* integrators that *know* a simulated duration (the bench runner prices
  each batch through the cost model) call :meth:`Tracer.advance` to move
  the clock by that much, so the exported timeline is laid out in
  simulated GPU time: batches occupy their simulated width, and the events
  inside a batch cluster at its start.

Disabled-path cost
------------------
Instrumented code is gated as ``if telemetry.enabled:`` — a single
attribute check against the shared :data:`NULL_TELEMETRY` singleton.
The :class:`NullTracer` also implements the full emitting API as no-ops
so un-gated call sites stay correct.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Epsilon (microseconds) separating consecutive events so ordering is
#: strict even when no simulated time elapses between them.
TICK_US = 0.01

#: Chrome trace_event phase codes used by this tracer.
PHASE_SPAN = "X"       # complete event (ts + dur)
PHASE_INSTANT = "i"    # instant event
PHASE_COUNTER = "C"    # counter sample (Perfetto renders a track graph)


@dataclass
class TraceEvent:
    """One structured trace record.

    ``phase`` is the Chrome ``trace_event`` phase code
    (:data:`PHASE_SPAN` / :data:`PHASE_INSTANT` / :data:`PHASE_COUNTER`).
    ``ts_us``/``dur_us`` are logical microseconds (see the module
    docstring); ``depth`` is the span-nesting depth at emission time,
    which lets tests assert nesting without re-deriving containment.
    """

    name: str
    category: str
    phase: str
    ts_us: float
    dur_us: float = 0.0
    depth: int = 0
    args: dict = field(default_factory=dict)


class _SpanHandle:
    """Context manager closing one span on a :class:`Tracer`."""

    __slots__ = ("_tracer", "_event")

    def __init__(self, tracer: "Tracer", event: TraceEvent) -> None:
        self._tracer = tracer
        self._event = event

    def __enter__(self) -> TraceEvent:
        return self._event

    def __exit__(self, exc_type, exc, tb) -> None:
        self._tracer._close_span(self._event)


class _NullSpan:
    """Shared no-op context manager returned by :class:`NullTracer`."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


_NULL_SPAN = _NullSpan()


class Tracer:
    """Recording tracer: collects :class:`TraceEvent` objects in order."""

    enabled = True

    def __init__(self) -> None:
        self.events: list[TraceEvent] = []
        self._now_us = 0.0
        self._stack: list[TraceEvent] = []

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------

    def _tick(self) -> float:
        now = self._now_us
        self._now_us = now + TICK_US
        return now

    def advance(self, seconds: float) -> None:
        """Move the logical clock forward by a simulated duration."""
        if seconds > 0:
            self._now_us += seconds * 1e6

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------

    def span(self, name: str, category: str = "", **args) -> _SpanHandle:
        """Open a span; close it by exiting the returned context manager.

        Spans nest: a span opened while another is active is recorded at
        ``depth + 1`` and, because the clock is monotonic, is contained
        by its parent's ``[ts, ts + dur]`` interval in the export.
        """
        event = TraceEvent(name=name, category=category, phase=PHASE_SPAN,
                           ts_us=self._tick(), depth=len(self._stack),
                           args=dict(args))
        self._stack.append(event)
        self.events.append(event)
        return _SpanHandle(self, event)

    def _close_span(self, event: TraceEvent) -> None:
        # Tolerate out-of-order exits (exceptions unwinding several
        # spans): pop until the closing span is off the stack.
        while self._stack:
            top = self._stack.pop()
            top.dur_us = max(TICK_US, self._tick() - top.ts_us)
            if top is event:
                break

    def instant(self, name: str, category: str = "", **args) -> None:
        """Record a point event."""
        self.events.append(TraceEvent(
            name=name, category=category, phase=PHASE_INSTANT,
            ts_us=self._tick(), depth=len(self._stack), args=dict(args)))

    def counter(self, name: str, values, category: str = "metric") -> None:
        """Record a counter/gauge sample.

        ``values`` is a number or a mapping of series name to number —
        Chrome's counter tracks render each series as a stacked area.
        """
        if not isinstance(values, dict):
            values = {"value": float(values)}
        else:
            values = {str(k): float(v) for k, v in values.items()}
        self.events.append(TraceEvent(
            name=name, category=category, phase=PHASE_COUNTER,
            ts_us=self._tick(), depth=len(self._stack), args=values))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def spans(self, name: str | None = None) -> list[TraceEvent]:
        """All span events, optionally filtered by exact name."""
        return [e for e in self.events if e.phase == PHASE_SPAN
                and (name is None or e.name == name)]

    def instants(self, name: str | None = None) -> list[TraceEvent]:
        """All instant events, optionally filtered by exact name."""
        return [e for e in self.events if e.phase == PHASE_INSTANT
                and (name is None or e.name == name)]

    def counters(self, name: str | None = None) -> list[TraceEvent]:
        """All counter samples, optionally filtered by exact name."""
        return [e for e in self.events if e.phase == PHASE_COUNTER
                and (name is None or e.name == name)]


class NullTracer:
    """No-op tracer: the default wired into every table.

    ``enabled`` is a class attribute, so the hot-path gate
    ``if telemetry.enabled`` costs one attribute load; the emitting
    methods exist (as no-ops) so un-gated call sites cannot crash.
    """

    enabled = False
    #: Always-empty event list (shared, immutable).
    events: tuple = ()

    def span(self, name: str, category: str = "", **args) -> _NullSpan:
        return _NULL_SPAN

    def instant(self, name: str, category: str = "", **args) -> None:
        return None

    def counter(self, name: str, values, category: str = "metric") -> None:
        return None

    def advance(self, seconds: float) -> None:
        return None

    def spans(self, name: str | None = None) -> list:
        return []

    def instants(self, name: str | None = None) -> list:
        return []

    def counters(self, name: str | None = None) -> list:
        return []


#: Shared no-op tracer instance.
NULL_TRACER = NullTracer()
