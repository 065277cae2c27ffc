"""The instruments a table can carry, bundled into one record.

Five independent instruments observe a table without perturbing it:
:class:`~repro.telemetry.Telemetry` (spans and metrics),
:class:`~repro.telemetry.profiler.Profiler` (deep kernel profile),
:class:`~repro.telemetry.recorder.FlightRecorder` (post-mortem ring),
:class:`~repro.sanitizer.Sanitizer` (SIMT race/lock audit) and
:class:`~repro.faults.FaultPlan` (fault injection).  Each defaults to
its disabled singleton, whose ``enabled`` is ``False``, so every hook
site costs one attribute check when nothing is attached.

A front-end takes the whole record at once through ``attach``::

    table.attach(Instruments(sanitizer=Sanitizer(), faults=plan))
    table.attach(None)  # detach everything
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.faults import NO_FAULTS, FaultPlan
from repro.sanitizer import NULL_SANITIZER, Sanitizer
from repro.telemetry import NULL_TELEMETRY, Telemetry
from repro.telemetry.profiler import NULL_PROFILER, Profiler
from repro.telemetry.recorder import NULL_RECORDER, FlightRecorder


@dataclass(frozen=True)
class Instruments:
    """One handle per instrument; unset fields stay disabled."""

    telemetry: Telemetry = NULL_TELEMETRY
    profiler: Profiler = NULL_PROFILER
    recorder: FlightRecorder = NULL_RECORDER
    sanitizer: Sanitizer = NULL_SANITIZER
    faults: FaultPlan = NO_FAULTS

    @property
    def active(self) -> bool:
        """True when any of the five handles is enabled."""
        return (self.telemetry.enabled or self.profiler.enabled
                or self.recorder.enabled or self.sanitizer.enabled
                or self.faults.enabled)


__all__ = ["Instruments"]
