"""Deterministic fault injection for the table and the GPU simulator.

The paper's guarantees — fill factor inside ``[alpha, beta]``, the 2x
size discipline, two-bucket FIND/DELETE — are exactly the invariants
most likely to be violated under *rare* interleavings: lock-acquire
storms, a resize aborted mid-flight, a downsize residual that cannot be
placed.  This module makes those rare events reproducible on demand.

A :class:`FaultPlan` is attached to a :class:`~repro.core.table.
DyCuckooTable` (``table.attach(Instruments(faults=plan))``) or passed
to the gpusim components (:class:`~repro.gpusim.kernel.LockArbiter`,
:class:`~repro.gpusim.memory_manager.DeviceMemoryManager`).  Each
injection *site* calls :meth:`FaultPlan.fire` with its site name; the
plan deterministically decides — from ``(seed, site, invocation
index)`` alone, no global RNG state — whether that invocation fails.

Two construction modes:

* ``FaultPlan(seed=…, rates={site: probability})`` — seeded chaos.  The
  decision for invocation ``i`` of a site is a pure hash, so two plans
  with the same seed and rates fire identically no matter how the
  caller interleaves sites.
* ``FaultPlan.from_script(script)`` — exact replay.  A script lists the
  ``(site, index, param)`` triples to fire; every plan records what it
  fired (:meth:`to_script`), so any chaotic failure shrinks to a
  replayable script (the differential fuzz suite prints one on
  divergence).

Sites
-----
``lock.acquire``
    One bucket-lock acquisition fails even though the lock is free —
    the voter protocol must revote.  :func:`default_chaos_plan` arms
    two-fire storms here, modelling a CAS failure storm.
``lock.stall``
    The acquiring warp *keeps* the bucket lock for ``param`` extra
    device rounds (a lock-holder stall); competitors see it held.
``memory.alloc``
    A device allocation request fails with ``CapacityError``.
``insert.evict``
    A batched insert's eviction chain is declared exhausted this round,
    triggering the insert-failure path (upsize, or stash when the
    upsize itself is aborted).
``resize.abort.trigger`` / ``…plan`` / ``…rehash`` / ``…spill``
    A resize is aborted at the named lifecycle stage.  Aborts at
    ``rehash``/``spill`` happen *after* storage has been mutated and
    therefore exercise the ``_TableSnapshot`` rollback for real.

The disabled singleton :data:`NO_FAULTS` keeps every hook a single
attribute check, mirroring :data:`repro.telemetry.NULL_TELEMETRY`; with
it attached (the default) behaviour is bit-identical to a build without
the fault layer.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from repro.errors import InvalidConfigError
from repro.nulls import NullSingleton
from repro.telemetry.recorder import NULL_RECORDER

#: Every site the library can inject at, in documentation order.
FAULT_SITES = (
    "lock.acquire",
    "lock.stall",
    "memory.alloc",
    "insert.evict",
    "resize.abort.trigger",
    "resize.abort.plan",
    "resize.abort.rehash",
    "resize.abort.spill",
)

#: Resize lifecycle stages (suffixes of the ``resize.abort.*`` sites).
RESIZE_STAGES = ("trigger", "plan", "rehash", "spill")

#: Default site-specific fault magnitude (``Fault.param``): extra rounds
#: a stalled lock stays held; 1 everywhere else.
DEFAULT_PARAMS = {"lock.stall": 3}

#: Script format version written by :meth:`FaultPlan.to_script`.
SCRIPT_VERSION = 1

_MASK64 = (1 << 64) - 1


def _fnv1a(text: str) -> int:
    """64-bit FNV-1a of ``text`` (stable across runs, unlike ``hash``)."""
    acc = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        acc = ((acc ^ byte) * 0x100000001B3) & _MASK64
    return acc


def _splitmix(x: int) -> int:
    """SplitMix64 finalizer: a high-quality 64-bit mixing function."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _splitmix_array(x: np.ndarray) -> np.ndarray:
    """Vectorized :func:`_splitmix` over a ``uint64`` array.

    Bit-identical to the scalar form (uint64 arithmetic wraps exactly
    like the ``& _MASK64`` masking); the equivalence is pinned by a
    test so the vectorized fault-window check below can never drift
    from :meth:`FaultPlan._uniform`.
    """
    x = x + np.uint64(0x9E3779B97F4A7C15)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


@dataclass(frozen=True)
class Fault:
    """One injected fault: which site fired, at which invocation."""

    site: str
    #: Zero-based invocation index of the site when the fault fired.
    index: int
    #: Site-specific magnitude (stall rounds for ``lock.stall``).
    param: int = 1


class FaultPlan:
    """Deterministic, seedable source of injected faults.

    Parameters
    ----------
    seed:
        Root of the per-site decision hashes.  Same seed + same rates
        means the same decisions, always.
    rates:
        Mapping of site name to fire probability in ``[0, 1]``.  Sites
        not listed never fire.
    params:
        Overrides of :data:`DEFAULT_PARAMS` (per-fault magnitudes).
    storms:
        Mapping of site name to storm length ``k``: whenever the site
        fires probabilistically, the *next* ``k - 1`` invocations of
        that site are forced to fire too (a failure storm).
    """

    #: Gate checked by every hook; the null subclass overrides to False.
    enabled = True

    #: Flight recorder tripped on every fired fault.  Class attribute so
    #: existing plans (and replay scripts) need no constructor change;
    #: :meth:`repro.core.table.DyCuckooTable.attach` sets it on
    #: the *instance* of an enabled plan, never on :data:`NO_FAULTS`.
    recorder = NULL_RECORDER

    def __init__(self, seed: int = 0,
                 rates: dict[str, float] | None = None,
                 params: dict[str, int] | None = None,
                 storms: dict[str, int] | None = None) -> None:
        rates = dict(rates or {})
        for site, rate in rates.items():
            if site not in FAULT_SITES:
                raise InvalidConfigError(f"unknown fault site: {site!r}")
            if not 0.0 <= rate <= 1.0:
                raise InvalidConfigError(
                    f"fault rate for {site!r} must be in [0, 1], got {rate}")
        for site, length in (storms or {}).items():
            if site not in FAULT_SITES:
                raise InvalidConfigError(f"unknown storm site: {site!r}")
            if length < 1:
                raise InvalidConfigError(
                    f"storm length for {site!r} must be >= 1, got {length}")
        self.seed = int(seed)
        self.rates = rates
        self.params = {**DEFAULT_PARAMS, **(params or {})}
        self.storms = dict(storms or {})
        #: Replay script, or ``None`` for probabilistic mode.
        self._script: dict[str, dict[int, int]] | None = None
        #: Per-site invocation counters.
        self._counters: dict[str, int] = {}
        #: Per-site forced fires remaining (storm arming).
        self._armed: dict[str, int] = {}
        #: Every fault fired so far, in firing order.
        self.fired: list[Fault] = []
        self._site_salt = {site: _fnv1a(site) for site in FAULT_SITES}

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_script(cls, script) -> "FaultPlan":
        """Build a plan that replays exactly the faults in ``script``.

        ``script`` is either the dict produced by :meth:`to_script` or
        its JSON serialization.  Replay is exact: the fault fires at the
        recorded invocation index of its site regardless of rates.
        """
        if isinstance(script, (str, bytes)):
            script = json.loads(script)
        if not isinstance(script, dict) or "fired" not in script:
            raise InvalidConfigError(
                "fault script must be a dict with a 'fired' list")
        plan = cls(seed=int(script.get("seed", 0)))
        table: dict[str, dict[int, int]] = {}
        for entry in script["fired"]:
            site, index, param = str(entry[0]), int(entry[1]), int(entry[2])
            if site not in FAULT_SITES:
                raise InvalidConfigError(f"unknown fault site: {site!r}")
            table.setdefault(site, {})[index] = param
        plan._script = table
        return plan

    def to_script(self) -> dict:
        """Serialize the faults fired so far into a replayable script."""
        return {
            "version": SCRIPT_VERSION,
            "seed": self.seed,
            "fired": [[f.site, f.index, f.param] for f in self.fired],
        }

    def script_json(self) -> str:
        """One-line JSON form of :meth:`to_script` (for failure reports)."""
        return json.dumps(self.to_script(), separators=(",", ":"))

    # ------------------------------------------------------------------
    # Firing
    # ------------------------------------------------------------------

    def _uniform(self, site: str, index: int) -> float:
        """Deterministic uniform draw in ``[0, 1)`` for (seed, site, i)."""
        mixed = _splitmix(self.seed ^ self._site_salt[site] ^
                          _splitmix(index))
        return mixed / float(1 << 64)

    def fire(self, site: str) -> Fault | None:
        """Decide whether this invocation of ``site`` faults.

        Advances the site's invocation counter either way; returns the
        :class:`Fault` when it fires, ``None`` otherwise.  Every fired
        fault is appended to :attr:`fired` so the whole session can be
        serialized with :meth:`to_script`.
        """
        index = self._counters.get(site, 0)
        self._counters[site] = index + 1
        if self._script is not None:
            param = self._script.get(site, {}).get(index)
            if param is None:
                return None
            fault = Fault(site, index, param)
        elif self._armed.get(site, 0) > 0:
            self._armed[site] -= 1
            fault = Fault(site, index, self.params.get(site, 1))
        else:
            rate = self.rates.get(site, 0.0)
            if rate <= 0.0 or self._uniform(site, index) >= rate:
                return None
            fault = Fault(site, index, self.params.get(site, 1))
            storm = self.storms.get(site, 1)
            if storm > 1:
                self._armed[site] = self._armed.get(site, 0) + storm - 1
        self.fired.append(fault)
        if self.recorder.enabled:
            self.recorder.trip("fault", site=fault.site, index=fault.index,
                               param=fault.param)
        return fault

    # ------------------------------------------------------------------
    # Vectorized consult windows (SoA engine fast path)
    # ------------------------------------------------------------------

    def advance(self, site: str, n: int) -> None:
        """Bulk-advance ``site``'s counter past ``n`` non-firing consults.

        Only legal after :meth:`window_may_fire` returned ``False`` for
        the same ``(site, n)`` window: the skipped invocations must all
        be no-fire decisions, so skipping the per-invocation walk leaves
        :attr:`fired`, storm arming, and the counters exactly where ``n``
        individual :meth:`fire` calls would have.
        """
        if n > 0:
            self._counters[site] = self._counters.get(site, 0) + n

    def window_may_fire(self, site: str, n: int) -> bool:
        """Could any of the next ``n`` consults of ``site`` fire?

        ``False`` is an exact guarantee (every decision in the window is
        a no-fire), which lets a vectorized caller take the whole window
        in one :meth:`advance`.  ``True`` means the caller must fall
        back to per-invocation :meth:`fire` calls to reproduce the
        sequential decisions (including storm arming) exactly.
        """
        if n <= 0:
            return False
        if self._armed.get(site, 0) > 0:
            return True
        start = self._counters.get(site, 0)
        if self._script is not None:
            entries = self._script.get(site)
            if not entries:
                return False
            return any(start <= index < start + n for index in entries)
        rate = self.rates.get(site, 0.0)
        if rate <= 0.0:
            return False
        index = np.arange(start, start + n, dtype=np.uint64)
        salt = np.uint64((self.seed ^ self._site_salt[site]) & _MASK64)
        mixed = _splitmix_array(salt ^ _splitmix_array(index))
        # uint64 -> float64 rounds to nearest and the 2**64 divide is an
        # exact power-of-two scale: bit-identical to _uniform's
        # ``int / float`` path.
        draws = mixed.astype(np.float64) / float(1 << 64)
        return bool(np.any(draws < rate))

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def fired_by_site(self) -> dict[str, int]:
        """Count of fired faults per site (for survival reports)."""
        counts: dict[str, int] = {}
        for fault in self.fired:
            counts[fault.site] = counts.get(fault.site, 0) + 1
        return counts

    def invocations(self) -> dict[str, int]:
        """How many times each site consulted the plan."""
        return dict(self._counters)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        mode = "script" if self._script is not None else "rates"
        return (f"FaultPlan(seed={self.seed}, mode={mode}, "
                f"fired={len(self.fired)})")


class _NoFaults(NullSingleton, FaultPlan):
    """Disabled plan: the default on every component.

    ``enabled`` is False so hot paths skip with one attribute check;
    ``fire`` is inert for callers that do not gate.
    """

    enabled = False
    SINGLETON = "NO_FAULTS"

    def fire(self, site: str) -> None:  # noqa: ARG002 - site unused
        return None


#: Shared disabled-fault singleton.
NO_FAULTS = _NoFaults()

#: Rates used by :func:`default_chaos_plan` at intensity 1.0 — high
#: enough that a 10k-op session injects hundreds of faults across every
#: site, low enough that forward progress dominates.
DEFAULT_CHAOS_RATES = {
    "lock.acquire": 0.05,
    "lock.stall": 0.02,
    "memory.alloc": 0.01,
    "insert.evict": 0.01,
    "resize.abort.trigger": 0.05,
    "resize.abort.plan": 0.05,
    "resize.abort.rehash": 0.05,
    "resize.abort.spill": 0.10,
}


def default_chaos_plan(seed: int = 0, intensity: float = 1.0) -> FaultPlan:
    """A ready-made chaos plan covering every site.

    ``intensity`` scales all default rates (clamped to 1.0); 0 yields a
    plan that never fires (but still counts invocations).
    """
    if intensity < 0:
        raise InvalidConfigError(
            f"intensity must be non-negative, got {intensity}")
    rates = {site: min(1.0, rate * intensity)
             for site, rate in DEFAULT_CHAOS_RATES.items()}
    return FaultPlan(seed=seed, rates=rates,
                     storms={"lock.acquire": 2})


__all__ = [
    "Fault",
    "FaultPlan",
    "NO_FAULTS",
    "FAULT_SITES",
    "RESIZE_STAGES",
    "DEFAULT_CHAOS_RATES",
    "default_chaos_plan",
]
