"""Configuration objects for the DyCuckoo hash table.

:class:`DyCuckooConfig` collects every tunable knob the paper exposes:

* ``num_tables`` (``d``) — the number of cuckoo subtables (Section IV-A),
* ``alpha`` / ``beta`` — lower/upper filled-factor bounds triggering a
  resize (Section IV-B),
* ``bucket_capacity`` — slots per bucket (32 for 4-byte keys, Figure 2),
* routing policy between the two candidate subtables (Theorem 1).

``PAPER_PARAMETERS`` records the experiment grid of Table 3 so benchmarks
and tests can reference the exact published settings.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import InvalidConfigError

#: Parameter grid of Table 3 in the paper (settings and defaults).
PAPER_PARAMETERS = {
    "filled_factor": {"settings": (0.70, 0.75, 0.80, 0.85, 0.90), "default": 0.85},
    "alpha": {"settings": (0.20, 0.25, 0.30, 0.35, 0.40), "default": 0.30},
    "beta": {"settings": (0.70, 0.75, 0.80, 0.85, 0.90), "default": 0.85},
    "ratio_r": {"settings": (0.1, 0.2, 0.3, 0.4, 0.5), "default": 0.2},
    "batch_size": {"settings": (200_000, 400_000, 600_000, 800_000, 1_000_000),
                   "default": 1_000_000},
}

#: Default number of subtables; the paper fixes d = 4 after Figure 7.
DEFAULT_NUM_TABLES = 4

#: Slots per bucket for 4-byte keys (one 128-byte cache line, Figure 2).
DEFAULT_BUCKET_CAPACITY = 32


def _is_power_of_two(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class DyCuckooConfig:
    """Immutable configuration for :class:`repro.core.table.DyCuckooTable`.

    Parameters
    ----------
    num_tables:
        Number of cuckoo subtables ``d`` (at least 2).  A larger ``d``
        lowers per-resize work and raises the achievable filled factor
        (bounded by ``d / (d + 1)``) at no extra lookup cost thanks to the
        two-layer scheme.
    bucket_capacity:
        Slots per bucket.  The paper uses 32 four-byte keys per 128-byte
        cache line; 16 models eight-byte keys.
    initial_buckets:
        Starting bucket count of *each* subtable (power of two).
    alpha, beta:
        Filled-factor bounds.  After any batched mutation the table
        upsizes while the global filled factor exceeds ``beta`` and
        downsizes while it is below ``alpha``.
    max_eviction_rounds:
        Bound on cuckoo eviction rounds for one batched insert before the
        table declares the insert failed and (if ``auto_resize``) upsizes.
    auto_resize:
        When ``False`` the table never resizes itself; insert failures
        raise :class:`repro.errors.CapacityError` and the filled factor is
        unbounded.  Used to emulate static tables.
    routing:
        ``"weighted"`` applies Theorem 1 (probability proportional to
        ``n_i / C(m_i, 2)``); ``"uniform"`` picks either subtable of the
        pair with probability one half (ablation baseline).
    min_buckets:
        Lower bound on any subtable's bucket count; downsizing stops here.
    max_total_slots:
        Hard ceiling on the structure's total slot count (0 disables).
        Upsizing past the ceiling raises
        :class:`repro.errors.CapacityError` instead of growing — the
        guard that turns a pathological workload (e.g. adversarial keys
        colliding under every hash function) into a clean error rather
        than unbounded allocation.
    anticipatory_upsize:
        Future-work extension (Section VI-D observes repeated upsizes when
        a single doubling is insufficient): when enabled, an insert-failure
        triggered upsize keeps doubling the smallest subtable until the
        projected filled factor falls below ``beta``.
    migration_budget:
        Every resize is a DHash-style *migration epoch*: the subtable
        adopts its new geometry at once and its entries move bucket pair
        by bucket pair, while probes resolve each key to its pre- or
        post-resize bucket.  A bound-driven epoch drains lazily; this is
        the most bucket pairs the batch-end drain migrates.  0 (the
        default) auto-sizes the budget to one eighth of the epoch's
        pairs (at least 32), so a resize completes within roughly eight
        batches plus whatever migrate-on-access moved.  Insert-stall
        doublings and manual resizes drain their epoch at once.
    stash_capacity:
        Size of the bounded overflow stash (the CUDA reference's
        ``error_table_t``).  The stash absorbs inserts whose eviction
        chain is exhausted while an upsize is pending but aborted (only
        reachable under fault injection); overflowing it raises
        :class:`repro.errors.StashOverflowError`.  0 disables the stash
        entirely, turning the degraded path into an immediate overflow.
    seed:
        Seed for hash-function constants and routing randomness.
    """

    num_tables: int = DEFAULT_NUM_TABLES
    bucket_capacity: int = DEFAULT_BUCKET_CAPACITY
    initial_buckets: int = 64
    alpha: float = PAPER_PARAMETERS["alpha"]["default"]
    beta: float = PAPER_PARAMETERS["beta"]["default"]
    max_eviction_rounds: int = 64
    auto_resize: bool = True
    routing: str = "weighted"
    min_buckets: int = 8
    max_total_slots: int = 0
    anticipatory_upsize: bool = False
    migration_budget: int = 0
    stash_capacity: int = 256
    seed: int = 0x5EED

    def __post_init__(self) -> None:
        if self.num_tables < 2:
            raise InvalidConfigError(
                f"num_tables must be >= 2, got {self.num_tables}"
            )
        if self.bucket_capacity < 1:
            raise InvalidConfigError(
                f"bucket_capacity must be >= 1, got {self.bucket_capacity}"
            )
        if not _is_power_of_two(self.initial_buckets):
            raise InvalidConfigError(
                f"initial_buckets must be a power of two, got {self.initial_buckets}"
            )
        if not _is_power_of_two(self.min_buckets):
            raise InvalidConfigError(
                f"min_buckets must be a power of two, got {self.min_buckets}"
            )
        if self.initial_buckets < self.min_buckets:
            raise InvalidConfigError(
                "initial_buckets must be >= min_buckets "
                f"({self.initial_buckets} < {self.min_buckets})"
            )
        if not 0.0 <= self.alpha < self.beta <= 1.0:
            raise InvalidConfigError(
                f"require 0 <= alpha < beta <= 1, got alpha={self.alpha} "
                f"beta={self.beta}"
            )
        max_alpha = self.num_tables / (self.num_tables + 1.0)
        if self.alpha >= max_alpha:
            # Section IV-B: one upsize lowers theta to at least
            # beta * d / (d + 1), so alpha must stay below d / (d + 1).
            raise InvalidConfigError(
                f"alpha must be < d/(d+1) = {max_alpha:.3f} for d="
                f"{self.num_tables}, got {self.alpha}"
            )
        if self.max_eviction_rounds < 1:
            raise InvalidConfigError(
                f"max_eviction_rounds must be >= 1, got {self.max_eviction_rounds}"
            )
        if self.routing not in ("weighted", "uniform"):
            raise InvalidConfigError(
                f"routing must be 'weighted' or 'uniform', got {self.routing!r}"
            )
        if self.max_total_slots < 0:
            raise InvalidConfigError(
                f"max_total_slots must be >= 0, got {self.max_total_slots}"
            )
        if self.migration_budget < 0:
            raise InvalidConfigError(
                f"migration_budget must be >= 0, got {self.migration_budget}"
            )
        if self.stash_capacity < 0:
            raise InvalidConfigError(
                f"stash_capacity must be >= 0, got {self.stash_capacity}"
            )
        initial_total = (self.num_tables * self.initial_buckets
                         * self.bucket_capacity)
        if self.max_total_slots and self.max_total_slots < initial_total:
            raise InvalidConfigError(
                f"max_total_slots={self.max_total_slots} is below the "
                f"initial allocation of {initial_total} slots"
            )

    @property
    def num_pairs(self) -> int:
        """Number of first-layer partitions, ``C(d, 2)``."""
        d = self.num_tables
        return d * (d - 1) // 2

    def sized_for(self, expected_entries: int, target_fill: float | None = None
                  ) -> "DyCuckooConfig":
        """Return a copy whose initial capacity fits ``expected_entries``.

        The initial bucket count per subtable is chosen so that inserting
        ``expected_entries`` keys lands near ``target_fill`` (default: the
        midpoint of ``[alpha, beta]``) without resizing.  Used by the
        static-scenario experiments, which pre-size every table.
        """
        if expected_entries < 0:
            raise InvalidConfigError("expected_entries must be non-negative")
        if target_fill is None:
            target_fill = (self.alpha + self.beta) / 2.0
        if not 0.0 < target_fill <= 1.0:
            raise InvalidConfigError(
                f"target_fill must be in (0, 1], got {target_fill}"
            )
        slots_needed = max(1, int(expected_entries / target_fill))
        per_table = max(self.min_buckets,
                        slots_needed // (self.num_tables * self.bucket_capacity))
        buckets = self.min_buckets
        while buckets < per_table:
            buckets *= 2
        return replace_config(self, initial_buckets=buckets)


def replace_config(config: DyCuckooConfig, **changes) -> DyCuckooConfig:
    """Return a copy of ``config`` with ``changes`` applied (re-validated)."""
    import dataclasses

    return dataclasses.replace(config, **changes)


# Re-export for dataclass field defaults documentation tools.
__all__ = [
    "DyCuckooConfig",
    "PAPER_PARAMETERS",
    "DEFAULT_NUM_TABLES",
    "DEFAULT_BUCKET_CAPACITY",
    "replace_config",
]
