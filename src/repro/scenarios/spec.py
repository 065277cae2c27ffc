"""Declarative scenario specifications.

A :class:`ScenarioSpec` names one composed soak: a YCSB mix at some op
count, plus any combination of hot-key storms (``workloads.skew``),
delete/reinsert churn waves under a tight ``[alpha, beta]`` band,
a seeded fault plan with stash degradation, the SIMT sanitizer, a
memory budget with the :class:`~repro.core.MemoryBudget` eviction
policy, and sharding.  The spec is pure data — the runner interprets
it — so a scenario scales down for tier-1 tests via :meth:`scaled`
without changing its shape.

Latency SLOs are expressed in simulated **nanoseconds per operation**
(p50 / p99 / worst run-phase batch).  Per-op targets are
scale-invariant: the cost model's fixed overheads are scaled by the
same factor as the workload, so a 2% tier-1 variant is graded against
the same numbers as the full soak.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.core.config import DyCuckooConfig
from repro.errors import InvalidConfigError
from repro.faults import FAULT_SITES
from repro.workloads.ycsb import CORE_WORKLOADS

#: Floors applied by :meth:`ScenarioSpec.scaled` so heavily scaled-down
#: variants keep enough ops to mean something.
MIN_RECORDS = 256
MIN_OPERATIONS = 512
MIN_BATCH = 64
MIN_STORM_OPS = 32
MIN_BUDGET_BYTES = 24_000


@dataclass(frozen=True)
class StormSpec:
    """Periodic hot-key storms injected between run-phase batches.

    Every ``every`` run batches, a storm batch of ``ops`` operations
    hammers a fixed set of ``num_hot`` keys with Zipf(``exponent``)
    draws — half upserts, half finds — the paper's retweet-celebrity
    contention scenario.  The hot set is fixed per scenario, so storms
    update in place after the first wave.
    """

    every: int = 8
    ops: int = 4_000
    num_hot: int = 64
    exponent: float = 1.2

    def validate(self) -> None:
        if self.every < 1:
            raise InvalidConfigError("storm.every must be >= 1")
        if self.ops < 1:
            raise InvalidConfigError("storm.ops must be >= 1")
        if self.num_hot < 1:
            raise InvalidConfigError("storm.num_hot must be >= 1")


@dataclass(frozen=True)
class ChurnSpec:
    """Periodic delete/reinsert waves forcing resize churn.

    Every ``every`` run batches, alternately delete a seeded random
    ``fraction`` of the original record set, then reinsert exactly
    those keys on the next wave.  Under a tight ``[alpha, beta]`` band
    this drives repeated downsize/upsize cycles (Figure 12's
    grow-then-shrink sawtooth) while the mix keeps running.
    """

    every: int = 10
    fraction: float = 0.5

    def validate(self) -> None:
        if self.every < 1:
            raise InvalidConfigError("churn.every must be >= 1")
        if not 0.0 < self.fraction <= 1.0:
            raise InvalidConfigError("churn.fraction must be in (0, 1]")


@dataclass(frozen=True)
class SloSpec:
    """Latency targets in simulated nanoseconds per operation."""

    p50_ns: float = 25.0
    p99_ns: float = 150.0
    worst_ns: float = 800.0

    def check(self, latency: dict) -> list[str]:
        """SLO violations against a ns/op latency summary."""
        violations = []
        for name, target in (("p50", self.p50_ns), ("p99", self.p99_ns),
                             ("worst", self.worst_ns)):
            measured = latency.get(name, 0.0)
            if measured > target:
                violations.append(
                    f"{name} {measured:.1f} ns/op exceeds "
                    f"target {target:.1f}")
        return violations

    def targets(self) -> dict:
        return {"p50_ns": self.p50_ns, "p99_ns": self.p99_ns,
                "worst_ns": self.worst_ns}


@dataclass(frozen=True)
class ScenarioSpec:
    """One named, fully seeded soak composition."""

    name: str
    description: str
    mix: str = "A"
    num_records: int = 50_000
    num_operations: int = 600_000
    batch_size: int = 10_000
    zipf_exponent: float = 0.99
    # Table geometry / resize band overrides.
    alpha: float = 0.30
    beta: float = 0.85
    initial_buckets: int = 64
    bucket_capacity: int = 32
    min_buckets: int = 8
    stash_capacity: int = 256
    shards: int = 1
    # Composition axes (None/False = axis off).
    storm: StormSpec | None = None
    churn: ChurnSpec | None = None
    fault_rates: dict[str, float] | None = None
    fault_storms: dict[str, int] | None = None
    sanitizer: bool = False
    memory_budget_bytes: int | None = None
    slo: SloSpec = field(default_factory=SloSpec)
    seed: int = 2021

    def validate(self) -> None:
        if self.mix not in CORE_WORKLOADS:
            raise InvalidConfigError(
                f"unknown YCSB mix {self.mix!r}; "
                f"have {sorted(CORE_WORKLOADS)}")
        if self.num_records < 1 or self.num_operations < 1:
            raise InvalidConfigError(
                "num_records and num_operations must be >= 1")
        if self.batch_size < 1:
            raise InvalidConfigError("batch_size must be >= 1")
        if self.shards < 1:
            raise InvalidConfigError("shards must be >= 1")
        if self.storm is not None:
            self.storm.validate()
        if self.churn is not None:
            self.churn.validate()
        for site in (*(self.fault_rates or {}),
                     *(self.fault_storms or {})):
            if site not in FAULT_SITES:
                raise InvalidConfigError(f"unknown fault site {site!r}")
        if (self.memory_budget_bytes is not None
                and self.memory_budget_bytes <= 0):
            raise InvalidConfigError("memory_budget_bytes must be > 0")

    def config(self) -> DyCuckooConfig:
        """The table (or per-shard) configuration for this scenario."""
        return DyCuckooConfig(
            initial_buckets=self.initial_buckets,
            bucket_capacity=self.bucket_capacity,
            min_buckets=self.min_buckets,
            alpha=self.alpha,
            beta=self.beta,
            stash_capacity=self.stash_capacity,
            seed=self.seed,
        )

    def composition(self) -> dict[str, bool]:
        """Which axes this scenario composes (for ``--list`` and tests)."""
        return {
            "skew": (self.storm is not None
                     or self.zipf_exponent >= 0.9),
            "storm": self.storm is not None,
            "churn": self.churn is not None,
            "faults": bool(self.fault_rates),
            "sanitizer": self.sanitizer,
            "memory_budget": self.memory_budget_bytes is not None,
            "sharded": self.shards > 1,
        }

    def scaled(self, scale: float) -> "ScenarioSpec":
        """A proportionally smaller (or larger) copy of this scenario.

        Op counts, record counts, batch sizes, storm sizes and the
        memory budget all scale together (with floors), so the scaled
        variant keeps the same fill trajectory and ns/op profile.
        """
        if scale <= 0:
            raise InvalidConfigError(f"scale must be > 0, got {scale}")
        if scale == 1.0:
            return self
        storm = self.storm
        if storm is not None:
            storm = replace(storm,
                            ops=max(MIN_STORM_OPS, int(storm.ops * scale)))
        budget = self.memory_budget_bytes
        if budget is not None:
            budget = max(MIN_BUDGET_BYTES, int(budget * scale))
        return replace(
            self,
            num_records=max(MIN_RECORDS, int(self.num_records * scale)),
            num_operations=max(MIN_OPERATIONS,
                               int(self.num_operations * scale)),
            batch_size=max(MIN_BATCH, int(self.batch_size * scale)),
            storm=storm,
            memory_budget_bytes=budget,
        )
