"""Tests for the occupancy-based lock-conflict estimator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpusim import GTX_1080, V100
from repro.gpusim.kernel import (REFERENCE_CONCURRENCY, Occupancy,
                                 estimate_lock_conflicts)


class TestEstimateLockConflicts:
    def test_trivial_cases(self):
        assert estimate_lock_conflicts(0, 100) == 0
        assert estimate_lock_conflicts(1, 100) == 0
        assert estimate_lock_conflicts(100, 0) == 0

    def test_more_buckets_fewer_conflicts(self):
        few = estimate_lock_conflicts(100_000, 1_000)
        many = estimate_lock_conflicts(100_000, 100_000)
        assert few > many

    def test_scales_with_reference_concurrency(self):
        """A 1e6-op batch uses the device's full resident-warp count."""
        full = estimate_lock_conflicts(1_000_000, 1 << 20)
        # By construction the wave is ~1280 warps at this batch size.
        wave = round(1_000_000 * REFERENCE_CONCURRENCY)
        assert wave == 1280
        assert full > 0

    def test_explicit_resident_warps_override(self):
        auto = estimate_lock_conflicts(10_000, 1024)
        serial = estimate_lock_conflicts(10_000, 1024, resident_warps=1)
        assert serial == 0  # one warp at a time never collides
        assert auto >= serial

    def test_scale_invariance_of_conflict_rate(self):
        """Scaled batches keep roughly the same conflicts-per-op.

        This is the property that makes 1/1000-scale experiments
        comparable to the paper's: contention intensity depends on
        occupancy per bucket, preserved by the proportional wave size.
        (The per-bucket pressure must also scale: buckets shrink with
        the data.)
        """
        full = estimate_lock_conflicts(1_000_000, 1 << 20) / 1_000_000
        scaled = estimate_lock_conflicts(10_000, 1 << 13) / 10_000
        assert scaled == pytest.approx(full, rel=0.5)

    def test_tiny_batches_round_to_no_contention(self):
        """Below ~1k ops the proportional wave is a single warp."""
        assert estimate_lock_conflicts(500, 1 << 10) == 0

    @pytest.mark.parametrize("ops", [2, 800, 1171, 1172, 1173, 1200, 5000])
    @pytest.mark.parametrize("buckets", [1, 64, 1 << 12])
    def test_default_wave_equals_its_explicit_form(self, ops, buckets):
        """The default wave is the batch-proportional one, capped by the
        device; a wave that rounds to one warp is answered before the
        formula runs, with the formula's own 0."""
        wave = min(Occupancy(device=GTX_1080).resident_warps(),
                   max(1, round(ops * REFERENCE_CONCURRENCY)))
        explicit = estimate_lock_conflicts(ops, buckets, resident_warps=wave)
        assert estimate_lock_conflicts(ops, buckets) == explicit
        if ops < 1172:
            assert explicit == 0

    @given(st.integers(min_value=2, max_value=10 ** 6),
           st.integers(min_value=1, max_value=10 ** 6))
    @settings(max_examples=100, deadline=None)
    def test_never_negative_and_bounded(self, ops, buckets):
        conflicts = estimate_lock_conflicts(ops, buckets)
        assert conflicts >= 0
        # Can never exceed all-pairs collisions.
        assert conflicts <= ops * (ops - 1) / 2

    def test_bigger_device_more_conflicts(self):
        """More resident warps -> more simultaneous contention."""
        small = estimate_lock_conflicts(10 ** 7, 1 << 16, device=GTX_1080)
        big = estimate_lock_conflicts(10 ** 7, 1 << 16, device=V100)
        assert big >= small
