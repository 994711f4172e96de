"""Unit tests for measurement primitives."""

import pytest

from repro.sim.monitor import Summary


class TestSummary:
    def test_mean_min_max(self):
        summary = Summary()
        summary.extend([1.0, 2.0, 3.0, 4.0])
        assert summary.mean == pytest.approx(2.5)
        assert summary.minimum == 1.0
        assert summary.maximum == 4.0
        assert summary.count == 4

    def test_quantiles_exact(self):
        summary = Summary()
        summary.extend(range(101))  # 0..100
        assert summary.quantile(0.0) == 0
        assert summary.quantile(0.5) == 50
        assert summary.quantile(0.9) == pytest.approx(90)
        assert summary.quantile(1.0) == 100

    def test_quantile_interpolates(self):
        summary = Summary()
        summary.extend([0.0, 1.0])
        assert summary.quantile(0.5) == pytest.approx(0.5)

    def test_median(self):
        summary = Summary()
        summary.extend([5.0, 1.0, 3.0])
        assert summary.median == 3.0

    def test_stddev(self):
        summary = Summary()
        summary.extend([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0])
        assert summary.stddev == pytest.approx(2.0)

    def test_stddev_survives_large_offset_samples(self):
        """Regression: the naive sum-of-squares formula catastrophically
        cancels when samples are large-magnitude with tiny spread (e.g.
        wall-clock timestamps), collapsing stddev to 0 or garbage."""
        import statistics

        offsets = [0.0, 0.001, 0.002, 0.003, 0.004]
        base = 1.7e9  # epoch-seconds scale
        summary = Summary()
        summary.extend([base + x for x in offsets])
        # Welford's error is bounded by the conditioning of the inputs
        # (~1e-4 relative at this magnitude); the naive sum-of-squares
        # formula collapses to 0 or garbage — orders of magnitude off.
        assert summary.stddev == pytest.approx(
            statistics.pstdev(offsets), rel=1e-3
        )
        assert summary.mean == pytest.approx(base + statistics.mean(offsets))

    def test_stddev_shift_invariant(self):
        plain, shifted = Summary(), Summary()
        samples = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
        plain.extend(samples)
        shifted.extend([s + 1e12 for s in samples])
        # Input rounding at 1e12 costs ~1e-4 ulp per sample; anything
        # beyond that would be algorithmic cancellation.
        assert shifted.stddev == pytest.approx(plain.stddev, rel=1e-4)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            Summary().mean
        with pytest.raises(ValueError):
            Summary().quantile(0.5)

    def test_quantile_range_checked(self):
        summary = Summary()
        summary.observe(1.0)
        with pytest.raises(ValueError):
            summary.quantile(1.1)

    def test_observation_after_quantile_query(self):
        summary = Summary()
        summary.extend([3.0, 1.0])
        assert summary.minimum == 1.0
        summary.observe(0.5)
        assert summary.minimum == 0.5
