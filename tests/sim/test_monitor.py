"""Unit tests for measurement primitives."""

import pytest

from repro.sim.monitor import Summary


def summary_of(samples):
    summary = Summary()
    for sample in samples:
        summary.observe(sample)
    return summary


class TestSummary:
    def test_mean_min_max(self):
        summary = summary_of([3.0, 1.0, 4.0, 2.0])
        assert summary.mean == pytest.approx(2.5)
        assert summary.quantile(0.0) == 1.0
        assert summary.quantile(1.0) == 4.0
        assert summary.count == 4

    def test_quantiles_exact(self):
        summary = summary_of(range(101))  # 0..100
        assert summary.quantile(0.0) == 0
        assert summary.quantile(0.5) == 50
        assert summary.quantile(0.9) == pytest.approx(90)
        assert summary.quantile(1.0) == 100

    def test_quantile_interpolates(self):
        summary = summary_of([0.0, 1.0])
        assert summary.quantile(0.5) == pytest.approx(0.5)

    def test_median(self):
        summary = summary_of([5.0, 1.0, 3.0])
        assert summary.median == 3.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            Summary().mean
        with pytest.raises(ValueError):
            Summary().quantile(0.5)

    def test_quantile_range_checked(self):
        summary = summary_of([1.0])
        with pytest.raises(ValueError):
            summary.quantile(1.1)

    def test_observation_after_quantile_query(self):
        summary = summary_of([3.0, 1.0])
        assert summary.quantile(0.0) == 1.0
        summary.observe(0.5)
        assert summary.quantile(0.0) == 0.5
