"""Owner counters, the registry that reads them, and edge-case coverage
for the fixed-bucket histogram's quantile estimator."""

import pytest

from repro.obs.metrics import DEFAULT_BUCKETS, Counter, Histogram, MetricsRegistry
from repro.records import dump


class TestCounter:
    def test_starts_at_zero(self):
        assert Counter().get("anything") == 0

    def test_increments(self):
        counter = Counter()
        counter.incr("x")
        counter.incr("x", 4)
        assert counter.get("x") == 5

    def test_as_dict_is_a_copy(self):
        counter = Counter()
        counter.incr("x")
        snapshot = counter.as_dict()
        snapshot["x"] = 99
        assert counter.get("x") == 1


class TestAttachedCounters:
    def test_owners_are_read_live_under_their_prefix(self):
        registry = MetricsRegistry()
        stats = Counter()
        registry.attach("net", stats)
        stats.incr("sends", 3)
        assert registry.counters() == {"net.sends": 3}
        stats.incr("sends")
        assert registry.snapshot().counters == {"net.sends": 4}

    def test_owners_sharing_a_prefix_sum(self):
        registry = MetricsRegistry()
        a, b = Counter(), Counter()
        registry.attach("core", a)
        registry.attach("core", b)
        a.incr("buffered", 2)
        b.incr("buffered", 5)
        b.incr("early_buffered")
        assert registry.counters() == {
            "core.buffered": 7,
            "core.early_buffered": 1,
        }

    def test_suffix_keeps_groups_apart(self):
        registry = MetricsRegistry()
        g1, g2 = Counter(), Counter()
        registry.attach("sp", g1, "[g1]")
        registry.attach("sp", g2, "[g2]")
        g1.incr("initiated")
        g2.incr("initiated", 2)
        assert registry.counters() == {
            "sp.initiated[g1]": 1,
            "sp.initiated[g2]": 2,
        }

    def test_own_counters_sit_beside_owners(self):
        registry = MetricsRegistry()
        stats = Counter()
        registry.attach("net", stats)
        stats.incr("sends")
        registry.incr("obs.events_dropped", 2)
        assert registry.counters() == {"net.sends": 1, "obs.events_dropped": 2}

    def test_an_attachment_makes_the_registry_non_empty(self):
        registry = MetricsRegistry()
        assert registry.empty
        registry.attach("net", Counter())
        assert not registry.empty

    def test_clear_forgets_attachments(self):
        registry = MetricsRegistry()
        stats = Counter()
        registry.attach("net", stats)
        stats.incr("sends")
        registry.clear()
        assert registry.empty
        assert registry.counters() == {}
        assert stats.get("sends") == 1  # the owner keeps counting


class TestQuantileEdgeCases:
    def test_q_zero_is_the_minimum(self):
        h = Histogram(bounds=(1.0, 10.0, 100.0))
        for v in (3.0, 7.0, 42.0):
            h.observe(v)
        assert h.quantile(0.0) == 3.0

    def test_q_one_is_the_maximum(self):
        h = Histogram(bounds=(1.0, 10.0, 100.0))
        for v in (3.0, 7.0, 42.0):
            h.observe(v)
        assert h.quantile(1.0) == 42.0

    def test_single_sample_has_no_quantiles(self):
        # One observation is not a distribution: every quantile is None
        # (the sample itself stays visible as min/max/mean).
        h = Histogram(bounds=(1.0, 10.0))
        h.observe(4.2)
        for q in (0.0, 0.25, 0.5, 0.9, 1.0):
            assert h.quantile(q) is None
        snap = dump(h.snapshot())
        assert snap["count"] == 1
        assert snap["min"] == snap["max"] == snap["mean"] == 4.2
        assert "p50" not in snap and "p90" not in snap and "p99" not in snap

    def test_two_samples_bring_the_quantiles_back(self):
        h = Histogram(bounds=(1.0, 10.0))
        h.observe(4.2)
        h.observe(4.2)
        assert h.quantile(0.5) == 4.2
        snap = h.snapshot()
        assert snap.p50 == snap.p99 == 4.2

    def test_value_on_a_bucket_edge_lands_in_that_bucket(self):
        # Bounds are inclusive upper edges: observing exactly 10.0 must
        # count in the (1, 10] bucket, not spill into (10, 100].
        h = Histogram(bounds=(1.0, 10.0, 100.0))
        h.observe(10.0)
        h.observe(10.0)  # two samples so the quantile is defined
        assert h.counts[1] == 2
        assert h.counts[2] == 0
        assert h.quantile(0.5) == 10.0

    def test_overflow_bucket_only(self):
        # Everything above the last edge: interpolation must use the
        # tracked min/max, not an unbounded bucket edge.
        h = Histogram(bounds=(1.0, 2.0))
        for v in (50.0, 60.0, 70.0):
            h.observe(v)
        assert h.counts[-1] == 3
        assert h.quantile(0.0) == 50.0
        assert h.quantile(1.0) == 70.0
        assert 50.0 <= h.quantile(0.5) <= 70.0

    def test_quantiles_never_leave_the_observed_range(self):
        h = Histogram()  # DEFAULT_BUCKETS
        samples = [0.0003, 0.0011, 0.004, 0.02, 0.02, 0.095, 1.7, 2.5e4]
        for v in samples:
            h.observe(v)
        for q in (0.0, 0.01, 0.1, 0.5, 0.9, 0.99, 1.0):
            assert min(samples) <= h.quantile(q) <= max(samples)

    def test_quantile_is_monotone_in_q(self):
        h = Histogram(bounds=(1.0, 2.0, 5.0, 10.0))
        for v in (0.5, 1.5, 1.5, 3.0, 4.0, 8.0, 12.0):
            h.observe(v)
        qs = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0]
        values = [h.quantile(q) for q in qs]
        assert values == sorted(values)

    def test_quantile_out_of_range_rejected(self):
        h = Histogram(bounds=(1.0,))
        h.observe(0.5)
        with pytest.raises(ValueError):
            h.quantile(-0.01)
        with pytest.raises(ValueError):
            h.quantile(1.01)

    def test_empty_histogram_has_no_quantiles(self):
        h = Histogram(bounds=(1.0,))
        assert h.quantile(0.5) is None
        assert dump(h.snapshot()) == {"count": 0}


class TestRegistryHistogramBounds:
    def test_custom_bounds_apply_on_first_observation_only(self):
        registry = MetricsRegistry()
        registry.observe("batch.size", 3, bounds=(1.0, 2.0, 5.0))
        registry.observe("batch.size", 4, bounds=(100.0,))  # ignored
        histogram = registry.histogram("batch.size")
        assert histogram.bounds == (1.0, 2.0, 5.0)
        assert histogram.count == 2

    def test_default_bounds_when_unspecified(self):
        registry = MetricsRegistry()
        registry.observe("latency", 0.01)
        assert registry.histogram("latency").bounds == DEFAULT_BUCKETS
