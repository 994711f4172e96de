import math

from ledger import metrics
from ledger.stats import median, percentile, spread


def test_percentile_nearest_rank():
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    assert percentile(values, 0, 0.5) == 5.0
    assert percentile(values, 0, 0.9) == 9.0
    assert percentile(values, 0, 1.0) == 10.0
    assert percentile([], 0, 0.5) is None


def test_failures_enter_as_infinity():
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]
    # ten samples, two of them failed: p50 is finite, p90 is not.
    assert percentile(values, 2, 0.5) == 5.0
    assert percentile(values, 2, 0.8) == 8.0
    assert percentile(values, 2, 0.9) == math.inf
    assert percentile([], 3, 0.5) == math.inf


def test_spread_is_quartile_distance_over_median():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    assert median(values) == 14.5
    assert abs(spread(values) - (17.25 - 11.75) / 14.5) < 1e-12
    assert spread([5.0]) is None


def _slice(p50, cpu_s=1.0, deliveries=10, p90=None):
    return dict(wall_s=2.0, cpu_s=cpu_s, deliveries=deliveries, p50_ms=p50,
                p90_ms=p50 if p90 is None else p90)


def _run(*slices, **extra):
    record = dict(slices=list(slices), peak_rss_mb=30.0, casts=10, failed_casts=0)
    record.update(extra)
    return record


def test_metrics_are_medians_over_the_slices_of_all_repeats():
    runs = [_run(_slice(1.0, cpu_s=1.0), _slice(5.0, cpu_s=1.0)),
            _run(_slice(3.0, cpu_s=2.0), _slice(2.0, cpu_s=9.0)),
            _run(_slice(4.0, cpu_s=3.0), peak_rss_mb=50.0)]
    out = metrics.end_to_end(runs, [0.3, 0.1, 0.2])
    assert out["deliver_ms_p50"] == (3.0, "ms", 5)  # five slices pooled
    assert out["cpu_us_per_delivery"][0] == 2.0e6 / 10  # the median slice, not the mean
    assert out["deliveries_per_wall_s"] == (5.0, "1/s", 5)
    assert out["setup_s"] == (0.2, "s", 3)
    assert out["peak_rss_mb"] == (30.0, "MB", 3)


def test_a_slice_whose_tail_failed_reads_infinity_and_empty_slices_are_skipped():
    runs = [_run(_slice(1.0, p90=math.inf), _slice(None, deliveries=0),
                 _slice(1.0, p90=2.0), _slice(1.0, p90=3.0), failed_casts=1)]
    out = metrics.end_to_end(runs, [0.1])
    assert out["deliver_ms_p50"] == (1.0, "ms", 3)
    assert out["deliver_ms_p90"][0] == 3.0  # one failed slice does not own the median
    assert out["cpu_us_per_delivery"][2] == 3
    assert metrics.failures(runs) == (10, 1)
