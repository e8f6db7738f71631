"""The unified fixed-bucket latency histogram.

This is the single percentile implementation every tier now reports
through (gateway middleware, router, async edge), so its
error bound — nearest-rank within one 10% bucket, clamped to the
exact observed max — is pinned down here, including by hypothesis
against the exact nearest-rank computed on the raw samples.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.histogram import (
    BUCKET_BOUNDS_MS,
    Histogram,
    LatencySummary,
    percentile,
)


class TestBucketLayout:
    def test_bounds_strictly_increasing(self):
        assert list(BUCKET_BOUNDS_MS) == sorted(set(BUCKET_BOUNDS_MS))

    def test_bounds_span_the_serving_range(self):
        assert BUCKET_BOUNDS_MS[0] <= 0.01
        assert BUCKET_BOUNDS_MS[-1] >= 120_000.0

    def test_relative_width_at_most_ten_percent(self):
        # The bounds are rounded to 6 significant digits for clean
        # `le` labels, which perturbs each ratio by up to ~1e-5.
        for lo, hi in zip(BUCKET_BOUNDS_MS, BUCKET_BOUNDS_MS[1:]):
            assert hi / lo <= 1.10 * (1 + 1e-5)


class TestPercentileHelper:
    def test_empty_is_zero(self):
        assert percentile([], 99.0) == 0.0

    def test_nearest_rank_exact(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        assert percentile(values, 50.0) == 3.0
        assert percentile(values, 100.0) == 5.0
        assert percentile(values, 1.0) == 1.0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101.0)

    def test_even_length_rank_is_not_rounded_up(self):
        # ceil(50 * 4 / 100) = rank 2: the lower middle, not a midpoint.
        assert percentile([1.0, 2.0, 3.0, 4.0], 50.0) == 2.0


class TestHistogram:
    def test_empty_summary_is_all_zero(self):
        s = Histogram().summary()
        assert s == LatencySummary(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)

    def test_single_sample_is_exact_everywhere(self):
        h = Histogram()
        h.record_ms(7.3)
        s = h.summary()
        assert s.count == 1
        # Clamping to the tracked max makes every percentile exact
        # for a single sample, bucket quantisation notwithstanding.
        assert s.p50_ms == s.p95_ms == s.p99_ms == s.max_ms == 7.3

    def test_single_sample_qps_reads_one_over_latency(self):
        h = Histogram()
        h.record(0.25)
        s = h.summary()
        assert s.qps == pytest.approx(4.0, rel=0.05)

    def test_summary_of_seconds_with_an_outlier(self):
        h = Histogram()
        for ms in (1, 2, 3, 4, 100):
            h.record(ms / 1000.0)
        s = h.summary()
        assert s.count == 5
        # p50 is at most one 10% bucket above the exact nearest rank;
        # p99 is clamped to the exact tracked maximum.
        assert 3.0 <= s.p50_ms <= 3.0 * 1.10
        assert s.p99_ms == pytest.approx(100.0)
        assert s.max_ms == pytest.approx(100.0)

    def test_negative_latency_clamps_to_zero(self):
        h = Histogram()
        h.record_ms(-1.0)
        assert h.summary().max_ms == 0.0

    def test_merge_equals_recording_into_one(self):
        samples_a = [0.5, 3.0, 12.0, 90.0]
        samples_b = [1.0, 7.0, 4000.0]
        a, b, combined = Histogram(), Histogram(), Histogram()
        for ms in samples_a:
            a.record_ms(ms)
            combined.record_ms(ms)
        for ms in samples_b:
            b.record_ms(ms)
            combined.record_ms(ms)
        a.merge(b)
        for q in (50.0, 95.0, 99.0):
            assert a.percentile_ms(q) == combined.percentile_ms(q)
        assert a.count == combined.count == 7
        assert a.sum_ms() == pytest.approx(combined.sum_ms())

    def test_reset_forgets_everything(self):
        h = Histogram()
        h.record_ms(5.0)
        h.reset()
        assert h.count == 0
        assert h.buckets() == [(math.inf, 0)]

    def test_buckets_are_cumulative_and_inf_terminated(self):
        h = Histogram()
        for ms in (0.5, 0.5, 200.0):
            h.record_ms(ms)
        buckets = h.buckets()
        assert buckets[-1] == (math.inf, 3)
        counts = [c for _, c in buckets]
        assert counts == sorted(counts)

    def test_overflow_sample_lands_in_inf_bucket(self):
        h = Histogram()
        h.record_ms(500_000.0)  # beyond the last bound
        buckets = h.buckets()
        finite = [c for ub, c in buckets if not math.isinf(ub)]
        assert all(c == 0 for c in finite)
        assert buckets[-1] == (math.inf, 1)

    def test_to_dict_shape(self):
        h = Histogram()
        h.record_ms(3.0)
        d = h.to_dict()
        assert set(d) == {
            "count", "qps", "mean_ms", "p50_ms", "p95_ms", "p99_ms",
            "max_ms",
        }


# Within the tracked bucket range: above the last bound (2 minutes)
# everything shares the +Inf bucket and reports the exact max instead
# of a bucketed percentile (covered by the overflow unit test above).
latencies_ms = st.floats(
    min_value=0.001, max_value=120_000.0,
    allow_nan=False, allow_infinity=False,
)


class TestHistogramProperties:
    @given(st.lists(latencies_ms, min_size=1, max_size=200))
    @settings(max_examples=100, deadline=None)
    def test_percentiles_within_one_bucket_of_exact(self, samples):
        h = Histogram()
        for ms in samples:
            h.record_ms(ms)
        exact_sorted = sorted(samples)
        for q in (50.0, 90.0, 95.0, 99.0, 100.0):
            exact = percentile(exact_sorted, q)
            approx = h.percentile_ms(q)
            # Never above the true max, never more than one 10%
            # bucket above the exact nearest-rank value (sub-10µs
            # samples all share the first bucket, so their error is
            # absolute — bounded by the first bound), and never below
            # it (cumulative counts can only round up). The extra
            # 1e-5 absorbs the 6-sig-digit label rounding.
            assert approx <= max(samples) + 1e-9
            assert approx <= max(
                exact * 1.10 * (1 + 1e-5), BUCKET_BOUNDS_MS[0]
            ) + 1e-9
            assert approx >= exact * (1 - 1e-5) - 1e-9

    @given(st.lists(latencies_ms, min_size=1, max_size=60),
           st.lists(latencies_ms, min_size=1, max_size=60))
    @settings(max_examples=50, deadline=None)
    def test_merge_is_sample_union(self, left, right):
        a, combined = Histogram(), Histogram()
        b = Histogram()
        for ms in left:
            a.record_ms(ms)
            combined.record_ms(ms)
        for ms in right:
            b.record_ms(ms)
            combined.record_ms(ms)
        a.merge(b)
        assert a.buckets() == combined.buckets()
        assert a.summary().max_ms == combined.summary().max_ms

    @given(st.lists(latencies_ms, min_size=1, max_size=100))
    @settings(max_examples=50, deadline=None)
    def test_summary_invariants(self, samples):
        h = Histogram()
        for ms in samples:
            h.record_ms(ms)
        s = h.summary()
        assert s.count == len(samples)
        assert s.p50_ms <= s.p95_ms <= s.p99_ms <= s.max_ms + 1e-9
        assert s.max_ms == pytest.approx(max(samples))
        assert s.mean_ms == pytest.approx(sum(samples) / len(samples))
