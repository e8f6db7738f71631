"""Tests for repro.serving.replay: workload profiles, the replayer, and
the latency summaries of the histogram it records into."""

import pytest

from repro.api import Gateway, ServiceBackend
from repro.core.serving import ShoalService
from repro.serving import (
    ClusterRouter,
    Histogram,
    TrafficReplayer,
    WorkloadConfig,
    build_workload,
    percentile,
)


@pytest.fixture(scope="module")
def service(tiny_model, tiny_marketplace):
    return ShoalService(
        tiny_model.serving(
            {
                e.entity_id: e.category_id
                for e in tiny_marketplace.catalog.entities
            }
        )
    )


def make_workload(market, **kw):
    return build_workload(
        market.query_log.queries,
        market.scenarios,
        WorkloadConfig(**kw),
    )


class TestWorkloads:
    def test_exact_length_every_profile(self, tiny_marketplace):
        for profile in ("steady", "bursty", "drifting", "adversarial"):
            wl = make_workload(
                tiny_marketplace, n_requests=333, profile=profile
            )
            assert len(wl) == 333

    def test_deterministic(self, tiny_marketplace):
        a = make_workload(tiny_marketplace, n_requests=200, seed=5)
        b = make_workload(tiny_marketplace, n_requests=200, seed=5)
        assert a == b

    def test_zipf_skew(self, tiny_marketplace):
        wl = make_workload(
            tiny_marketplace,
            n_requests=2000,
            profile="steady",
            zipf_exponent=1.2,
        )
        from collections import Counter

        top, _ = Counter(wl).most_common(1)[0]
        assert wl.count(top) > 2000 / len(set(wl)) * 3

    def test_bursty_runs(self, tiny_marketplace):
        wl = make_workload(
            tiny_marketplace,
            n_requests=500,
            profile="bursty",
            burst_length=10,
        )
        runs = sum(
            1 for i in range(1, len(wl)) if wl[i] == wl[i - 1]
        )
        assert runs > len(wl) // 3  # long repeated stretches

    def test_drifting_head_moves(self, tiny_marketplace):
        wl = make_workload(
            tiny_marketplace,
            n_requests=1000,
            profile="drifting",
            drift_every=250,
            zipf_exponent=1.3,
        )
        from collections import Counter

        head_first = Counter(wl[:250]).most_common(1)[0][0]
        head_last = Counter(wl[750:]).most_common(1)[0][0]
        assert head_first != head_last

    def test_adversarial_all_distinct(self, tiny_marketplace):
        wl = make_workload(
            tiny_marketplace, n_requests=400, profile="adversarial"
        )
        assert len(set(wl)) == 400

    def test_pool_variants_expand_distinct_queries(self, tiny_marketplace):
        narrow = make_workload(
            tiny_marketplace, n_requests=3000, profile="steady",
            zipf_exponent=0.2,
        )
        wide = make_workload(
            tiny_marketplace, n_requests=3000, profile="steady",
            zipf_exponent=0.2, pool_variants=8,
        )
        assert len(set(wide)) > len(set(narrow)) * 3

    def test_variants_add_no_new_terms(self, tiny_marketplace):
        wide = make_workload(
            tiny_marketplace, n_requests=500, profile="steady",
            pool_variants=6,
        )
        base_terms = {
            t
            for q in tiny_marketplace.query_log.queries
            for t in q.text.split()
        }
        assert {t for q in wide for t in q.split()} <= base_terms

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError, match="profile"):
            WorkloadConfig(profile="tsunami")


class TestReplayer:
    def test_report_counts(self, service, tiny_marketplace):
        wl = make_workload(tiny_marketplace, n_requests=300)
        report = TrafficReplayer(service).replay(wl, profile="steady")
        assert report.n_requests == 300
        assert report.qps > 0
        assert 0 <= report.n_empty <= 300
        assert report.latency.p50_ms <= report.latency.p99_ms
        assert "steady" in report.summary()

    def test_warmup_excluded_from_measurement(
        self, service, tiny_marketplace
    ):
        wl = make_workload(tiny_marketplace, n_requests=300)
        report = TrafficReplayer(service).replay(
            wl, profile="steady", warmup=100
        )
        assert report.n_requests == 200

    def test_gateway_cache_delta_tracked(self, service, tiny_marketplace):
        wl = make_workload(
            tiny_marketplace, n_requests=400, profile="bursty"
        )
        gateway = Gateway(ServiceBackend(service))
        report = TrafficReplayer(gateway).replay(wl, profile="bursty")
        assert report.cache_before is not None
        assert report.hit_rate > 0.3  # bursts hit the LRU hard

    def test_bare_engine_reports_no_cache(self, service, tiny_marketplace):
        wl = make_workload(tiny_marketplace, n_requests=50)
        report = TrafficReplayer(service).replay(wl)
        assert report.cache_before is None
        assert report.hit_rate == 0.0
        assert "cache" not in report.summary()

    def test_adversarial_never_hits_cache(self, service, tiny_marketplace):
        wl = make_workload(
            tiny_marketplace, n_requests=200, profile="adversarial"
        )
        gateway = Gateway(ServiceBackend(service))
        report = TrafficReplayer(gateway).replay(wl, profile="adversarial")
        assert report.cache_before is not None
        assert report.hit_rate == 0.0

    def test_replay_against_cluster(self, tiny_model, tiny_marketplace):
        router = ClusterRouter.from_model(tiny_model, 2)
        wl = make_workload(tiny_marketplace, n_requests=200)
        report = TrafficReplayer(router, k=3).replay(wl)
        assert report.n_requests == 200
        assert router.request_stats().count >= 200

    def test_concurrent_replay(self, service, tiny_marketplace):
        wl = make_workload(tiny_marketplace, n_requests=300)
        report = TrafficReplayer(service, concurrency=4).replay(wl)
        assert report.n_requests == 300
        assert report.latency.count == 300


class TestStats:
    def test_percentile_nearest_rank(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 50) == 2.0
        assert percentile(values, 100) == 4.0
        assert percentile(values, 1) == 1.0
        assert percentile([], 99) == 0.0

    def test_percentile_bounds(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)

    def test_recorder_summary(self):
        stats = Histogram()
        for ms in (1, 2, 3, 4, 100):
            stats.record(ms / 1000.0)
        s = stats.summary()
        assert s.count == 5
        # Percentiles come from the shared fixed-bucket histogram:
        # at most one bucket (10%) above the exact nearest-rank value,
        # and never above the exact tracked maximum.
        assert 3.0 <= s.p50_ms <= 3.0 * 1.10
        assert s.p99_ms == pytest.approx(100.0)
        assert s.max_ms == pytest.approx(100.0)
        assert s.total_seconds == pytest.approx(0.110)

    def test_empty_recorder(self):
        s = Histogram().summary()
        assert s.count == 0
        assert s.qps == 0.0

    def test_reset(self):
        stats = Histogram()
        stats.record(0.5)
        stats.reset()
        assert stats.summary().count == 0
