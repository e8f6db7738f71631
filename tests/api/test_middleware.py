"""Middleware stack semantics: cache, rate limit, deadline, metrics, order."""

from __future__ import annotations

from typing import List

import pytest

from repro.api import (
    ApiError,
    BatchRequest,
    BatchResponse,
    CacheMiddleware,
    DeadlineMiddleware,
    Gateway,
    MetricsMiddleware,
    RateLimitMiddleware,
    RecommendRequest,
    RecommendResponse,
    SearchRequest,
    SearchResponse,
    ShoalBackend,
    default_middlewares,
)


class CountingBackend(ShoalBackend):
    """A scripted backend: counts calls, optionally fails or 'takes' time."""

    kind = "counting"

    def __init__(self):
        self.calls: List[str] = []
        self.fail_with: ApiError = None

    def _maybe_fail(self):
        if self.fail_with is not None:
            raise self.fail_with

    def search(self, request: SearchRequest) -> SearchResponse:
        request.validate()
        self.calls.append(("search", request.query, request.k))
        self._maybe_fail()
        return SearchResponse(hits=())

    def recommend(self, request: RecommendRequest) -> RecommendResponse:
        request.validate()
        self.calls.append(("recommend", request.query, request.k))
        self._maybe_fail()
        return RecommendResponse(entity_ids=(1, 2, 3))

    def batch(self, request: BatchRequest) -> BatchResponse:
        request.validate()
        self.calls.append(("batch", request.kind, len(request.queries)))
        self._maybe_fail()
        return BatchResponse(kind=request.kind, results=())


class FakeClock:
    def __init__(self, now: float = 0.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestCacheMiddleware:
    def test_second_identical_request_served_from_cache(self):
        backend = CountingBackend()
        gateway = Gateway(backend, [CacheMiddleware(16)])
        request = SearchRequest(query="beach", k=5)
        first = gateway.search(request)
        second = gateway.search(request)
        assert first == second
        assert len(backend.calls) == 1

    def test_distinct_k_is_a_distinct_entry(self):
        backend = CountingBackend()
        gateway = Gateway(backend, [CacheMiddleware(16)])
        gateway.search(SearchRequest(query="beach", k=5))
        gateway.search(SearchRequest(query="beach", k=6))
        assert len(backend.calls) == 2

    def test_timeout_does_not_split_the_cache_key(self):
        backend = CountingBackend()
        gateway = Gateway(backend, [CacheMiddleware(16)])
        gateway.search(SearchRequest(query="beach", k=5))
        gateway.search(SearchRequest(query="beach", k=5, timeout_ms=500))
        assert len(backend.calls) == 1

    def test_invalidate_forces_recompute(self):
        backend = CountingBackend()
        gateway = Gateway(backend, [CacheMiddleware(16)])
        gateway.search(SearchRequest(query="beach", k=5))
        gateway.invalidate_cache()
        gateway.search(SearchRequest(query="beach", k=5))
        assert len(backend.calls) == 2

    def test_least_recently_used_entry_is_evicted(self):
        backend = CountingBackend()
        gateway = Gateway(backend, [CacheMiddleware(2)])
        a, b, c = (SearchRequest(query=q, k=5) for q in "abc")
        for request in (a, b, a, c):  # b is the least recently used
            gateway.search(request)
        assert gateway.cache_stats().size == 2
        gateway.search(a)
        assert len(backend.calls) == 3  # a survived c's arrival
        gateway.search(b)
        assert len(backend.calls) == 4  # b did not

    def test_size_zero_means_no_caching(self):
        backend = CountingBackend()
        gateway = Gateway(backend, [CacheMiddleware(0)])
        for _ in range(2):
            gateway.search(SearchRequest(query="beach", k=5))
        assert len(backend.calls) == 2
        stats = gateway.cache_stats()
        assert (stats.hits, stats.misses, stats.size) == (0, 2, 0)
        # The standard stack does not even install the stage.
        assert Gateway(
            backend, default_middlewares(cache_size=0)
        ).cache_stats() is None

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError, match="cache size"):
            CacheMiddleware(-1)

    def test_hit_rate_and_summary(self):
        gateway = Gateway(CountingBackend(), [CacheMiddleware(16)])
        assert gateway.cache_stats().hit_rate == 0.0
        for _ in range(2):
            gateway.search(SearchRequest(query="beach", k=5))
        assert gateway.cache_stats().hit_rate == pytest.approx(0.5)
        assert "1 hits / 1 misses" in gateway.cache_stats().summary()

    def test_cache_is_invisible(self, tiny_backend, scenario_queries):
        gateway = Gateway(tiny_backend)
        for q in scenario_queries * 2:  # the second pass is all hits
            search = SearchRequest(query=q, k=4)
            recommend = RecommendRequest(query=q, k=6)
            assert gateway.search(search) == tiny_backend.search(search)
            assert gateway.recommend(recommend) == (
                tiny_backend.recommend(recommend)
            )
        assert gateway.cache_stats().hits == 2 * len(scenario_queries)

    def test_batch_and_recommend_are_cached_too(self):
        backend = CountingBackend()
        gateway = Gateway(backend, [CacheMiddleware(16)])
        for _ in range(2):
            gateway.recommend(RecommendRequest(query="q", k=3))
            gateway.batch(BatchRequest(queries=("a", "b"), k=3))
        assert len(backend.calls) == 2

    def test_errors_are_not_cached(self):
        backend = CountingBackend()
        backend.fail_with = ApiError("backend_error", "boom")
        gateway = Gateway(backend, [CacheMiddleware(16)])
        request = SearchRequest(query="beach", k=5)
        for _ in range(2):
            with pytest.raises(ApiError):
                gateway.search(request)
        backend.fail_with = None
        gateway.search(request)
        assert len(backend.calls) == 3


class TestRateLimitMiddleware:
    def test_burst_then_reject_then_refill(self):
        clock = FakeClock()
        backend = CountingBackend()
        gateway = Gateway(
            backend, [RateLimitMiddleware(10, burst=3, clock=clock)]
        )
        request = SearchRequest(query="beach", k=5)
        for _ in range(3):
            gateway.search(request)
        with pytest.raises(ApiError) as excinfo:
            gateway.search(request)
        assert excinfo.value.code == "rate_limited"
        clock.advance(0.1)  # 10 req/s -> one token back
        gateway.search(request)
        assert len(backend.calls) == 4

    def test_rejected_request_never_reaches_backend(self):
        clock = FakeClock()
        backend = CountingBackend()
        gateway = Gateway(
            backend, [RateLimitMiddleware(1, burst=1, clock=clock)]
        )
        gateway.search(SearchRequest(query="beach", k=5))
        with pytest.raises(ApiError):
            gateway.search(SearchRequest(query="other", k=5))
        assert len(backend.calls) == 1

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError):
            RateLimitMiddleware(0)
        with pytest.raises(ValueError):
            RateLimitMiddleware(5, burst=0)


class TestDeadlineMiddleware:
    def _slow_gateway(self, backend, clock, cost_s, default_ms=None):
        """A stack whose backend 'takes' cost_s on the fake clock."""

        class SlowStage:
            def handle(self, request, call_next):
                response = call_next(request)
                clock.advance(cost_s)
                return response

            def stats(self):
                return {}

        return Gateway(
            backend,
            [DeadlineMiddleware(default_ms, clock=clock), SlowStage()],
        )

    def test_overrun_is_deadline_exceeded(self):
        clock = FakeClock()
        gateway = self._slow_gateway(
            CountingBackend(), clock, cost_s=0.2, default_ms=100
        )
        with pytest.raises(ApiError) as excinfo:
            gateway.search(SearchRequest(query="beach", k=5))
        assert excinfo.value.code == "deadline_exceeded"

    def test_request_timeout_overrides_default(self):
        clock = FakeClock()
        gateway = self._slow_gateway(
            CountingBackend(), clock, cost_s=0.2, default_ms=100
        )
        # 500ms per-request budget tolerates the 200ms backend.
        response = gateway.search(
            SearchRequest(query="beach", k=5, timeout_ms=500)
        )
        assert response.hits == ()

    def test_no_deadline_means_no_enforcement(self):
        clock = FakeClock()
        gateway = self._slow_gateway(CountingBackend(), clock, cost_s=99)
        assert gateway.search(SearchRequest(query="beach", k=5)).hits == ()

    def test_owned_context_is_ambient_below_and_cancelled_on_overrun(self):
        """Without an edge-minted context the middleware creates one,
        installs it for the layers below, and flips its token when the
        budget is blown — that flip is what stops in-flight shard work."""
        from repro.api.context import current_context

        clock = FakeClock()
        seen = []

        class Peeking(CountingBackend):
            def search(self, request):
                seen.append(current_context())
                clock.advance(0.2)
                return SearchResponse(hits=())

        gateway = Gateway(
            Peeking(), [DeadlineMiddleware(100, clock=clock)]
        )
        with pytest.raises(ApiError) as excinfo:
            gateway.search(SearchRequest(query="beach", k=5))
        assert excinfo.value.code == "deadline_exceeded"
        (ctx,) = seen
        assert ctx is not None
        assert ctx.expired
        assert ctx.cancelled  # the overrun cancels the owned context
        assert current_context() is None  # and nothing leaked out

    def test_ambient_context_is_armed_not_replaced(self):
        """An edge-minted context flows through: the middleware only
        tightens its deadline (on the context's own clock)."""
        from repro.api.context import RequestContext, current_context

        clock = FakeClock(now=10.0)
        edge_ctx = RequestContext.for_request(
            timeout_ms=5_000, tags={"edge": "test"}, clock=clock
        )
        seen = []

        class Peeking(CountingBackend):
            def search(self, request):
                seen.append(current_context())
                return SearchResponse(hits=())

        gateway = Gateway(Peeking(), [DeadlineMiddleware(None)])
        with edge_ctx.use():
            gateway.search(
                SearchRequest(query="beach", k=5, timeout_ms=100)
            )
        (ctx,) = seen
        assert ctx is edge_ctx  # same object, not a fresh one
        # 100ms from now=10.0 beats the edge's 5s budget.
        assert ctx.remaining_ms() == pytest.approx(100.0)
        assert not ctx.cancelled

    def test_expired_ambient_context_counts_and_cancels(self):
        from repro.api.context import RequestContext

        clock = FakeClock()
        edge_ctx = RequestContext.for_request(timeout_ms=100, clock=clock)
        middleware = DeadlineMiddleware(None, clock=clock)

        class Slow(CountingBackend):
            def search(self, request):
                clock.advance(0.2)
                return SearchResponse(hits=())

        gateway = Gateway(Slow(), [middleware])
        with edge_ctx.use():
            with pytest.raises(ApiError) as excinfo:
                gateway.search(SearchRequest(query="beach", k=5))
        assert excinfo.value.code == "deadline_exceeded"
        assert edge_ctx.cancelled
        assert middleware.stats()["deadline"]["expired"] == 1


class TestMetricsMiddleware:
    def test_latency_and_error_accounting(self):
        backend = CountingBackend()
        metrics = MetricsMiddleware()
        gateway = Gateway(backend, [metrics])
        gateway.search(SearchRequest(query="beach", k=5))
        gateway.recommend(RecommendRequest(query="beach", k=5))
        backend.fail_with = ApiError("backend_error", "boom")
        with pytest.raises(ApiError):
            gateway.search(SearchRequest(query="beach", k=5))
        assert metrics.latency("search").count == 2
        assert metrics.latency("recommend").count == 1
        assert metrics.error_counts() == {"backend_error": 1}
        summary = metrics.stats()
        assert "p99_ms" in summary["latency"]["search"]

    def test_metrics_outermost_sees_rate_limited_rejections(self):
        clock = FakeClock()
        metrics = MetricsMiddleware()
        gateway = Gateway(
            CountingBackend(),
            [metrics, RateLimitMiddleware(1, burst=1, clock=clock)],
        )
        gateway.search(SearchRequest(query="beach", k=5))
        with pytest.raises(ApiError):
            gateway.search(SearchRequest(query="beach", k=5))
        assert metrics.error_counts() == {"rate_limited": 1}
        assert metrics.latency("search").count == 2


class TestDefaultStackOrdering:
    def test_default_order_is_metrics_rate_deadline_cache(self):
        stack = default_middlewares(
            cache_size=8, rate_limit=100, deadline_ms=1000
        )
        assert [type(m) for m in stack] == [
            MetricsMiddleware,
            RateLimitMiddleware,
            DeadlineMiddleware,
            CacheMiddleware,
        ]

    def test_cache_hits_do_not_consume_rate_tokens_order_matters(self):
        """With cache innermost... rate limiting admits before cache, so
        repeated hits still spend tokens — the documented trade-off.
        The inverse property that must hold: a rejected request is
        never cached as an error."""
        clock = FakeClock()
        backend = CountingBackend()
        cache = CacheMiddleware(8)
        gateway = Gateway(
            backend,
            [RateLimitMiddleware(1, burst=2, clock=clock), cache],
        )
        request = SearchRequest(query="beach", k=5)
        gateway.search(request)   # token 1, miss -> cached
        gateway.search(request)   # token 2, cache hit
        assert len(backend.calls) == 1
        with pytest.raises(ApiError) as excinfo:
            gateway.search(request)  # bucket empty, rejected pre-cache
        assert excinfo.value.code == "rate_limited"
        clock.advance(1.0)
        assert gateway.search(request).hits == ()  # still a clean hit
        assert len(backend.calls) == 1

    def test_gateway_is_composable(self):
        """A gateway wraps a gateway — middleware stacks compose."""
        backend = CountingBackend()
        inner = Gateway(backend, [CacheMiddleware(8)])
        outer = Gateway(inner, [MetricsMiddleware()])
        request = SearchRequest(query="beach", k=5)
        outer.search(request)
        outer.search(request)
        assert len(backend.calls) == 1
        assert outer.middlewares[0].latency("search").count == 2

    def test_gateway_stats_merge_middleware_and_inner(self):
        backend = CountingBackend()
        gateway = Gateway(
            backend,
            default_middlewares(cache_size=8, rate_limit=50, deadline_ms=100),
        )
        gateway.search(SearchRequest(query="beach", k=5))
        stats = gateway.stats()
        assert stats["backend"] == "gateway"
        assert "gateway_cache" in stats
        assert "rate_limit" in stats
        assert "deadline" in stats
        assert stats["inner"]["backend"] == "counting"
