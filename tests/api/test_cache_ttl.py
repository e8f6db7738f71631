"""TTL expiry on the shared locked LRU (and its gateway middleware).

Driven entirely by an injected deterministic clock — no sleeps. The
TTL exists so result caches drain naturally after a generation
hot-swap instead of requiring a full invalidation; the middleware test
below shows exactly that: a stale gateway entry ages out and the next
request recomputes against the (new) backend.
"""

from __future__ import annotations

import pytest

from repro.api import SearchRequest
from repro.api.cache import LRUCache, MISS
from repro.api.middleware import CacheMiddleware


class FakeClock:
    def __init__(self, now: float = 0.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestLRUCacheTTL:
    def test_entry_survives_within_ttl(self):
        clock = FakeClock()
        cache = LRUCache(8, ttl_seconds=10.0, clock=clock)
        cache.put("k", "v")
        clock.advance(9.9)
        assert cache.get("k") == "v"
        assert cache.stats().expirations == 0

    def test_entry_expires_after_ttl(self):
        clock = FakeClock()
        cache = LRUCache(8, ttl_seconds=10.0, clock=clock)
        cache.put("k", "v")
        clock.advance(10.1)
        assert cache.get("k") is MISS
        stats = cache.stats()
        assert stats.expirations == 1
        assert stats.misses == 1
        assert stats.size == 0  # expired entries are dropped, not kept

    def test_put_restarts_the_clock(self):
        clock = FakeClock()
        cache = LRUCache(8, ttl_seconds=10.0, clock=clock)
        cache.put("k", "old")
        clock.advance(8.0)
        cache.put("k", "new")  # rewrite refreshes the age
        clock.advance(8.0)
        assert cache.get("k") == "new"

    def test_no_ttl_never_expires(self):
        clock = FakeClock()
        cache = LRUCache(8, clock=clock)
        cache.put("k", "v")
        clock.advance(1e9)
        assert cache.get("k") == "v"

    def test_invalid_ttl_rejected(self):
        with pytest.raises(ValueError):
            LRUCache(8, ttl_seconds=0.0)
        with pytest.raises(ValueError):
            LRUCache(8, ttl_seconds=-1.0)

    def test_expirations_travel_through_to_dict(self):
        clock = FakeClock()
        cache = LRUCache(2, ttl_seconds=1.0, clock=clock)
        cache.put("k", "v")
        clock.advance(2.0)
        cache.get("k")
        assert cache.stats().to_dict()["expirations"] == 1


class TestCacheMiddlewareTTL:
    def test_gateway_cache_drains_after_ttl(self, tiny_backend):
        """The generation-swap story: a cached answer ages out and the
        next request recomputes — no explicit invalidation needed."""
        clock = FakeClock()
        mw = CacheMiddleware(64, ttl_seconds=30.0, clock=clock)
        request = SearchRequest(query="beach dress", k=3)
        calls = {"n": 0}

        def backend_call(req):
            calls["n"] += 1
            return tiny_backend.search(req)

        first = mw.handle(request, backend_call)
        assert mw.handle(request, backend_call) == first
        assert calls["n"] == 1  # second hit came from the cache
        clock.advance(31.0)
        assert mw.handle(request, backend_call) == first
        assert calls["n"] == 2  # TTL drained the entry; recomputed
        assert mw.cache_stats().expirations == 1
