"""Tests for the serving-engine internals of repro.core.serving:
query-result LRU cache (hit/miss/invalidation, incremental wiring) and
the batch APIs."""

import dataclasses

import pytest

from repro.core.config import ShoalConfig
from repro.core.incremental import IncrementalShoal
from repro.core.serving import ShoalService
from repro.data.marketplace import PROFILES, generate_marketplace
from repro.data.queries import QueryLogConfig


@pytest.fixture()
def service(tiny_model, tiny_marketplace):
    """A fresh service per test — cache counters start at zero."""
    return ShoalService(
        tiny_model,
        entity_categories={
            e.entity_id: e.category_id
            for e in tiny_marketplace.catalog.entities
        },
    )


@pytest.fixture(scope="module")
def scenario_query(tiny_marketplace):
    return next(
        q.text
        for q in tiny_marketplace.query_log.queries
        if q.intent_kind == "scenario"
    )


class TestQueryCache:
    def test_repeat_search_hits_cache(self, service, scenario_query):
        first = service.search_topics(scenario_query, k=3)
        stats = service.cache_stats()
        assert stats.hits == 0
        assert stats.misses == 1
        second = service.search_topics(scenario_query, k=3)
        stats = service.cache_stats()
        assert stats.hits == 1
        assert stats.misses == 1
        assert second == first

    def test_different_k_is_different_entry(self, service, scenario_query):
        service.search_topics(scenario_query, k=3)
        service.search_topics(scenario_query, k=5)
        assert service.cache_stats().misses == 2

    def test_cached_result_is_copy(self, service, scenario_query):
        first = service.search_topics(scenario_query, k=3)
        first.clear()  # caller mutation must not corrupt the cache
        again = service.search_topics(scenario_query, k=3)
        assert again  # still the real hits, not the cleared list

    def test_related_topics_cached(self, service):
        root = service.taxonomy.root_topics()[0]
        first = service.related_topics(root.topic_id, k=6)
        second = service.related_topics(root.topic_id, k=6)
        assert second == first
        assert service.cache_stats().hits >= 1

    def test_invalidate_cache(self, service, scenario_query):
        service.search_topics(scenario_query, k=3)
        service.invalidate_cache()
        stats = service.cache_stats()
        assert stats.size == 0
        assert stats.invalidations == 1
        service.search_topics(scenario_query, k=3)
        assert service.cache_stats().misses == 2

    def test_set_entity_categories_invalidates(self, service, scenario_query):
        service.search_topics(scenario_query, k=3)
        service.set_entity_categories({})
        assert service.cache_stats().size == 0

    def test_cache_disabled(self, tiny_model, scenario_query):
        svc = ShoalService(tiny_model, cache_size=0)
        svc.search_topics(scenario_query, k=3)
        svc.search_topics(scenario_query, k=3)
        stats = svc.cache_stats()
        assert stats.hits == 0
        assert stats.misses == 2
        assert stats.size == 0

    def test_lru_eviction(self, tiny_model):
        svc = ShoalService(tiny_model, cache_size=2)
        queries = list(tiny_model.query_texts.values())[:3]
        for q in queries:
            svc.search_topics(q, k=3)
        assert svc.cache_stats().size == 2
        svc.search_topics(queries[0], k=3)  # evicted → miss again
        assert svc.cache_stats().misses == 4

    def test_negative_cache_size_rejected(self, tiny_model):
        with pytest.raises(ValueError):
            ShoalService(tiny_model, cache_size=-1)

    def test_hit_rate(self, service, scenario_query):
        assert service.cache_stats().hit_rate == 0.0
        service.search_topics(scenario_query, k=3)
        service.search_topics(scenario_query, k=3)
        assert service.cache_stats().hit_rate == pytest.approx(0.5)
        assert "hits" in service.cache_stats().summary()

    def test_cached_equals_uncached(self, tiny_model, tiny_marketplace):
        """The cache must be invisible: cached and cache-disabled
        services agree on every query and every related-topics call."""
        cats = {
            e.entity_id: e.category_id
            for e in tiny_marketplace.catalog.entities
        }
        warm = ShoalService(tiny_model, entity_categories=cats)
        cold = ShoalService(tiny_model, cache_size=0, entity_categories=cats)
        queries = list(tiny_model.query_texts.values())[:10]
        for q in queries + queries:  # second pass hits warm's cache
            assert warm.search_topics(q, k=4) == cold.search_topics(q, k=4)
        for t in warm.taxonomy.root_topics()[:5]:
            w = [(o.topic_id, s) for o, s in warm.related_topics(t.topic_id)]
            c = [(o.topic_id, s) for o, s in cold.related_topics(t.topic_id)]
            assert w == c


class TestBatchAPIs:
    def test_search_batch_equals_sequential(self, service, tiny_model):
        queries = list(tiny_model.query_texts.values())[:12]
        batched = service.search_topics_batch(queries, k=4)
        sequential = [service.search_topics(q, k=4) for q in queries]
        assert batched == sequential

    def test_recommend_batch_equals_sequential(self, service, tiny_model):
        queries = list(tiny_model.query_texts.values())[:12]
        batched = service.recommend_batch(queries, k=6)
        sequential = [
            service.recommend_entities_for_query(q, k=6) for q in queries
        ]
        assert batched == sequential

    def test_batch_preserves_order_and_length(self, service, tiny_model):
        queries = list(tiny_model.query_texts.values())[:5]
        queries.insert(2, "zzzz qqqq nothing")  # no-hit query mid-batch
        results = service.search_topics_batch(queries, k=3)
        assert len(results) == len(queries)
        assert results[2] == []

    def test_empty_batch(self, service):
        assert service.search_topics_batch([], k=3) == []
        assert service.recommend_batch([], k=3) == []

    def test_duplicate_queries_share_cache(self, service, scenario_query):
        service.search_topics_batch([scenario_query] * 8, k=3)
        stats = service.cache_stats()
        assert stats.misses == 1
        assert stats.hits == 7


class TestIncrementalWiring:
    @pytest.fixture(scope="class")
    def long_market(self):
        cfg = dataclasses.replace(
            PROFILES["tiny"],
            query_log=QueryLogConfig(n_days=9, events_per_day=400),
        )
        return generate_marketplace(cfg)

    @pytest.fixture(scope="class")
    def maintainer(self, long_market):
        titles = {e.entity_id: e.title for e in long_market.catalog.entities}
        query_texts = {
            q.query_id: q.text for q in long_market.query_log.queries
        }
        categories = {
            e.entity_id: e.category_id for e in long_market.catalog.entities
        }
        return IncrementalShoal(
            ShoalConfig(), titles, query_texts, categories, retrain_every=100
        )

    def test_service_requires_model(self, long_market):
        titles = {e.entity_id: e.title for e in long_market.catalog.entities}
        inc = IncrementalShoal(ShoalConfig(), titles, {}, {})
        with pytest.raises(RuntimeError):
            inc.service()

    def test_advance_refreshes_persistent_service(
        self, maintainer, long_market
    ):
        maintainer.advance(long_market.query_log, last_day=6)
        svc = maintainer.service()
        assert maintainer.service() is svc  # persistent instance

        query = next(
            q.text
            for q in long_market.query_log.queries
            if q.intent_kind == "scenario"
        )
        svc.search_topics(query, k=3)
        svc.search_topics(query, k=3)
        stats = svc.cache_stats()
        assert stats.hits == 1 and stats.misses == 1

        maintainer.advance(long_market.query_log, last_day=7)
        # Same service object, new model, cache invalidated.
        assert maintainer.service() is svc
        assert svc.model is maintainer.model
        assert svc.cache_stats().size == 0
        svc.search_topics(query, k=3)
        stats = svc.cache_stats()
        assert stats.misses == 2  # recomputed against the new window
        assert stats.invalidations >= 1

    def test_refreshed_service_serves_new_taxonomy(
        self, maintainer, long_market
    ):
        maintainer.advance(long_market.query_log, last_day=8)
        svc = maintainer.service()
        hits = svc.search_topics(
            next(
                q.text
                for q in long_market.query_log.queries
                if q.intent_kind == "scenario"
            ),
            k=1,
        )
        assert hits
        # The returned topic exists in the *current* taxonomy.
        assert svc.taxonomy.topic(hits[0].topic_id) is not None


class TestLRUThreadSafety:
    """Regression: LRUCache races under concurrent mutation.

    The unlocked implementation raised KeyError when a ``get``'s
    ``move_to_end`` overlapped a concurrent ``clear``/eviction, and
    lost counter updates under parallel increments. The locked cache
    must survive a gauntlet of concurrent get/put/clear with exact
    counter accounting.
    """

    def test_concurrent_gets_puts_never_raise_or_corrupt(self):
        import sys
        import threading
        from concurrent.futures import ThreadPoolExecutor

        from repro.api.cache import LRUCache

        cache = LRUCache(max_size=32)
        n_workers, gets_per_worker = 8, 3000
        barrier = threading.Barrier(n_workers)
        errors = []

        def worker(worker_id: int):
            barrier.wait()
            try:
                for i in range(gets_per_worker):
                    key = (worker_id * 7 + i) % 64
                    cache.get(key)
                    cache.put(key, ("value", key))
                    if i % 251 == 250:
                        cache.clear()
                    if i % 97 == 0:
                        len(cache)
                        cache.stats()
            except Exception as e:  # noqa: BLE001 - the regression
                errors.append(e)

        # Force aggressive thread preemption so the unlocked races
        # (move_to_end after a concurrent clear, lost counter updates)
        # fire reliably instead of once in a blue moon.
        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=n_workers) as pool:
                list(pool.map(worker, range(n_workers)))
        finally:
            sys.setswitchinterval(old_interval)

        assert not errors, f"cache raced: {errors[:3]}"
        stats = cache.stats()
        # Exact accounting: every get() is either a hit or a miss.
        assert stats.hits + stats.misses == n_workers * gets_per_worker
        assert stats.size <= stats.max_size
        assert len(cache) == stats.size

    def test_get_vs_clear_interleaving_is_serialized(self):
        """Deterministic repro of the original race.

        ``get`` reads the entry and then touches recency via
        ``move_to_end``; a ``clear`` landing between the two raised
        KeyError in the unlocked cache. A planted dict subclass holds
        the window open so the interleaving happens every time unless
        the cache serialises it with its lock.
        """
        import threading
        import time
        from collections import OrderedDict

        from repro.api.cache import LRUCache

        window_open = threading.Event()

        class DilatedDict(OrderedDict):
            def get(self, key, default=None):
                value = super().get(key, default)
                window_open.set()
                time.sleep(0.02)  # hold the get→move_to_end window
                return value

        cache = LRUCache(max_size=8)
        cache.put("hot", "value")
        cache._data = DilatedDict(cache._data)
        errors = []

        def reader():
            try:
                cache.get("hot")
            except Exception as e:  # noqa: BLE001 - the regression
                errors.append(e)

        t = threading.Thread(target=reader)
        t.start()
        window_open.wait(timeout=5)
        cache.clear()  # must block until the in-flight get completes
        t.join(timeout=5)
        assert not errors, f"get raced clear: {errors!r}"
        assert cache.stats().hits == 1

    def test_concurrent_service_queries_consistent(self, tiny_model):
        """End-to-end: one shared service hammered from threads."""
        from concurrent.futures import ThreadPoolExecutor

        from repro.core.serving import ShoalService

        service = ShoalService(tiny_model, cache_size=8)
        topic = tiny_model.taxonomy.root_topics()[0]
        queries = [d for t in tiny_model.taxonomy.topics()
                   for d in t.descriptions[:1]][:24]
        expected = [service.search_topics(q, 3) for q in queries]

        def probe(_):
            out = [service.search_topics(q, 3) for q in queries]
            service.related_topics(topic.topic_id)
            service.invalidate_cache()
            return out

        with ThreadPoolExecutor(max_workers=6) as pool:
            for got in pool.map(probe, range(18)):
                assert got == expected
        stats = service.cache_stats()
        assert stats.hits + stats.misses > 0
