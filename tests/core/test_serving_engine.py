"""Tests for the serving-engine internals of repro.core.serving: the
stateless read path, the batch APIs and the incremental wiring — plus
the thread-safety regressions of the LRU the gateway cache is built
on."""

import dataclasses

import pytest

from repro.core.config import ShoalConfig
from repro.core.incremental import IncrementalShoal
from repro.core.serving import ShoalService
from repro.data.marketplace import PROFILES, generate_marketplace
from repro.data.queries import QueryLogConfig
from repro.streaming import Generation, GenerationSwitch


@pytest.fixture()
def service(tiny_model, tiny_marketplace):
    """A fresh service per test."""
    return ShoalService(
        tiny_model.serving(
            {
                e.entity_id: e.category_id
                for e in tiny_marketplace.catalog.entities
            }
        )
    )


@pytest.fixture(scope="module")
def scenario_query(tiny_marketplace):
    return next(
        q.text
        for q in tiny_marketplace.query_log.queries
        if q.intent_kind == "scenario"
    )


class TestStatelessEngine:
    def test_repeat_search_recomputes_the_same_answer(
        self, service, scenario_query
    ):
        first = service.search_topics(scenario_query, k=3)
        assert first
        expected = list(first)
        first.clear()  # a caller's mutation reaches nothing shared
        assert service.search_topics(scenario_query, k=3) == expected

    def test_repeat_related_topics_recomputes_the_same_answer(
        self, service
    ):
        root = service.taxonomy.root_topics()[0]
        first = service.related_topics(root.topic_id, k=6)
        assert service.related_topics(root.topic_id, k=6) == first

    def test_engine_holds_no_result_cache(self, service):
        for gone in ("cache_stats", "invalidate_cache", "replica"):
            assert not hasattr(service, gone)


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

    def test_refreshed_service_serves_new_taxonomy(
        self, maintainer, long_market
    ):
        """A service built from the maintainer's model stays the same
        object across slides; the switch it is attached to refreshes
        it to each new model."""
        maintainer.advance(long_market.query_log, last_day=6)
        svc = ShoalService(
            maintainer.model.serving(maintainer.entity_categories)
        )
        switch = GenerationSwitch().attach(svc)
        query = next(
            q.text
            for q in long_market.query_log.queries
            if q.intent_kind == "scenario"
        )
        assert svc.search_topics(query, k=3)

        update = maintainer.advance(long_market.query_log, last_day=8)
        switch.swap(
            Generation(
                number=1,
                serving=update.model.serving(maintainer.entity_categories),
                last_day=8,
            )
        )
        # Same service object, new model, answers from the new window.
        assert svc.taxonomy is maintainer.model.taxonomy
        assert svc.search_topics(query, k=3) == ShoalService(
            maintainer.model.serving(maintainer.entity_categories)
        ).search_topics(query, k=3)
        hits = svc.search_topics(query, k=1)
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

        service = ShoalService(tiny_model.serving())
        topic = tiny_model.taxonomy.root_topics()[0]
        queries = [d for t in tiny_model.taxonomy.topics()
                   for d in t.descriptions[:1]][:24]
        expected = [service.search_topics(q, 3) for q in queries]

        def probe(_):
            out = [service.search_topics(q, 3) for q in queries]
            service.related_topics(topic.topic_id)
            return out

        with ThreadPoolExecutor(max_workers=6) as pool:
            for got in pool.map(probe, range(18)):
                assert got == expected
