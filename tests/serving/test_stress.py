"""Concurrency stress: hammer the ClusterRouter from a thread pool
while IncrementalShoal slides windows and a GenerationSwitch swaps each
new model in underneath it.

Asserts the three cluster-safety properties: no exceptions under
concurrent load, no stale answers once a refresh completes, and
request-counter monotonicity across shard rebuilds."""

import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.api import ClusterBackend
from repro.core.config import ShoalConfig
from repro.core.incremental import IncrementalShoal
from repro.core.serving import ShoalService
from repro.data.marketplace import PROFILES, generate_marketplace
from repro.data.queries import QueryLogConfig
from repro.streaming import Generation, GenerationSwitch


@pytest.fixture(scope="module")
def long_market():
    """A tiny marketplace with enough days to slide several windows."""
    config = PROFILES["tiny"]
    config = type(config)(
        ontology=config.ontology,
        scenarios=config.scenarios,
        vocabulary=config.vocabulary,
        items=config.items,
        users=config.users,
        query_log=QueryLogConfig(n_days=10, events_per_day=400),
        seed=config.seed,
    )
    return generate_marketplace(config)


def make_maintainer(market):
    inc = IncrementalShoal(
        ShoalConfig(),
        titles={e.entity_id: e.title for e in market.catalog.entities},
        query_texts={
            q.query_id: q.text for q in market.query_log.queries
        },
        entity_categories={
            e.entity_id: e.category_id for e in market.catalog.entities
        },
    )
    inc.advance(market.query_log, last_day=6)
    return inc


def switched_router(inc, n_shards):
    """(router, switch): a cluster tier built from the maintainer's
    model, attached to the switch that keeps it current."""
    backend = ClusterBackend.from_model(
        inc.model, n_shards, entity_categories=inc.entity_categories
    )
    return backend.router, GenerationSwitch().attach(backend)


def slide(inc, switch, market, day):
    """Advance the window and swap the new model into the tier."""
    update = inc.advance(market.query_log, last_day=day)
    return switch.swap(
        Generation(
            number=switch.stats()["swaps"] + 1,
            model=update.model,
            entity_categories=inc.entity_categories,
            last_day=day,
        )
    )


@pytest.mark.slow
class TestClusterUnderSlides:
    def test_hammer_while_sliding(self, long_market):
        inc = make_maintainer(long_market)
        router, switch = switched_router(inc, 2)
        queries = [q.text for q in long_market.query_log.queries]
        errors = []
        stop = threading.Event()

        def hammer(worker: int):
            i = worker
            while not stop.is_set():
                try:
                    router.search_topics(queries[i % len(queries)], 5)
                    router.recommend_entities_for_query(
                        queries[(i + 7) % len(queries)], 6
                    )
                except Exception as e:  # noqa: BLE001 - the assertion
                    errors.append(e)
                    return
                i += 4
            return

        request_totals = []
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(hammer, w) for w in range(4)]
            try:
                for day in (7, 8, 9, 7, 8):
                    slide(inc, switch, long_market, day)
                    request_totals.append(router.request_stats().count)
            finally:
                stop.set()
            for f in futures:
                f.result(timeout=60)

        assert not errors, f"worker raised under refresh: {errors[:3]}"
        # Monotonic aggregate counters across every shard rebuild.
        assert request_totals == sorted(request_totals)
        assert request_totals[-1] > 0

    def test_no_stale_answers_after_refresh(self, long_market):
        """Post-refresh, the quiescent cluster equals a fresh service."""
        inc = make_maintainer(long_market)
        router, switch = switched_router(inc, 4)
        queries = [q.text for q in long_market.query_log.queries][:60]
        for q in queries:  # serve the old window first
            router.search_topics(q, 5)
        slide(inc, switch, long_market, 9)
        fresh = ShoalService(
            inc.model,
            entity_categories={
                e.entity_id: e.category_id
                for e in long_market.catalog.entities
            },
        )
        for q in queries:
            assert router.search_topics(q, 5) == fresh.search_topics(q, 5)
            assert router.recommend_entities_for_query(q, 8) == (
                fresh.recommend_entities_for_query(q, 8)
            )

    def test_concurrent_identical_requests_single_router(self, long_market):
        """Many threads asking the same things agree with each other."""
        inc = make_maintainer(long_market)
        router, _ = switched_router(inc, 2)
        queries = [q.text for q in long_market.query_log.queries][:30]
        expected = [router.search_topics(q, 5) for q in queries]

        def check(_):
            return [router.search_topics(q, 5) for q in queries]

        with ThreadPoolExecutor(max_workers=6) as pool:
            for result in pool.map(check, range(12)):
                assert result == expected


class TestClusterWiring:
    """Fast (non-slow) checks of a cluster tier a switch keeps current
    while the maintainer slides."""

    def test_cluster_is_persistent(self, long_market):
        inc = make_maintainer(long_market)
        backend = ClusterBackend.from_model(
            inc.model, 2, entity_categories=inc.entity_categories
        )
        router = backend.router
        switch = GenerationSwitch().attach(backend)
        slide(inc, switch, long_market, 7)
        # Refreshed in place: whoever holds the router holds the tier.
        assert backend.router is router
        assert router.n_shards == 2

    def test_idempotent_slide_keeps_cluster_shards(self, long_market):
        inc = make_maintainer(long_market)
        inc.advance(long_market.query_log, last_day=7)
        router, switch = switched_router(inc, 2)
        queries = [q.text for q in long_market.query_log.queries][:20]
        for q in queries:
            router.search_topics(q, 5)
        busy_before = router.shard_busy_seconds()
        assert sum(busy_before) > 0.0
        # Re-advancing to the same day refits an identical window model:
        # fingerprints and collection stats match, so no shard is
        # rebuilt and the busy-time accumulators carry over.
        report = slide(inc, switch, long_market, 7)
        assert report.outcomes[0].rebuilt_shards == ()
        assert router.shard_busy_seconds() == busy_before
