"""GenerationSwitch: attach rules, health checks, rollback, cache drops."""

from __future__ import annotations

import pytest

from repro.api import (
    BatchRequest,
    ClusterBackend,
    Gateway,
    SearchRequest,
    ServiceBackend,
)
from repro.core.serving import ShoalService
from repro.streaming import Generation, GenerationSwitch, SwapError

from tests.streaming.conftest import BASE_LAST_DAY, make_base_inc


@pytest.fixture
def fitted_generations(stream_market, stream_inputs):
    """(base_model, base_gen, next_gen) from consecutive window slides."""
    inc = make_base_inc(stream_market, stream_inputs)
    base_model = inc.model
    base = Generation(
        number=0,
        serving=base_model.serving(inc.entity_categories),
        last_day=BASE_LAST_DAY,
    )
    update = inc.advance(stream_market.query_log, last_day=BASE_LAST_DAY + 1)
    nxt = Generation(
        number=1,
        serving=update.model.serving(inc.entity_categories),
        last_day=BASE_LAST_DAY + 1,
    )
    return base_model, base, nxt


@pytest.fixture
def two_generations(fitted_generations):
    """(base_gen, next_gen)."""
    return fitted_generations[1:]


def _backend(generation):
    """A fresh single-service tier serving ``generation``."""
    return ServiceBackend(ShoalService(generation.serving))


@pytest.fixture
def probes(stream_market):
    return sorted(
        {
            q.text
            for q in stream_market.query_log.queries
            if q.intent_kind == "scenario"
        }
    )[:5]


class TestAttach:
    def test_duplicate_engines_collapse(self, two_generations):
        base, _ = two_generations
        backend = _backend(base)
        switch = GenerationSwitch()
        switch.attach(backend).attach(backend.service).attach(Gateway(backend))
        assert switch.stats()["gateways"] == 1

    def test_gateway_unwraps_to_engine_and_registers_cache(
        self, two_generations
    ):
        base, _ = two_generations
        backend = _backend(base)
        gateway = Gateway(backend)
        switch = GenerationSwitch()
        switch.attach(gateway)
        assert switch.stats()["gateways"] == 1
        switch.attach(backend.service)  # the engine the gateway wraps

    def test_unattachable_object_rejected(self):
        with pytest.raises(TypeError):
            GenerationSwitch().attach(object())

    def test_second_distinct_engine_rejected(self, two_generations):
        base, _ = two_generations
        first, second = _backend(base), _backend(base)
        switch = GenerationSwitch().attach(first)
        with pytest.raises(ValueError, match="exactly one engine"):
            switch.attach(second)
        with pytest.raises(ValueError, match="exactly one engine"):
            switch.attach(Gateway(second))
        assert switch.stats()["gateways"] == 0

    def test_sharded_tier_is_read_only(self, fitted_generations):
        model, base, _ = fitted_generations
        cluster = ClusterBackend.from_model(
            model, 2, entity_categories=base.serving.entity_categories
        )
        for target in (cluster, cluster.router, Gateway(cluster)):
            with pytest.raises(TypeError, match="sharded tier is read-only"):
                GenerationSwitch().attach(target)


class TestSwap:
    def test_healthy_swap_flips_the_tier(self, two_generations, probes):
        base, nxt = two_generations
        backend = _backend(base)
        switch = GenerationSwitch(probe_queries=probes, baseline=base)
        switch.attach(backend)
        report = switch.swap(nxt)
        assert report.healthy and not report.rolled_back
        assert report.generation == nxt.number and report.detail == ""
        assert switch.current is nxt
        assert switch.stats()["swaps"] == 1
        # The tier now answers from the new model.
        assert backend.service.taxonomy is nxt.serving.taxonomy

    def test_failed_health_check_rolls_back_and_raises(
        self, two_generations, probes
    ):
        base, nxt = two_generations

        class LyingTier:
            """Refreshes fine but serves garbage afterwards."""

            def __init__(self):
                self.served = []

            def refresh(self, serving):
                self.served.append(serving)

            def search_topics(self, query, k=5):
                return []  # diverges from every real answer

        liar = LyingTier()
        switch = GenerationSwitch(probe_queries=probes, baseline=base)
        switch.attach(liar)
        with pytest.raises(SwapError) as excinfo:
            switch.swap(nxt)
        report = excinfo.value.report
        assert not report.healthy
        assert report.rolled_back
        assert "diverged from the reference answer" in report.detail
        # Rolled back TO the baseline model, after trying the new one.
        assert liar.served == [nxt.serving, base.serving]
        # The switch still serves the old generation.
        assert switch.current is base
        assert switch.stats()["rollbacks"] == 1

    def test_refresh_exception_is_contained_and_rolled_back(
        self, two_generations, probes
    ):
        base, nxt = two_generations

        class ExplodingTier:
            def __init__(self):
                self.calls = 0

            def refresh(self, serving):
                self.calls += 1
                if self.calls == 1:
                    raise RuntimeError("index build exploded")

            def search_topics(self, query, k=5):
                return []

        tier = ExplodingTier()
        switch = GenerationSwitch(probe_queries=probes, baseline=base)
        switch.attach(tier)
        with pytest.raises(SwapError):
            switch.swap(nxt)
        assert tier.calls == 2  # failed roll + rollback

    def test_gateway_cache_invalidated_on_swap(
        self, two_generations, probes
    ):
        base, nxt = two_generations
        backend = _backend(base)
        gateway = Gateway(backend)
        request = SearchRequest(query=probes[0], k=3)
        before = gateway.search(request)
        assert gateway.search(request) == before  # now cached
        assert gateway.cache_stats().hits >= 1

        switch = GenerationSwitch(
            probe_queries=probes, baseline=base
        ).attach(gateway)
        switch.swap(nxt)
        assert gateway.cache_stats().size == 0  # dropped with the swap
        # Post-swap answers come from the new model, not the stale cache.
        fresh = _backend(nxt)
        assert gateway.search(request) == fresh.search(request)

    def test_gateway_is_the_one_cache_over_a_cluster(
        self, fitted_generations, probes
    ):
        """The case the router's front cache used to carry: repeats are
        answered by the gateway with zero new shard-probe work."""
        model, base, _ = fitted_generations
        backend = ClusterBackend.from_model(
            model, 2, entity_categories=base.serving.entity_categories
        )
        router = backend.router
        gateway = Gateway(backend)
        search = SearchRequest(query=probes[0], k=3)
        batch = BatchRequest(queries=tuple(probes), k=3, kind="search")

        def shard_work():
            return router.request_stats().count, router.shard_busy_seconds()

        first = gateway.search(search), gateway.batch(batch)
        computed = shard_work()
        # One latency sample per call: the batch counts as one request.
        assert computed[0] == 1 + 1 and sum(computed[1]) > 0.0
        assert (gateway.search(search), gateway.batch(batch)) == first
        assert shard_work() == computed  # both repeats were cache hits
        assert gateway.cache_stats().hits == 2

    def test_swap_makes_the_gateway_compute_again(
        self, two_generations, probes
    ):
        """After a swap the next request computes against the new
        model instead of hitting the gateway's cache."""
        base, nxt = two_generations
        backend = _backend(base)
        gateway = Gateway(backend)
        search = SearchRequest(query=probes[0], k=3)
        batch = BatchRequest(queries=tuple(probes), k=3, kind="search")
        first = gateway.search(search), gateway.batch(batch)
        assert (gateway.search(search), gateway.batch(batch)) == first
        assert gateway.cache_stats().hits == 2

        GenerationSwitch(probe_queries=probes, baseline=base).attach(
            gateway
        ).swap(nxt)
        misses = gateway.cache_stats().misses
        fresh = _backend(nxt)
        assert gateway.search(search) == fresh.search(search)
        assert gateway.batch(batch) == fresh.batch(batch)
        assert gateway.cache_stats().misses == misses + 2  # both computed

    def test_gateway_cache_cannot_be_repoisoned_by_inflight_put(
        self, two_generations, probes
    ):
        """A request that computed against the old generation finishing
        its cache put AFTER the swap's invalidation must not leave a
        stale entry new lookups can find (epoch-stamped keys)."""
        from repro.api.middleware import CacheMiddleware

        base, nxt = two_generations
        backend = _backend(base)
        mw = CacheMiddleware(64)
        gateway = Gateway(backend, [mw])
        request = SearchRequest(query=probes[0], k=3)
        stale = gateway.search(request)  # computed against base

        # Simulate the race: the swap invalidates, THEN the in-flight
        # request's put lands (under the old epoch).
        switch = GenerationSwitch(baseline=base).attach(gateway)
        switch.swap(nxt)
        mw._cache.put((0, request.cache_key()), stale)  # late stale put

        fresh = _backend(nxt)
        assert gateway.search(request) == fresh.search(request)

    def test_swap_without_probes_is_unconditional(self, two_generations):
        base, nxt = two_generations
        backend = _backend(base)
        switch = GenerationSwitch(baseline=base).attach(backend)
        assert switch.swap(nxt).healthy
