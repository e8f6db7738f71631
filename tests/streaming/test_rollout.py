"""GenerationSwitch: attach rules, one probed build per swap, refusals,
cache drops."""

from __future__ import annotations

import threading

import pytest

from repro.api import (
    BatchRequest,
    ClusterBackend,
    Gateway,
    SearchRequest,
    ServiceBackend,
)
from repro.core import serving as serving_module
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

    def test_duck_typed_engine_rejected(self):
        """Only a ShoalService (directly or behind its adapters) is
        swapped: the switch builds, probes and publishes its state."""

        class Double:
            def refresh(self, serving):
                pass

            def search_topics(self, query, k=5):
                return []

        with pytest.raises(TypeError, match="expected a ShoalService"):
            GenerationSwitch().attach(Double())

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


class _Exploding:
    """A candidate index whose every lookup raises."""

    def top_k(self, tokens, k):
        raise RuntimeError("candidate index is corrupt")


class _Builds(list):
    def __init__(self):
        super().__init__()
        self.poisoned, self.broken = [], []


@pytest.fixture
def builds(monkeypatch):
    """Every ``_ServiceState`` built from now on, in order. A state built
    from a serving model in ``builds.poisoned`` gets an index that
    raises on lookup; one in ``builds.broken`` raises while building."""

    built = _Builds()
    poisoned, broken = built.poisoned, built.broken

    class Counting(serving_module._ServiceState):
        __slots__ = ()

        def __init__(self, serving, *args, **kwargs):
            if any(serving is b for b in broken):
                raise MemoryError("index build failed")
            super().__init__(serving, *args, **kwargs)
            if any(serving is p for p in poisoned):
                self.index = _Exploding()
            built.append(self)

    monkeypatch.setattr(serving_module, "_ServiceState", Counting)
    return built


def _count_publishes(service):
    """Wrap ``service.publish``; returns the list of published states."""
    published = []
    publish = service.publish

    def counting(state):
        published.append(state)
        publish(state)

    service.publish = counting
    return published


class TestSwap:
    def test_healthy_swap_flips_the_tier(self, two_generations, probes):
        base, nxt = two_generations
        backend = _backend(base)
        switch = GenerationSwitch(probe_queries=probes, baseline=base)
        switch.attach(backend)
        report = switch.swap(nxt)
        assert report.healthy
        assert report.generation == nxt.number and report.detail == ""
        assert switch.current is nxt
        assert switch.stats()["swaps"] == 1
        # The tier now answers from the new model.
        assert backend.service.taxonomy is nxt.serving.taxonomy

    def test_healthy_swap_is_one_build_and_one_publish(
        self, two_generations, probes, builds
    ):
        base, nxt = two_generations
        backend = _backend(base)
        published = _count_publishes(backend.service)
        switch = GenerationSwitch(probe_queries=probes, baseline=base)
        switch.attach(backend)
        del builds[:]
        switch.swap(nxt)
        assert len(builds) == 1
        assert published == builds  # the probed state is the one served
        assert backend.service.serving is nxt.serving

    @pytest.mark.parametrize("fault", ["probe", "build"])
    def test_refused_swap_publishes_nothing(
        self, two_generations, probes, builds, fault
    ):
        """A probe that raises on the candidate, or a build that raises,
        refuses the generation before anything reaches readers: the
        tier, the gateway's cached results and ``current`` stay."""
        base, nxt = two_generations
        backend = _backend(base)
        published = _count_publishes(backend.service)
        gateway = Gateway(backend)
        request = SearchRequest(query=probes[0], k=3)
        before = gateway.search(request)
        assert gateway.search(request) == before
        cache = gateway.cache_stats()
        switch = GenerationSwitch(probe_queries=probes, baseline=base)
        switch.attach(gateway)
        (builds.poisoned if fault == "probe" else builds.broken).append(
            nxt.serving
        )
        del builds[:]
        with pytest.raises(SwapError) as excinfo:
            switch.swap(nxt)
        report = excinfo.value.report
        assert not report.healthy and report.gateways_invalidated == 0
        expected = "candidate index is corrupt" if fault == "probe" else (
            "MemoryError"
        )
        assert expected in report.detail
        assert len(builds) == (1 if fault == "probe" else 0)
        assert published == []
        assert backend.service.serving is base.serving
        assert switch.current is base and switch.stats()["swaps"] == 0
        after = gateway.cache_stats()
        assert (after.size, after.hits) == (cache.size, cache.hits)
        assert gateway.search(request) == before
        assert gateway.cache_stats().hits == cache.hits + 1

    def test_readers_see_only_the_old_generation_across_a_refusal(
        self, two_generations, probes, builds
    ):
        base, nxt = two_generations
        backend = _backend(base)
        switch = GenerationSwitch(probe_queries=probes, baseline=base)
        switch.attach(backend)
        want = [backend.search(SearchRequest(query=q, k=5)) for q in probes]
        builds.poisoned.append(nxt.serving)
        stop = threading.Event()
        seen = []

        def reader():
            while not stop.is_set():
                seen.append([
                    backend.search(SearchRequest(query=q, k=5))
                    for q in probes
                ])

        thread = threading.Thread(target=reader, daemon=True)
        thread.start()
        try:
            for _ in range(5):
                with pytest.raises(SwapError):
                    switch.swap(nxt)
        finally:
            stop.set()
            thread.join(timeout=10.0)
        assert seen and all(answers == want for answers in seen)

    def test_stats_answer_while_a_build_runs(
        self, two_generations, probes, monkeypatch
    ):
        """The build runs outside the switch's lock, so a metrics scrape
        never waits for it."""
        base, nxt = two_generations
        backend = _backend(base)
        switch = GenerationSwitch(probe_queries=probes, baseline=base)
        switch.attach(backend)
        entered, release = threading.Event(), threading.Event()
        build = backend.service.build

        def held(serving):
            entered.set()
            assert release.wait(30.0)
            return build(serving)

        monkeypatch.setattr(backend.service, "build", held)
        swapper = threading.Thread(target=switch.swap, args=(nxt,))
        swapper.start()
        try:
            assert entered.wait(30.0)
            scraped = []
            scraper = threading.Thread(
                target=lambda: scraped.append(switch.stats())
            )
            scraper.start()
            scraper.join(timeout=5.0)
            assert scraped and scraped[0]["current_generation"] == 0
        finally:
            release.set()
            swapper.join(timeout=30.0)
        assert switch.current is nxt

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
