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
from repro.streaming import Generation, GenerationSwitch, SwapError

from tests.streaming.conftest import BASE_LAST_DAY, make_base_inc


@pytest.fixture
def two_generations(stream_market, stream_inputs):
    """(base_gen, next_gen) from consecutive window slides."""
    inc = make_base_inc(stream_market, stream_inputs)
    base = Generation(
        number=0,
        model=inc.model,
        entity_categories=inc.entity_categories,
        last_day=BASE_LAST_DAY,
    )
    update = inc.advance(stream_market.query_log, last_day=BASE_LAST_DAY + 1)
    nxt = Generation(
        number=1,
        model=update.model,
        entity_categories=inc.entity_categories,
        last_day=BASE_LAST_DAY + 1,
    )
    return base, nxt


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
        backend = ServiceBackend.from_model(
            base.model, entity_categories=base.entity_categories
        )
        switch = GenerationSwitch()
        switch.attach(backend).attach(backend.service)
        assert len(switch.targets) == 1

    def test_gateway_unwraps_to_engine_and_registers_cache(
        self, two_generations
    ):
        base, _ = two_generations
        backend = ServiceBackend.from_model(
            base.model, entity_categories=base.entity_categories
        )
        gateway = Gateway(backend)
        switch = GenerationSwitch()
        switch.attach(gateway)
        assert len(switch.targets) == 1
        assert switch.stats()["gateways"] == 1

    def test_unattachable_object_rejected(self):
        with pytest.raises(TypeError):
            GenerationSwitch().attach(object())


class TestSwap:
    def test_healthy_swap_flips_every_tier(
        self, two_generations, probes
    ):
        base, nxt = two_generations
        backend = ServiceBackend.from_model(
            base.model, entity_categories=base.entity_categories
        )
        cluster = base.model  # sharded tier over the same base model
        from repro.api import ClusterBackend

        cluster_backend = ClusterBackend.from_model(
            cluster, 4, entity_categories=base.entity_categories
        )
        switch = GenerationSwitch(probe_queries=probes, baseline=base)
        switch.attach(backend, name="single").attach(
            cluster_backend, name="sharded"
        )
        report = switch.swap(nxt)
        assert report.healthy
        assert switch.current is nxt
        assert {o.name for o in report.outcomes} == {"single", "sharded"}
        # Both tiers now answer from the new model.
        assert backend.service.model is nxt.model

    def test_cluster_swap_rebuilds_only_fingerprint_changed_shards(
        self, two_generations
    ):
        """Re-rolling the SAME generation must rebuild nothing — the
        per-shard fingerprints and global stats are unchanged."""
        base, nxt = two_generations
        from repro.api import ClusterBackend

        cluster_backend = ClusterBackend.from_model(
            nxt.model, 4, entity_categories=nxt.entity_categories
        )
        switch = GenerationSwitch(baseline=base)
        switch.attach(cluster_backend, name="sharded")
        report = switch.swap(nxt)
        [outcome] = report.outcomes
        assert outcome.healthy
        assert outcome.rebuilt_shards == ()

    def test_failed_health_check_rolls_back_and_raises(
        self, two_generations, probes
    ):
        base, nxt = two_generations

        class LyingTier:
            """Refreshes fine but serves garbage afterwards."""

            def __init__(self):
                self.models = []

            def refresh(self, model, entity_categories=None):
                self.models.append(model)

            def search_topics(self, query, k=5):
                return []  # diverges from every real answer

        liar = LyingTier()
        switch = GenerationSwitch(probe_queries=probes, baseline=base)
        switch.attach(liar, name="liar")
        with pytest.raises(SwapError) as excinfo:
            switch.swap(nxt)
        report = excinfo.value.report
        [outcome] = report.outcomes
        assert not outcome.healthy
        assert outcome.rolled_back
        # Rolled back TO the baseline model, after trying the new one.
        assert liar.models == [nxt.model, base.model]
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

            def refresh(self, model, entity_categories=None):
                self.calls += 1
                if self.calls == 1:
                    raise RuntimeError("index build exploded")

            def search_topics(self, query, k=5):
                return []

        tier = ExplodingTier()
        switch = GenerationSwitch(probe_queries=probes, baseline=base)
        switch.attach(tier, name="exploder")
        with pytest.raises(SwapError):
            switch.swap(nxt)
        assert tier.calls == 2  # failed roll + rollback

    def test_gateway_cache_invalidated_on_swap(
        self, two_generations, probes
    ):
        base, nxt = two_generations
        backend = ServiceBackend.from_model(
            base.model, entity_categories=base.entity_categories
        )
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
        fresh = ServiceBackend.from_model(
            nxt.model, entity_categories=nxt.entity_categories
        )
        assert gateway.search(request) == fresh.search(request)

    def test_gateway_is_the_one_cache_over_a_cluster(
        self, two_generations, probes
    ):
        """The case the router's front cache used to carry: repeats are
        answered by the gateway with zero new shard-probe work, and a
        swap makes the next request compute again."""
        base, nxt = two_generations
        backend = ClusterBackend.from_model(
            base.model, 2, entity_categories=base.entity_categories
        )
        router = backend.router
        gateway = Gateway(backend)
        search = SearchRequest(query=probes[0], k=3)
        batch = BatchRequest(queries=tuple(probes), k=3, kind="search")

        def shard_work():
            return router.request_stats().count, router.shard_busy_seconds()

        first = gateway.search(search), gateway.batch(batch)
        computed = shard_work()
        assert computed[0] == 1 + len(probes) and sum(computed[1]) > 0.0
        assert (gateway.search(search), gateway.batch(batch)) == first
        assert shard_work() == computed  # both repeats were cache hits
        assert gateway.cache_stats().hits == 2

        GenerationSwitch(probe_queries=probes, baseline=base).attach(
            gateway
        ).swap(nxt)
        after_swap = shard_work()  # the swap's own health probes
        fresh = ClusterBackend.from_model(
            nxt.model, 2, entity_categories=nxt.entity_categories
        )
        assert gateway.search(search) == fresh.search(search)
        assert gateway.batch(batch) == fresh.batch(batch)
        assert shard_work()[0] == after_swap[0] + 1 + len(probes)

    def test_partial_failure_tracks_per_target_generations(
        self, two_generations, probes
    ):
        """A healthy tier stays on the newer generation when a sibling
        fails; its own later rollback restores ITS generation, not the
        fleet-wide floor."""
        base, nxt = two_generations
        backend = ServiceBackend.from_model(
            base.model, entity_categories=base.entity_categories
        )

        class LyingTier:
            def refresh(self, model, entity_categories=None):
                pass

            def search_topics(self, query, k=5):
                return []

        switch = GenerationSwitch(probe_queries=probes, baseline=base)
        switch.attach(backend, name="good").attach(LyingTier(), name="liar")
        with pytest.raises(SwapError):
            switch.swap(nxt)
        # Fleet floor stays on base, but the healthy tier kept nxt —
        # and the per-target stats say so.
        assert switch.current is base
        assert backend.service.model is nxt.model
        gens = switch.stats()["target_generations"]
        assert gens["good"] == 1 and gens["liar"] == 0

    def test_gateway_cache_cannot_be_repoisoned_by_inflight_put(
        self, two_generations, probes
    ):
        """A request that computed against the old generation finishing
        its cache put AFTER the swap's invalidation must not leave a
        stale entry new lookups can find (epoch-stamped keys)."""
        from repro.api.middleware import CacheMiddleware

        base, nxt = two_generations
        backend = ServiceBackend.from_model(
            base.model, entity_categories=base.entity_categories
        )
        mw = CacheMiddleware(64)
        gateway = Gateway(backend, [mw])
        request = SearchRequest(query=probes[0], k=3)
        stale = gateway.search(request)  # computed against base

        # Simulate the race: the swap invalidates, THEN the in-flight
        # request's put lands (under the old epoch).
        switch = GenerationSwitch(baseline=base).attach(gateway)
        switch.swap(nxt)
        mw._cache.put((0, request.cache_key()), stale)  # late stale put

        fresh = ServiceBackend.from_model(
            nxt.model, entity_categories=nxt.entity_categories
        )
        assert gateway.search(request) == fresh.search(request)

    def test_swap_without_probes_is_unconditional(self, two_generations):
        base, nxt = two_generations
        backend = ServiceBackend.from_model(
            base.model, entity_categories=base.entity_categories
        )
        switch = GenerationSwitch(baseline=base).attach(backend)
        assert switch.swap(nxt).healthy
