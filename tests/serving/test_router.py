"""Unit tests for ClusterRouter internals: routing, selective refresh,
and stats accounting."""

import pytest

from repro.core.serving import ShoalService
from repro.serving import ClusterRouter, ShardPlanner


@pytest.fixture(scope="module")
def categories(tiny_marketplace):
    return {
        e.entity_id: e.category_id
        for e in tiny_marketplace.catalog.entities
    }


@pytest.fixture()
def router(tiny_model, categories):
    return ClusterRouter.from_model(
        tiny_model, 2, entity_categories=categories
    )


class TestRouting:
    def test_token_skip_leaves_other_shard_unprobed(
        self, tiny_model, categories
    ):
        shard_set = ShardPlanner(2).partition(tiny_model, categories)
        router = ClusterRouter(shard_set)
        tokens0, tokens1 = (
            ShoalService(
                m, collection_stats=shard_set.collection_stats
            ).posting_tokens()
            for m in shard_set.models
        )
        # A token unique to shard 0's postings.
        only_zero = next(iter(tokens0 - tokens1))
        router.search_topics(only_zero, 3)
        busy0, busy1 = router.shard_busy_seconds()
        assert busy0 > 0.0
        assert busy1 == 0.0  # shard 1 was never probed

    def test_unknown_tokens_probe_no_shard(self, router):
        assert router.search_topics("zzz-not-a-token-zzz") == []
        assert router.shard_busy_seconds() == [0.0, 0.0]

    def test_empty_query(self, router):
        assert router.search_topics("") == []
        assert router.search_topics("   ,,, !!") == []

    def test_topic_lookup_routed(self, tiny_model, router):
        for t in tiny_model.taxonomy.topics():
            assert router.topic(t.topic_id).topic_id == t.topic_id

    def test_unknown_topic_raises(self, router):
        with pytest.raises(KeyError):
            router.topic(10**9)


class TestConstruction:
    def test_validates_shard_count(self, tiny_model):
        with pytest.raises(ValueError, match="n_shards"):
            ClusterRouter.from_model(tiny_model, 0)


class TestRefresh:
    def test_identity_refresh_rebuilds_nothing(
        self, router, tiny_model, tiny_marketplace, categories
    ):
        q = tiny_marketplace.query_log.queries[0].text
        router.search_topics(q)
        busy_before = router.shard_busy_seconds()
        assert router.refresh(tiny_model, categories) == []
        # The shards carried over, busy-time accumulators and all.
        assert router.shard_busy_seconds() == busy_before

    def test_changed_model_rebuilds_every_shard(
        self, router, tiny_model, categories
    ):
        import copy

        mutated = copy.deepcopy(tiny_model)
        t = mutated.taxonomy.root_topics()[0]
        t.descriptions = ["brand new trend"] + t.descriptions
        rebuilt = router.refresh(mutated, categories)
        assert rebuilt == list(range(router.n_shards))

    def test_refresh_swaps_answers(
        self, router, tiny_model, tiny_marketplace, categories
    ):
        import copy

        mutated = copy.deepcopy(tiny_model)
        t = mutated.taxonomy.root_topics()[0]
        t.descriptions = ["brand new trend"] + t.descriptions
        router.refresh(mutated, categories)
        fresh = ShoalService(mutated, entity_categories=categories)
        for q in tiny_marketplace.query_log.queries[:25]:
            assert router.search_topics(q.text, 5) == (
                fresh.search_topics(q.text, 5)
            )


class TestStatsSurface:
    def test_cluster_stats_shape(self, router):
        router.search_topics("anything")
        stats = router.cluster_stats()
        assert stats.n_shards == 2
        assert stats.latency.count == 1
        assert "cluster" in stats.summary()
