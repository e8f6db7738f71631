"""Unit tests for ClusterRouter internals: routing, concurrent reads,
and stats accounting."""

from concurrent.futures import ThreadPoolExecutor

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


@pytest.mark.slow
class TestConcurrency:
    def test_concurrent_identical_requests_single_router(
        self, router, tiny_marketplace
    ):
        """Many threads asking the same things agree with each other."""
        queries = [q.text for q in tiny_marketplace.query_log.queries][:30]
        expected = [router.search_topics(q, 5) for q in queries]

        def check(_):
            return [router.search_topics(q, 5) for q in queries]

        with ThreadPoolExecutor(max_workers=6) as pool:
            for result in pool.map(check, range(12)):
                assert result == expected


class TestStatsSurface:
    def test_cluster_stats_shape(self, router):
        router.search_topics("anything")
        stats = router.cluster_stats()
        assert stats.n_shards == 2
        assert stats.latency.count == 1
        assert "cluster" in stats.summary()
