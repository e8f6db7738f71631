"""Unit tests for ClusterRouter internals: routing, concurrent reads,
and stats accounting."""

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.correlation import CorrelationGraph
from repro.core.serving import ServingModel, ShoalService, build_topic_documents
from repro.core.taxonomy import Taxonomy, Topic
from repro.serving import ClusterRouter, ShardPlanner
from repro.serving.sharding import (
    ShardAssignment,
    ShardPlan,
    ShardSet,
    build_shard_model,
)
from repro.text.bm25 import CollectionStats
from repro.text.tokenizer import Tokenizer


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


#: A hand-built world: one root topic per entity, the entity's title
#: its whole document. Topics 1, 2, 4 and 5 hold the same document, so
#: every query on "sun" scores them equally; so do 6 and 8 for "dune".
TITLES = {
    0: "ice", 1: "sun", 2: "sun", 3: "sand ice", 4: "sun", 5: "sun",
    6: "dune", 8: "dune",
}
#: Even topic ids on shard 0, odd ones on shard 1: the "sun" ties sit
#: two on each shard, the "dune" ties both on shard 0.
SHARD_ROOTS = ((0, 2, 4, 6, 8), (1, 3, 5))


@pytest.fixture(scope="module")
def tied_world():
    """(the unsharded service, a router over the two-shard split)."""
    serving = ServingModel(
        taxonomy=Taxonomy(
            [Topic(topic_id=e, entity_ids=[e], category_ids=[e])
             for e in TITLES]
        ),
        titles=dict(TITLES),
        correlations=CorrelationGraph({}, 1),
    )
    docs, _ = build_topic_documents(
        serving.taxonomy.topics(), serving.titles, Tokenizer().tokenize
    )
    shard_set = ShardSet(
        plan=ShardPlan(
            n_shards=2,
            assignments=tuple(
                ShardAssignment(i, roots, len(roots), len(roots))
                for i, roots in enumerate(SHARD_ROOTS)
            ),
        ),
        models=[build_shard_model(serving, roots) for roots in SHARD_ROOTS],
        collection_stats=CollectionStats.from_documents(docs),
    )
    return ShoalService(serving), ClusterRouter(shard_set)


class TestMerge:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_ties_across_shards_break_toward_the_lower_topic_id(
        self, tied_world, k
    ):
        service, router = tied_world
        hits = router.search_topics("sun", k)
        assert [h.topic_id for h in hits] == [1, 2, 4, 5][:k]
        assert len({h.score for h in hits}) == 1
        assert hits == service.search_topics("sun", k)

    def test_batches_equal_the_unsharded_service(self, tied_world):
        service, router = tied_world
        queries = [
            "sun", "sun ice", "ice", "sand", "sand sun", "zzz", "sun sun",
            "dune", "dune sun",
        ]
        for k in (1, 2, 3, 6):
            assert router.search_topics_batch(queries, k) == (
                service.search_topics_batch(queries, k)
            )

    def test_a_query_one_shard_answers_keeps_its_order(self, tied_world):
        """ "dune" is indexed on shard 0 only, "sand" on shard 1 only:
        each answer is that shard's, in that shard's order."""
        service, router = tied_world
        for query, ids in (("dune", [6, 8]), ("sand", [3])):
            hits = router.search_topics(query, 3)
            assert [h.topic_id for h in hits] == ids
            assert hits == service.search_topics(query, 3)
        assert router.search_topics("dune", 1) == service.search_topics(
            "dune", 1
        )


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
