"""Tests for repro.serving.sharding: planning, shard serving models,
and global collection statistics."""

import pytest

from repro.core.serving import ShoalService, build_topic_documents
from repro.serving.sharding import (
    ShardPlanner,
    build_shard_model,
    plan_shards,
)
from repro.text.bm25 import BM25, CollectionStats
from repro.text.tokenizer import Tokenizer


@pytest.fixture(scope="module")
def categories(tiny_marketplace):
    return {
        e.entity_id: e.category_id
        for e in tiny_marketplace.catalog.entities
    }


class TestPlan:
    def test_every_root_assigned_exactly_once(self, tiny_model):
        plan = plan_shards(tiny_model.taxonomy, 3)
        assigned = [
            r for a in plan.assignments for r in a.root_topic_ids
        ]
        expected = sorted(
            t.topic_id for t in tiny_model.taxonomy.root_topics()
        )
        assert sorted(assigned) == expected
        assert len(assigned) == len(set(assigned))

    def test_deterministic(self, tiny_model):
        a = plan_shards(tiny_model.taxonomy, 4)
        b = plan_shards(tiny_model.taxonomy, 4)
        assert a == b

    def test_balanced_by_entities(self, tiny_model):
        plan = plan_shards(tiny_model.taxonomy, 2)
        sizes = [a.n_entities for a in plan.assignments]
        # Greedy LPT keeps the spread within the largest root's size.
        largest_root = max(
            t.size for t in tiny_model.taxonomy.root_topics()
        )
        assert max(sizes) - min(sizes) <= largest_root

    def test_more_shards_than_roots_allowed(self, tiny_model):
        n_roots = len(tiny_model.taxonomy.root_topics())
        plan = plan_shards(tiny_model.taxonomy, n_roots + 3)
        empty = [a for a in plan.assignments if not a.root_topic_ids]
        assert len(empty) == 3

    def test_invalid_shard_count(self, tiny_model):
        with pytest.raises(ValueError, match="n_shards"):
            plan_shards(tiny_model.taxonomy, 0)


class TestShardModel:
    def test_subtrees_complete(self, tiny_model):
        plan = plan_shards(tiny_model.taxonomy, 2)
        for a in plan.assignments:
            shard = build_shard_model(tiny_model.serving(), a.root_topic_ids)
            for t in shard.taxonomy:
                # Parents and children stay within the shard.
                if t.parent_id is not None:
                    assert t.parent_id in shard.taxonomy
                for c in t.child_ids:
                    assert c in shard.taxonomy

    def test_shards_partition_topics(self, tiny_model):
        plan = plan_shards(tiny_model.taxonomy, 3)
        seen = []
        for a in plan.assignments:
            shard = build_shard_model(tiny_model.serving(), a.root_topic_ids)
            seen.extend(t.topic_id for t in shard.taxonomy)
        assert sorted(seen) == [
            t.topic_id for t in tiny_model.taxonomy.topics()
        ]

    def test_titles_restricted_but_sufficient(self, tiny_model):
        plan = plan_shards(tiny_model.taxonomy, 2)
        shard = build_shard_model(
            tiny_model.serving(), plan.assignments[0].root_topic_ids
        )
        shard_entities = {
            e for t in shard.taxonomy for e in t.entity_ids
        }
        assert set(shard.titles) <= set(tiny_model.titles)
        assert shard_entities <= set(shard.titles)

    def test_correlations_kept_global(self, tiny_model):
        plan = plan_shards(tiny_model.taxonomy, 2)
        shard = build_shard_model(
            tiny_model.serving(), plan.assignments[0].root_topic_ids
        )
        assert shard.correlations is tiny_model.correlations


class TestCollectionStats:
    def test_matches_unsharded_index(self, tiny_model):
        service = ShoalService(tiny_model.serving())
        stats = ShardPlanner(2).global_collection_stats(tiny_model)
        assert stats == service.collection_stats()

    def test_from_documents_matches_bm25(self):
        docs = [["a", "b", "a"], ["b", "c"], []]
        index = BM25(docs)
        stats = CollectionStats.from_documents(docs)
        assert stats == index.collection_stats
        assert stats.n_documents == 3
        assert stats.document_frequencies == {"a": 1, "b": 2, "c": 1}

    def test_partition_scores_identical(self, tiny_model):
        """A BM25 over a document subset + global stats scores each
        document exactly as the full index does."""
        tok = Tokenizer()
        docs, _ = build_topic_documents(
            tiny_model.taxonomy.topics(), tiny_model.titles, tok.tokenize
        )
        full = BM25(docs)
        half = BM25(
            docs[: len(docs) // 2],
            collection_stats=full.collection_stats,
        )
        query = docs[0][:3]
        for i in range(len(docs) // 2):
            assert half.score(query, i) == full.score(query, i)


class TestPartition:
    def test_category_slices_cover_shard_entities(
        self, tiny_model, categories
    ):
        shard_set = ShardPlanner(3).partition(tiny_model, categories)
        for shard in shard_set.models:
            shard_entities = {
                e for t in shard.taxonomy for e in t.entity_ids
            }
            categorised = shard_entities & set(categories)
            assert set(shard.entity_categories) == categorised

    def test_no_categories_means_none(self, tiny_model):
        shard_set = ShardPlanner(2).partition(tiny_model)
        assert [s.entity_categories for s in shard_set.models] == [None, None]
