"""Tests for the ranking metrics (DCG/NDCG, precision@k)."""

import math

import pytest

from repro.eval.metrics import dcg_at_k, ndcg_at_k, precision_at_k


class TestDCG:
    def test_single_result(self):
        assert dcg_at_k([1.0], 1) == pytest.approx(1.0)

    def test_log_discount(self):
        # positions 0,1,2 discount by log2(2), log2(3), log2(4)
        expected = 1.0 + 1.0 / math.log2(3) + 1.0 / math.log2(4)
        assert dcg_at_k([1, 1, 1], 3) == pytest.approx(expected)

    def test_truncation_at_k(self):
        assert dcg_at_k([1, 1, 1], 1) == pytest.approx(1.0)

    def test_graded_relevance(self):
        assert dcg_at_k([3, 0], 2) == pytest.approx(3.0)

    def test_empty(self):
        assert dcg_at_k([], 5) == 0.0

    def test_k_zero(self):
        assert dcg_at_k([1, 2], 0) == 0.0

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError):
            dcg_at_k([1], -1)


class TestNDCG:
    def test_ideal_order_is_one(self):
        assert ndcg_at_k([3, 2, 1], 3) == pytest.approx(1.0)

    def test_reversed_order_below_one(self):
        v = ndcg_at_k([1, 2, 3], 3)
        assert 0.0 < v < 1.0

    def test_no_relevance_zero(self):
        assert ndcg_at_k([0, 0, 0], 3) == 0.0

    def test_bounded(self):
        for rels in ([1, 0, 1], [0, 3, 0, 1], [2]):
            assert 0.0 <= ndcg_at_k(rels, len(rels)) <= 1.0

    def test_relevant_first_beats_relevant_last(self):
        assert ndcg_at_k([1, 0, 0], 3) > ndcg_at_k([0, 0, 1], 3)


class TestPrecisionAtK:
    def test_all_relevant(self):
        assert precision_at_k([1, 1, 1], 3) == 1.0

    def test_partial(self):
        assert precision_at_k([1, 0, 1, 0], 4) == 0.5

    def test_short_list_counts_as_misses(self):
        assert precision_at_k([1], 4) == 0.25

    def test_k_validated(self):
        with pytest.raises(ValueError):
            precision_at_k([1], 0)


class TestRetrievalOnModel:
    def test_scenario_queries_retrieve_relevant_topics(
        self, tiny_model, tiny_marketplace
    ):
        """Demo scenario A scored with NDCG: for a scenario query, a
        returned topic is relevant when its dominant ground-truth
        scenario matches the query intent."""
        from repro.core.serving import ShoalService
        from repro.eval.metrics import ndcg_at_k

        service = ShoalService(tiny_model.serving())
        catalog = tiny_marketplace.catalog

        def dominant(topic_id):
            topic = tiny_model.taxonomy.topic(topic_id)
            scenarios = [
                catalog.entity(e).scenario_id for e in topic.entity_ids
            ]
            return max(set(scenarios), key=scenarios.count)

        scores = []
        for q in tiny_marketplace.query_log.queries:
            if q.intent_kind != "scenario":
                continue
            hits = service.search_topics(q.text, k=5)
            if not hits:
                continue
            rels = [1.0 if dominant(h.topic_id) == q.intent_id else 0.0
                    for h in hits]
            scores.append(ndcg_at_k(rels, 5))
        assert scores
        assert sum(scores) / len(scores) > 0.6
