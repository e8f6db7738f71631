"""Tests for repro.core.serving (the four Fig. 5 demo scenarios)."""

import pytest

from repro.core.serving import ShoalService


@pytest.fixture(scope="module")
def service(tiny_model, tiny_marketplace):
    return ShoalService(
        tiny_model.serving(
            {
                e.entity_id: e.category_id
                for e in tiny_marketplace.catalog.entities
            }
        )
    )


class TestScenarioA_QueryToTopic:
    def test_scenario_query_finds_matching_topic(self, service, tiny_marketplace):
        """A scenario query should retrieve a topic dominated by that
        scenario's entities."""
        query = next(
            q for q in tiny_marketplace.query_log.queries
            if q.intent_kind == "scenario"
        )
        hits = service.search_topics(query.text, k=3)
        assert hits, f"no topics for {query.text!r}"
        top = service.taxonomy.topic(hits[0].topic_id)
        scenarios = [
            tiny_marketplace.catalog.entity(e).scenario_id for e in top.entity_ids
        ]
        dominant = max(set(scenarios), key=scenarios.count)
        assert dominant == query.intent_id

    def test_hits_sorted_by_score(self, service):
        hits = service.search_topics("anything matches nothing", k=5)
        scores = [h.score for h in hits]
        assert scores == sorted(scores, reverse=True)

    def test_empty_query(self, service):
        assert service.search_topics("", k=3) == []

    def test_best_topic_none_for_garbage(self, service):
        assert service.best_topic("zzzz qqqq xxxx") is None

    def test_hit_metadata(self, service, tiny_marketplace):
        query = next(
            q for q in tiny_marketplace.query_log.queries
            if q.intent_kind == "scenario"
        )
        hit = service.search_topics(query.text, k=1)[0]
        t = service.taxonomy.topic(hit.topic_id)
        assert hit.n_entities == t.size
        assert hit.n_categories == len(t.category_ids)
        assert hit.label == t.label()


class TestScenarioB_TopicToSubtopic:
    def test_subtopics_are_children(self, service):
        for topic in service.taxonomy.topics():
            for sub in service.subtopics(topic.topic_id):
                assert sub.parent_id == topic.topic_id

    def test_topic_path_ends_at_root(self, service):
        deepest = max(service.taxonomy.topics(), key=lambda t: t.level)
        path = service.topic_path(deepest.topic_id)
        assert path[0].topic_id == deepest.topic_id
        assert path[-1].parent_id is None
        assert len(path) == deepest.level + 1


class TestScenarioC_TopicToCategoryToItem:
    def test_categories_of_topic(self, service):
        root = service.taxonomy.root_topics()[0]
        assert service.categories_of_topic(root.topic_id) == root.category_ids

    def test_entities_filtered_by_category(self, service, tiny_marketplace):
        root = next(
            t for t in service.taxonomy.root_topics() if len(t.category_ids) >= 2
        )
        cid = root.category_ids[0]
        entities = service.entities_of_topic_category(root.topic_id, cid)
        for e in entities:
            assert tiny_marketplace.catalog.entity(e).category_id == cid
        assert set(entities) <= set(root.entity_ids)

    def test_unrelated_category_empty(self, service):
        root = service.taxonomy.root_topics()[0]
        assert service.entities_of_topic_category(root.topic_id, 999999) == []


class TestScenarioD_CategoryToCategory:
    def test_related_categories_strength_sorted(self, small_model):
        svc = ShoalService(small_model.serving())
        graph = small_model.correlations
        cats = graph.categories()
        if not cats:
            pytest.skip("no correlations on this corpus")
        hits = svc.related_categories(cats[0])
        strengths = [h.strength for h in hits]
        assert strengths == sorted(strengths, reverse=True)
        assert all(h.strength >= graph.min_strength for h in hits)


class TestRelatedTopics:
    def test_excludes_self_and_lineage(self, service):
        for topic in service.taxonomy.root_topics()[:5]:
            lineage = {topic.topic_id}
            stack = list(topic.child_ids)
            while stack:
                node = stack.pop()
                lineage.add(node)
                stack.extend(service.taxonomy.topic(node).child_ids)
            related = service.related_topics(topic.topic_id, k=10)
            for other, _ in related:
                assert other.topic_id not in lineage

    def test_scores_sorted_descending(self, service):
        root = service.taxonomy.root_topics()[0]
        related = service.related_topics(root.topic_id, k=10)
        scores = [s for _, s in related]
        assert scores == sorted(scores, reverse=True)
        assert all(0.0 < s <= 1.0 for s in scores)

    def test_k_respected(self, service):
        root = service.taxonomy.root_topics()[0]
        assert len(service.related_topics(root.topic_id, k=2)) <= 2

    def test_same_scenario_topics_related(self, service, tiny_marketplace):
        """Two root topics dominated by the same ground-truth scenario
        should find each other when both exist."""
        catalog = tiny_marketplace.catalog
        by_scenario = {}
        for t in service.taxonomy.root_topics():
            scenarios = [catalog.entity(e).scenario_id for e in t.entity_ids]
            dom = max(set(scenarios), key=scenarios.count)
            by_scenario.setdefault(dom, []).append(t)
        pairs = [ts for ts in by_scenario.values() if len(ts) >= 2]
        if not pairs:
            pytest.skip("every scenario maps to one topic in this world")
        a, b = pairs[0][0], pairs[0][1]
        related_ids = {t.topic_id for t, _ in service.related_topics(a.topic_id, k=20)}
        assert b.topic_id in related_ids


class TestRecommendation:
    def test_recommend_entities_within_topic(self, service, tiny_model):
        query_texts = list(tiny_model.query_texts.values())
        slate = service.recommend_entities_for_query(query_texts[0], k=5)
        if slate:
            topic = service.best_topic(query_texts[0])
            assert set(slate) <= set(topic.entity_ids)
            assert len(slate) <= 5

    def test_recommend_nothing_for_garbage(self, service):
        assert service.recommend_entities_for_query("zz qq", k=5) == []
