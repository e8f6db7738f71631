"""Integration tests: the full SHOAL system exercised end to end.

These tests assert the *reproduction claims* at test scale (looser
bands than the benches, which run larger corpora):

* topics group entities of the same ground-truth scenario (precision),
* the taxonomy's root partition has modularity above the paper's 0.3,
* SHOAL recommendation beats the ontology control in the A/B sim,
* the serving scenarios compose (query → topic → category → items),
* the whole thing is deterministic under a fixed seed.
"""

import pytest

from repro.baselines.ontology_rec import OntologyRecommender, OntologyRecommenderConfig
from repro.core.config import ShoalConfig
from repro.core.pipeline import ShoalPipeline
from repro.core.serving import ShoalService
from repro.eval.abtest import ABTestConfig, ABTestSimulator
from repro.eval.metrics import normalized_mutual_information
from repro.eval.precision import PrecisionConfig, SamplingPrecisionEvaluator
from repro.graph.modularity import modularity


class TestReproductionClaims:
    def test_precision_band(self, small_model, small_marketplace):
        """Paper Sec. 3: expert precision ≥ 98 %. At small scale we
        require ≥ 95 %."""
        truth = {
            e.entity_id: e.scenario_id for e in small_marketplace.catalog.entities
        }
        report = SamplingPrecisionEvaluator(
            PrecisionConfig(n_topics=1000, items_per_topic=100)
        ).evaluate(small_model.taxonomy, truth)
        assert report.precision >= 0.95

    def test_modularity_band(self, small_model):
        """Paper Sec. 2.2: Parallel HAC clusters have modularity > 0.3."""
        labels = small_model.clustering.dendrogram.root_partition()
        q = modularity(small_model.entity_graph, labels)
        assert q > 0.3

    def test_taxonomy_recovers_scenarios(self, small_model, small_marketplace):
        truth = {
            e.entity_id: e.scenario_id for e in small_marketplace.catalog.entities
        }
        pred = small_model.clustering.dendrogram.root_partition()
        assert normalized_mutual_information(pred, truth) > 0.6

    def test_ab_uplift_positive(self, small_model, small_marketplace):
        """Paper Sec. 3: SHOAL boosts CTR (+5 % in production)."""
        service = ShoalService(small_model.serving())
        control = OntologyRecommender(
            small_marketplace.ontology,
            small_marketplace.catalog,
            OntologyRecommenderConfig(slate_size=8),
        )
        sim = ABTestSimulator(
            small_marketplace, ABTestConfig(n_impressions=3000, seed=0)
        )
        report = sim.run(
            control.recommend,
            lambda uid, q: service.recommend_entities_for_query(q, 8),
        )
        assert report.treatment_ctr > report.control_ctr

    def test_descriptions_contain_scenario_vocabulary(
        self, small_model, small_marketplace
    ):
        """Topic descriptions should usually carry a word from the
        dominant ground-truth scenario of the topic — that is what
        makes them interpretable."""
        hits = 0
        total = 0
        for topic in small_model.taxonomy.root_topics():
            if not topic.descriptions:
                continue
            scenarios = [
                small_marketplace.catalog.entity(e).scenario_id
                for e in topic.entity_ids
            ]
            dominant = max(set(scenarios), key=scenarios.count)
            s_words = set(
                small_marketplace.vocabulary.scenario_words(dominant)
            )
            total += 1
            tokens = set()
            for d in topic.descriptions:
                tokens.update(d.split())
            if tokens & s_words:
                hits += 1
        assert total > 0
        assert hits / total >= 0.7


class TestServingComposition:
    def test_query_topic_category_item_chain(self, small_model, small_marketplace):
        """Fig. 5 scenarios A → C composed: search a scenario query,
        take the best topic, walk one of its categories to items."""
        service = ShoalService(
            small_model.serving(
                {
                    e.entity_id: e.category_id
                    for e in small_marketplace.catalog.entities
                }
            )
        )
        query = next(
            q for q in small_marketplace.query_log.queries
            if q.intent_kind == "scenario"
        )
        topic = service.best_topic(query.text)
        assert topic is not None
        assert topic.category_ids
        found_items = False
        for cid in topic.category_ids:
            entities = service.entities_of_topic_category(topic.topic_id, cid)
            for e in entities:
                assert small_marketplace.catalog.entity(e).category_id == cid
                found_items = True
        assert found_items

    def test_subtopic_navigation(self, small_model):
        """Fig. 5 scenario B: some root topic has navigable children."""
        service = ShoalService(small_model.serving())
        with_children = [
            t for t in small_model.taxonomy.root_topics() if t.child_ids
        ]
        if not with_children:
            pytest.skip("taxonomy is flat at this scale")
        subs = service.subtopics(with_children[0].topic_id)
        assert subs
        for sub in subs:
            assert set(sub.entity_ids) <= set(with_children[0].entity_ids)

    def test_correlation_pairs_share_scenarios(
        self, small_model, small_marketplace
    ):
        """Fig. 5 scenario D: correlated categories should co-occur in
        some ground-truth scenario far more often than chance."""
        pairs = small_model.correlations.pairs()
        if not pairs:
            pytest.skip("no correlations at this scale")
        truth_pairs = set()
        for s in small_marketplace.scenarios:
            cats = sorted(s.category_ids)
            for i in range(len(cats)):
                for j in range(i + 1, len(cats)):
                    truth_pairs.add((cats[i], cats[j]))
        agree = sum(1 for a, b, _ in pairs if (a, b) in truth_pairs)
        assert agree / len(pairs) > 0.5


class TestDeterminism:
    def test_full_pipeline_reproducible(self, tiny_marketplace):
        a = ShoalPipeline(ShoalConfig()).fit(tiny_marketplace)
        b = ShoalPipeline(ShoalConfig()).fit(tiny_marketplace)
        assert a.entity_graph.edge_list() == b.entity_graph.edge_list()
        assert [
            (m.child_a, m.child_b, m.round_index)
            for m in a.clustering.dendrogram.merges
        ] == [
            (m.child_a, m.child_b, m.round_index)
            for m in b.clustering.dendrogram.merges
        ]
        for ta, tb in zip(a.taxonomy, b.taxonomy):
            assert ta.topic_id == tb.topic_id
            assert ta.descriptions == tb.descriptions
