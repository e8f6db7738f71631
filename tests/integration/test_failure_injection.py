"""Failure injection: degenerate and adversarial inputs.

A library a downstream team adopts must not fall over on the inputs
production actually produces: empty windows, all-noise traffic,
missing titles, hub queries, duplicate catalogs. Each test builds the
pathological world and asserts the pipeline degrades *gracefully* —
empty-but-valid outputs, never exceptions.
"""

import dataclasses


from repro.core.config import ShoalConfig
from repro.core.pipeline import ShoalPipeline
from repro.core.serving import ShoalService
from repro.data.marketplace import PROFILES, generate_marketplace
from repro.data.queries import Query, QueryEvent, QueryLog, QueryLogConfig
from repro.eval.precision import PrecisionConfig, SamplingPrecisionEvaluator


def _fit_raw(log, titles, query_texts=None, **kw):
    query_texts = query_texts or {q.query_id: q.text for q in log.queries}
    return ShoalPipeline(ShoalConfig()).fit_raw(log, titles, query_texts, **kw)


class TestEmptyInputs:
    def test_empty_log(self):
        model = _fit_raw(QueryLog([], []), {0: "some title"})
        assert len(model.taxonomy) == 0
        assert model.correlations.n_correlations == 0
        # Serving still answers (with nothing).
        service = ShoalService(model.serving())
        assert service.search_topics("anything") == []

    def test_window_outside_log(self, tiny_marketplace):
        titles = {e.entity_id: e.title for e in tiny_marketplace.catalog.entities}
        texts = {q.query_id: q.text for q in tiny_marketplace.query_log.queries}
        model = ShoalPipeline(ShoalConfig()).fit_raw(
            tiny_marketplace.query_log, titles, texts,
            first_day=100, last_day=107,
        )
        assert model.bipartite.n_edges == 0
        assert len(model.taxonomy) == 0

    def test_single_event_log(self):
        log = QueryLog(
            [Query(0, "red shoe", "category", 1)],
            [QueryEvent(0, 0, 0, 0, (0,))],
        )
        model = _fit_raw(log, {0: "red shoe classic"})
        # One entity: no pairs, no topics — but no crash.
        assert model.entity_graph.n_vertices == 1
        assert len(model.taxonomy) == 0


class TestMissingData:
    def test_missing_titles_tolerated(self, tiny_marketplace):
        """Entities without titles fall back to neutral content
        similarity; the pipeline must still produce a taxonomy."""
        titles = {
            e.entity_id: e.title
            for e in tiny_marketplace.catalog.entities
            if e.entity_id % 3 != 0  # drop a third of the titles
        }
        texts = {q.query_id: q.text for q in tiny_marketplace.query_log.queries}
        model = ShoalPipeline(ShoalConfig()).fit_raw(
            tiny_marketplace.query_log, titles, texts
        )
        assert len(model.taxonomy) > 0

    def test_missing_query_texts_tolerated(self, tiny_marketplace):
        titles = {e.entity_id: e.title for e in tiny_marketplace.catalog.entities}
        texts = {
            q.query_id: q.text
            for q in tiny_marketplace.query_log.queries
            if q.query_id % 2 == 0
        }
        model = ShoalPipeline(ShoalConfig()).fit_raw(
            tiny_marketplace.query_log, titles, texts
        )
        # Descriptions only draw from known texts.
        known = set(texts.values())
        for t in model.taxonomy:
            for d in t.descriptions:
                assert d in known


class TestAdversarialTraffic:
    def test_all_noise_clicks_low_but_valid(self):
        """Pure-noise traffic: no scenario signal at all. Topics may
        form from random coincidence, but precision scoring and the
        pipeline itself must hold up."""
        cfg = dataclasses.replace(
            PROFILES["tiny"],
            query_log=QueryLogConfig(
                n_days=3, events_per_day=300, noise_click_rate=1.0
            ),
        )
        market = generate_marketplace(cfg)
        model = ShoalPipeline(ShoalConfig()).fit(market)
        truth = {e.entity_id: e.scenario_id for e in market.catalog.entities}
        report = SamplingPrecisionEvaluator(
            PrecisionConfig(n_topics=100, items_per_topic=100)
        ).evaluate(model.taxonomy, truth)
        assert 0.0 <= report.precision <= 1.0

    def test_hub_query_bounded_by_lsh(self, tiny_marketplace):
        """A query clicked with *every* entity makes exact candidate
        enumeration quadratic; the LSH mode bounds it without error."""
        log = tiny_marketplace.query_log
        hub = Query(10_000, "everything sale", "category", 0)
        all_entities = tuple(
            e.entity_id for e in tiny_marketplace.catalog.entities
        )
        events = list(log.events)
        events.append(QueryEvent(10_000_000, 0, 0, hub.query_id, all_entities))
        hub_log = QueryLog(log.queries + [hub], events)

        titles = {e.entity_id: e.title for e in tiny_marketplace.catalog.entities}
        texts = {q.query_id: q.text for q in hub_log.queries}
        cfg = dataclasses.replace(
            ShoalConfig(),
            entity_graph=dataclasses.replace(
                ShoalConfig().entity_graph, candidate_source="lsh"
            ),
        )
        model = ShoalPipeline(cfg).fit_raw(hub_log, titles, texts)
        assert len(model.taxonomy) > 0

    def test_duplicate_titles_everywhere(self):
        """A catalog where every title is identical: content similarity
        is uniform, so structure must come from queries alone."""
        queries = [Query(i, f"q{i}", "category", i) for i in range(4)]
        events = []
        eid = 0
        # Queries 0,1 click entities 0-2; queries 2,3 click entities 3-5.
        for day in range(3):
            for q in (0, 1):
                events.append(QueryEvent(eid, day, 0, q, (0, 1, 2))); eid += 1
            for q in (2, 3):
                events.append(QueryEvent(eid, day, 0, q, (3, 4, 5))); eid += 1
        log = QueryLog(queries, events)
        titles = {e: "same title words" for e in range(6)}
        model = _fit_raw(log, titles)
        labels = model.clustering.dendrogram.root_partition()
        # The two query-communities must not merge.
        assert labels[0] == labels[1] == labels[2]
        assert labels[3] == labels[4] == labels[5]
        assert labels[0] != labels[3]


class TestConfigEdgeCases:
    def test_threshold_one_no_merges(self, tiny_marketplace):
        model = ShoalPipeline(
            ShoalConfig().with_similarity_threshold(1.0)
        ).fit(tiny_marketplace)
        # Similarities are < 1.0 in practice; nothing merges.
        assert model.clustering.total_merges == 0

    def test_min_topic_size_huge(self, tiny_marketplace):
        cfg = dataclasses.replace(ShoalConfig(), min_topic_size=10_000)
        model = ShoalPipeline(cfg).fit(tiny_marketplace)
        assert len(model.taxonomy) == 0

    def test_one_day_window(self, tiny_marketplace):
        model = ShoalPipeline(
            dataclasses.replace(ShoalConfig(), window_days=1)
        ).fit(tiny_marketplace)
        assert len(model.taxonomy) >= 0  # valid model from one day
