"""Tests for repro.graph.bipartite (query–item graph)."""

import pytest

from repro.data.queries import Query, QueryEvent, QueryLog
from repro.graph.bipartite import QueryItemGraph, build_query_item_graph


@pytest.fixture
def graph() -> QueryItemGraph:
    g = QueryItemGraph()
    g.add_click(0, 10, 3)
    g.add_click(0, 11, 1)
    g.add_click(1, 10, 2)
    g.add_click(2, 12, 1)
    return g


class TestStructure:
    def test_counts(self, graph):
        assert graph.n_queries == 3
        assert graph.n_entities == 3
        assert graph.n_edges == 4
        assert graph.total_clicks == 7

    def test_click_accumulation(self, graph):
        graph.add_click(0, 10, 2)
        assert graph.clicks(0, 10) == 5

    def test_invalid_count_rejected(self, graph):
        with pytest.raises(ValueError):
            graph.add_click(0, 10, 0)

    def test_has_edge(self, graph):
        assert graph.has_edge(0, 10)
        assert not graph.has_edge(2, 10)

    def test_ids_sorted(self, graph):
        assert graph.query_ids() == [0, 1, 2]
        assert graph.entity_ids() == [10, 11, 12]


class TestViews:
    def test_query_sets(self, graph):
        assert graph.queries_of_entity(10) == frozenset({0, 1})
        assert graph.entities_of_query(0) == frozenset({10, 11})

    def test_query_sets_missing_entity(self, graph):
        assert graph.queries_of_entity(999) == frozenset()

    def test_entity_query_sets_bulk(self, graph):
        sets = graph.entity_query_sets()
        assert sets[10] == frozenset({0, 1})
        assert sets[12] == frozenset({2})

    def test_click_maps(self, graph):
        assert graph.query_clicks_of_entity(10) == {0: 3, 1: 2}
        assert graph.entity_clicks_of_query(0) == {10: 3, 11: 1}

    def test_co_click_counts(self, graph):
        us, vs, shared = graph.co_click_counts()
        assert (us.tolist(), vs.tolist(), shared.tolist()) == ([10], [11], [1])

    def test_co_click_counts_multiplicity_is_shared_queries(self):
        g = QueryItemGraph()
        for q, entities in {0: (7, 3, 5), 1: (5, 3), 2: (9,), 3: (3, 5)}.items():
            for e in entities:
                g.add_click(q, e)
        us, vs, shared = g.co_click_counts()
        assert list(zip(us.tolist(), vs.tolist(), shared.tolist())) == [
            (3, 5, 3), (3, 7, 1), (5, 7, 1),
        ]

    def test_co_click_counts_empty(self):
        assert [len(a) for a in QueryItemGraph().co_click_counts()] == [0, 0, 0]

    def test_edges_iteration(self, graph):
        edges = list(graph.edges())
        assert (0, 10, 3) in edges
        assert len(edges) == 4


class TestBuildFromLog:
    @pytest.fixture
    def log(self):
        queries = [Query(0, "beach dress", "scenario", 0),
                   Query(1, "jeans", "category", 5)]
        events = [
            QueryEvent(0, 0, 0, 0, (10, 11)),
            QueryEvent(1, 1, 1, 0, (10,)),
            QueryEvent(2, 2, 0, 1, (12,)),
        ]
        return QueryLog(queries, events)

    def test_full_window(self, log):
        g = build_query_item_graph(log)
        assert g.clicks(0, 10) == 2
        assert g.clicks(1, 12) == 1

    def test_day_window(self, log):
        g = build_query_item_graph(log, first_day=1, last_day=2)
        assert g.clicks(0, 10) == 1
        assert g.clicks(0, 11) == 0

    def test_min_clicks_filter(self, log):
        g = build_query_item_graph(log, min_clicks=2)
        assert g.has_edge(0, 10)
        assert not g.has_edge(0, 11)

    def test_empty_log(self):
        g = build_query_item_graph(QueryLog([], []))
        assert g.n_edges == 0

    def test_marketplace_log_consistency(self, tiny_marketplace):
        """Aggregate counts must match the raw log."""
        g = build_query_item_graph(tiny_marketplace.query_log)
        raw = sum(
            len(e.clicked_entity_ids) for e in tiny_marketplace.query_log.events
        )
        assert g.total_clicks == raw
