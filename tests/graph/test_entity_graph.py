"""Tests for repro.graph.entity_graph (Eq. 1–3 and sparsification)."""

import numpy as np
import pytest

from repro.graph.bipartite import QueryItemGraph
from repro.graph.entity_graph import EntityGraphConfig, build_entity_graph
from repro.text.word2vec import Word2Vec, Word2VecConfig


@pytest.fixture(scope="module")
def embeddings():
    rng = np.random.default_rng(0)
    beach = ["sun", "sand", "swim", "tan", "wave"]
    snow = ["ice", "ski", "cold", "sled", "snow"]
    docs = []
    for _ in range(300):
        pool = beach if rng.random() < 0.5 else snow
        docs.append([pool[int(i)] for i in rng.integers(0, len(pool), size=5)])
    return Word2Vec(Word2VecConfig(dim=12, epochs=15, seed=0)).fit(docs)


def pair_weight(embeddings, alpha, queries_u, queries_v, title_u, title_v):
    """The weight ``build`` gives the edge between two entities with
    these query sets and titles (None when it builds no edge)."""
    bipartite = QueryItemGraph()
    for q in queries_u:
        bipartite.add_click(q, 0)
    for q in queries_v:
        bipartite.add_click(q, 1)
    graph = build_entity_graph(
        bipartite, embeddings, {0: title_u, 1: title_v},
        EntityGraphConfig(alpha=alpha, min_similarity=0.0),
    )
    return graph.weight(0, 1) if graph.has_edge(0, 1) else None


class TestQuerySimilarity:
    def test_jaccard_eq1(self, embeddings):
        sq = pair_weight(embeddings, 1.0, {1, 2, 3}, {2, 3, 4}, "sun", "ice")
        assert sq == pytest.approx(2 / 4)

    def test_no_overlap(self, embeddings):
        assert pair_weight(embeddings, 1.0, {1}, {2}, "sun", "sun") is None


class TestCombinedSimilarity:
    def test_alpha_mixing_eq3(self, embeddings):
        # Unknown words: no content info → Sc = 0.5
        s = pair_weight(embeddings, 0.7, {1, 2}, {2, 3}, "zzz", "qqq")
        assert s == pytest.approx(0.7 * (1 / 3) + 0.3 * 0.5)

    def test_alpha_one_is_pure_query(self, embeddings):
        assert pair_weight(embeddings, 1.0, {1}, {1}, "sun", "ice") == pytest.approx(1.0)

    def test_alpha_zero_is_pure_content(self, embeddings):
        # One word each, the same one: the mean vectors are one unit vector.
        s = pair_weight(embeddings, 0.0, {1, 2}, {2, 3}, "sun", "sun")
        assert s == pytest.approx(1.0)


def _two_cluster_bipartite():
    """Queries 0-2 hit entities 0-2; queries 10-12 hit entities 10-12."""
    g = QueryItemGraph()
    for q in range(3):
        for e in range(3):
            g.add_click(q, e)
    for q in range(10, 13):
        for e in range(10, 13):
            g.add_click(q, e)
    return g


class TestBuild:
    def test_two_clusters_disconnected(self, embeddings):
        bipartite = _two_cluster_bipartite()
        titles = {e: "sun sand swim" for e in range(3)}
        titles.update({e: "ice ski cold" for e in range(10, 13)})
        graph = build_entity_graph(
            bipartite, embeddings, titles,
            EntityGraphConfig(min_similarity=0.3),
        )
        # Within clusters: all pairs share all queries → edges exist.
        assert graph.has_edge(0, 1)
        assert graph.has_edge(10, 12)
        # Across clusters: no shared queries → no candidate pair at all.
        assert not graph.has_edge(0, 10)

    def test_threshold_prunes(self, embeddings):
        bipartite = QueryItemGraph()
        # Entities 0 and 1 share 1 of many queries → low Jaccard.
        for q in range(10):
            bipartite.add_click(q, 0)
        bipartite.add_click(9, 1)
        titles = {0: "sun sand", 1: "ice ski"}
        high = build_entity_graph(
            bipartite, embeddings, titles, EntityGraphConfig(min_similarity=0.9)
        )
        low = build_entity_graph(
            bipartite, embeddings, titles, EntityGraphConfig(min_similarity=0.01)
        )
        assert not high.has_edge(0, 1)
        assert low.has_edge(0, 1)

    def test_max_neighbors_caps_degree(self, embeddings):
        bipartite = QueryItemGraph()
        # A hub query clicked with 30 entities → complete graph without cap.
        for e in range(30):
            bipartite.add_click(0, e)
        titles = {e: "sun sand swim" for e in range(30)}
        graph = build_entity_graph(
            bipartite, embeddings, titles,
            EntityGraphConfig(min_similarity=0.0, max_neighbors=3),
        )
        # Union top-k rule: each kept edge is in some vertex's top-3,
        # so the edge count is capped at n*k, far below the complete
        # graph's 435 edges.
        assert graph.n_edges <= 30 * 3

    def test_isolated_entities_kept_as_vertices(self, embeddings):
        bipartite = QueryItemGraph()
        bipartite.add_click(0, 0)
        bipartite.add_click(1, 1)  # no shared queries
        titles = {0: "sun", 1: "ice"}
        graph = build_entity_graph(bipartite, embeddings, titles)
        assert graph.n_vertices == 2
        assert graph.n_edges == 0

    def test_no_entities_gives_the_empty_graph(self, embeddings):
        graph = build_entity_graph(QueryItemGraph(), embeddings, {})
        assert graph.n_vertices == 0
        assert graph.n_edges == 0

    def test_no_titled_pair_scores_the_neutral_half(self, embeddings):
        """No title has a known word: no pair reaches the dot, Sc is the
        neutral 1/2 and Eq. 3 is α·Sq + (1-α)/2."""
        bipartite = QueryItemGraph()
        for e in range(3):
            bipartite.add_click(0, e)
        titles = {0: "", 1: "zzz"}  # entity 2 has no title at all
        low = build_entity_graph(
            bipartite, embeddings, titles, EntityGraphConfig(min_similarity=0.0)
        )
        assert low.edge_list() == [(u, v, 0.7 * 1.0 + (1.0 - 0.7) * 0.5)
                                   for u, v in [(0, 1), (0, 2), (1, 2)]]
        high = build_entity_graph(
            bipartite, embeddings, titles, EntityGraphConfig(min_similarity=0.9)
        )
        assert high.vertices() == [0, 1, 2]
        assert high.n_edges == 0

    def test_min_shared_queries_prefilter(self, embeddings):
        bipartite = QueryItemGraph()
        bipartite.add_click(0, 0)
        bipartite.add_click(0, 1)  # exactly one shared query
        titles = {0: "sun sand", 1: "sun sand"}
        cfg = EntityGraphConfig(min_similarity=0.0, min_shared_queries=2)
        graph = build_entity_graph(bipartite, embeddings, titles, cfg)
        assert not graph.has_edge(0, 1)

    def test_weights_in_unit_interval(self, embeddings, tiny_marketplace):
        from repro.graph.bipartite import build_query_item_graph

        bipartite = build_query_item_graph(tiny_marketplace.query_log)
        titles = {e.entity_id: e.title for e in tiny_marketplace.catalog.entities}
        graph = build_entity_graph(bipartite, embeddings, titles)
        for _, _, w in graph.edges():
            assert 0.0 <= w <= 1.0


class TestConfigValidation:
    def test_alpha_bounds(self):
        with pytest.raises(ValueError):
            EntityGraphConfig(alpha=1.5)

    def test_max_neighbors_positive(self):
        with pytest.raises(ValueError):
            EntityGraphConfig(max_neighbors=0)
