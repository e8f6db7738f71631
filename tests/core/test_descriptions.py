"""Tests for repro.core.descriptions (Sec. 2.3 representativeness)."""

import math

import pytest

from repro.core.descriptions import DescriptionConfig, QueryScore, TopicDescriber
from repro.core.taxonomy import Taxonomy, Topic
from repro.graph.bipartite import QueryItemGraph
from repro.text.bm25 import BM25


def make_world():
    """Two topics with disjoint vocab; queries concentrated per topic."""
    beach = Topic(100, entity_ids=[0, 1], category_ids=[])
    ski = Topic(101, entity_ids=[2, 3], category_ids=[])
    taxonomy = Taxonomy([beach, ski])
    titles = {
        0: "sun sand swim",
        1: "sun sand towel",
        2: "snow ski boots",
        3: "snow ski jacket",
    }
    query_texts = {
        0: "sun sand",      # beach query
        1: "snow ski",      # ski query
        2: "gift",          # matches nothing
    }
    bipartite = QueryItemGraph()
    for _ in range(5):
        bipartite.add_click(0, 0)
        bipartite.add_click(0, 1)
    for _ in range(5):
        bipartite.add_click(1, 2)
        bipartite.add_click(1, 3)
    bipartite.add_click(2, 0)  # stray click
    bipartite.add_click(2, 2)
    return taxonomy, bipartite, titles, query_texts


class TestDescribe:
    def test_top_description_is_concentrated_query(self):
        taxonomy, bipartite, titles, query_texts = make_world()
        describer = TopicDescriber(config=DescriptionConfig(top_k=1))
        describer.describe(taxonomy, bipartite, titles, query_texts)
        assert taxonomy.topic(100).descriptions == ["sun sand"]
        assert taxonomy.topic(101).descriptions == ["snow ski"]

    def test_scores_returned_for_all_candidates(self):
        taxonomy, bipartite, titles, query_texts = make_world()
        scores = TopicDescriber().describe(taxonomy, bipartite, titles, query_texts)
        beach_q = {s.query_id for s in scores[100]}
        assert beach_q == {0, 2}  # queries that clicked its entities

    def test_representativeness_is_geometric_mean(self):
        s = QueryScore(0, "q", popularity=0.64, concentration=0.25)
        assert s.representativeness == pytest.approx(math.sqrt(0.64 * 0.25))

    def test_zero_factors_zero_score(self):
        assert QueryScore(0, "q", 0.0, 0.9).representativeness == 0.0

    def test_top_k_respected(self):
        taxonomy, bipartite, titles, query_texts = make_world()
        TopicDescriber(config=DescriptionConfig(top_k=2)).describe(
            taxonomy, bipartite, titles, query_texts
        )
        assert len(taxonomy.topic(100).descriptions) <= 2

    def test_empty_taxonomy(self):
        out = TopicDescriber().describe(
            Taxonomy([]), QueryItemGraph(), {}, {}
        )
        assert out == {}

    def test_unknown_query_text_skipped(self):
        taxonomy, bipartite, titles, query_texts = make_world()
        del query_texts[2]
        scores = TopicDescriber().describe(taxonomy, bipartite, titles, query_texts)
        assert {s.query_id for s in scores[100]} == {0}


class TestPopularity:
    def test_formula(self):
        d = TopicDescriber()
        # pop = (log tf + 1) / log total
        assert d.popularity(10, 100) == pytest.approx(
            (math.log(10) + 1) / math.log(100)
        )

    def test_zero_tf(self):
        assert TopicDescriber().popularity(0, 100) == 0.0

    def test_degenerate_topic(self):
        assert TopicDescriber().popularity(5, 0) == 0.0

    def test_monotone_in_tf(self):
        d = TopicDescriber()
        assert d.popularity(20, 100) > d.popularity(5, 100)


class TestConcentration:
    def test_concentrated_query_wins(self):
        d = TopicDescriber()
        bm25 = BM25([["sun", "sand", "sun"], ["snow", "ski"]])
        con_topic0, con_topic1 = d.concentrations(bm25, ["sun", "sand"])
        assert con_topic0 > con_topic1

    def test_bounded(self):
        d = TopicDescriber()
        bm25 = BM25([["a"], ["b"]])
        for c in d.concentrations(bm25, ["a"]):
            assert 0.0 <= c <= 1.0


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            DescriptionConfig(top_k=0)
        with pytest.raises(ValueError):
            DescriptionConfig(softmax_scale=0)
