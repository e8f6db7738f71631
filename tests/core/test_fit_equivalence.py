"""The array-form fit stages against the loops they replaced.

The three super-linear fit stages (descriptions, entity graph,
diffusion) were rewritten to do the same arithmetic in the same order,
once; word2vec's scatters and sampler, the co-click counts, the title
dot and the graph fill were then moved onto faster numpy forms that
round identically. The forms they replaced live on *only here*, as
reference oracles, and every comparison is ``==`` on floats — not
``approx`` — because the claim is a byte-identical model, not a
similar one.
"""

from __future__ import annotations

import dataclasses
import heapq
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.clustering.dendrogram import Dendrogram, Merge
from repro.clustering.hac import merge_pair
from repro.clustering.membership import MembershipTracker
from repro.clustering.parallel_hac import (
    ParallelHAC,
    ParallelHACConfig,
    RoundStats,
)
from repro.core.config import ShoalConfig
from repro.core.descriptions import DescriptionConfig, QueryScore, TopicDescriber
from repro.core.pipeline import ShoalPipeline
from repro.core.taxonomy import Taxonomy, Topic
from repro.graph.bipartite import QueryItemGraph
from repro.graph import entity_graph as entity_graph_module
from repro.graph.diffusion import local_maximal_edges
from repro.graph.entity_graph import EntityGraphBuilder, EntityGraphConfig
from repro.graph.minhash import LSHConfig, LSHIndex
from repro.graph.sparse import SparseGraph
from repro.replication.delta import snapshot_fingerprint
from repro.text.bm25 import BM25, CollectionStats
from repro.text.similarity import entity_embedding
from repro.text.tokenizer import Tokenizer
from repro.text.vocab import Vocabulary, VocabularyBuildConfig, build_vocabulary
from repro.text.word2vec import Word2Vec, Word2VecConfig, WordEmbeddings, _sigmoid

WORDS = ["sun", "sand", "swim", "tan", "wave", "ice", "ski", "cold", "sled", "snow"]
#: Never in any vocabulary or document: a title made of it has no vector.
UNSEEN = "zzz"

relaxed = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


# -- oracles: the parent commit's loops ---------------------------------------


def reference_word2vec(cfg: Word2VecConfig, token_docs, vocabulary=None) -> WordEmbeddings:
    """``Word2Vec.fit`` as it was: negatives drawn per batch by
    ``rng.choice(..., p=neg_dist)``, which validates ``p`` and rebuilds
    its cdf on every call, and three row-indexed 2-D ``np.add.at``."""
    rng = np.random.default_rng(cfg.seed)
    vocab = vocabulary if vocabulary is not None else build_vocabulary(token_docs)
    encoded = vocab.encode_corpus(token_docs)
    n = len(vocab)
    w_in = (rng.random((n, cfg.dim)) - 0.5) / cfg.dim
    w_out = np.zeros((n, cfg.dim))
    neg_dist = vocab.negative_sampling_distribution
    # Pair generation and the sigmoid are not under test: the trainer's own.
    pairs = Word2Vec(cfg)._generate_pairs(encoded, vocab.keep_probabilities, rng)
    if len(pairs) == 0:
        return WordEmbeddings(vocab, w_in)
    total_steps = cfg.epochs * ((len(pairs) + cfg.batch_size - 1) // cfg.batch_size)
    step = 0
    for _ in range(cfg.epochs):
        shuffled = pairs[rng.permutation(len(pairs))]
        for start in range(0, len(shuffled), cfg.batch_size):
            batch = shuffled[start : start + cfg.batch_size]
            lr = cfg.learning_rate + (cfg.min_learning_rate - cfg.learning_rate) * (
                step / max(1, total_steps - 1)
            )
            centers, contexts = batch[:, 0], batch[:, 1]
            negatives = rng.choice(n, size=(len(batch), cfg.negatives), p=neg_dist)
            v_c, u_pos, u_neg = w_in[centers], w_out[contexts], w_out[negatives]
            g_pos = (_sigmoid(np.einsum("bd,bd->b", v_c, u_pos)) - 1.0)[:, None]
            score_neg = _sigmoid(np.einsum("bkd,bd->bk", u_neg, v_c))
            grad_v = g_pos * u_pos + np.einsum("bkd,bk->bd", u_neg, score_neg)
            grad_u_pos = g_pos * v_c
            grad_u_neg = score_neg[:, :, None] * v_c[:, None, :]
            np.add.at(w_in, centers, -lr * grad_v)
            np.add.at(w_out, contexts, -lr * grad_u_pos)
            np.add.at(w_out, negatives.reshape(-1), -lr * grad_u_neg.reshape(-1, cfg.dim))
            step += 1
    return WordEmbeddings(vocab, w_in)


def reference_co_click_counts(bipartite: QueryItemGraph):
    """``QueryItemGraph.co_click_counts`` as it was: one int64 key array
    per query, ``concatenate``, ``np.unique``."""
    ids = np.array(bipartite.entity_ids(), dtype=np.int64)
    n = len(ids)
    keys = []
    for q in bipartite.query_ids():
        entities = bipartite.entities_of_query(q)
        if len(entities) > 1:
            index = np.searchsorted(ids, sorted(entities))
            i, j = np.triu_indices(len(index), 1)
            keys.append(index[i] * n + index[j])
    if not keys:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, empty
    pairs, shared = np.unique(np.concatenate(keys), return_counts=True)
    return ids[pairs // n], ids[pairs % n], shared


def reference_fill(vertices, edges) -> SparseGraph:
    """The entity graph's fill as it was: ``add_vertex`` per vertex,
    then ``set_edge`` per edge in ``(u, v)`` order."""
    graph = SparseGraph(0)
    for v in vertices:
        graph.add_vertex(v)
    for u, v, w in edges:
        graph.set_edge(u, v, w)
    return graph


def reference_entity_graph(cfg, bipartite, titles, embeddings) -> SparseGraph:
    """``EntityGraphBuilder.build`` as it was: a sorted list of candidate
    tuples, one set intersection, one ``any()`` pair and one dot per
    candidate, ``heapq.nlargest`` per vertex."""
    tok = Tokenizer()
    entity_ids = bipartite.entity_ids()
    query_sets = bipartite.entity_query_sets()
    means = {
        e: entity_embedding(embeddings, tok.tokenize(titles.get(e, "")))
        for e in entity_ids
    }
    if cfg.candidate_source == "lsh":
        index = LSHIndex(
            LSHConfig(bands=cfg.lsh_bands, rows_per_band=cfg.lsh_rows, seed=cfg.lsh_seed)
        )
        index.add_all(query_sets)
        candidates = sorted(index.candidate_pairs())
    else:
        seen = set()
        for q in bipartite.query_ids():
            ids = sorted(bipartite.entities_of_query(q))
            for i in range(len(ids)):
                for j in range(i + 1, len(ids)):
                    seen.add((ids[i], ids[j]))
        candidates = sorted(seen)
    scored = []
    for u, v in candidates:
        qu, qv = query_sets[u], query_sets[v]
        shared = len(qu & qv)
        if shared < cfg.min_shared_queries:
            continue
        sq = shared / len(qu | qv) if shared else 0.0
        if means[u].any() and means[v].any():
            sc = 0.5 + 0.5 * float(np.dot(means[u], means[v]))
        else:
            sc = 0.5
        s = cfg.alpha * sq + (1.0 - cfg.alpha) * sc
        if s >= cfg.min_similarity:
            scored.append((u, v, s))
    per_vertex = {}
    for u, v, w in scored:
        per_vertex.setdefault(u, []).append((w, u, v))
        per_vertex.setdefault(v, []).append((w, u, v))
    keep = set()
    for incident in per_vertex.values():
        for w, u, v in heapq.nlargest(cfg.max_neighbors, incident):
            keep.add((u, v, w))
    return reference_fill(entity_ids, sorted(keep))


def reference_local_maximal_edges(graph: SparseGraph, diffusion_rounds: int):
    """``local_maximal_edges`` as it was: every vertex's belief rebuilt
    in every round, over sorted neighbour lists."""
    def record(u, v, w):
        a, b = (u, v) if u < v else (v, u)
        return (w, -a, -b)

    belief = {}
    for v in graph.vertices():
        best = None
        for u, w in graph.neighbors(v).items():
            rec = record(v, u, w)
            if best is None or rec > best:
                best = rec
        belief[v] = best
    for _ in range(diffusion_rounds):
        updated = {}
        for v in graph.vertices():
            best = belief[v]
            for u in graph.neighbor_ids(v):
                cand = belief[u]
                if cand is not None and (best is None or cand > best):
                    best = cand
            updated[v] = best
        belief = updated
    result = set()
    for v in graph.vertices():
        rec = belief[v]
        if rec is None:
            continue
        weight, a, b = rec[0], -rec[1], -rec[2]
        if belief.get(a) == rec and belief.get(b) == rec:
            result.add((a, b, weight))
    return sorted(result)


def reference_parallel_hac(graph: SparseGraph, cfg: ParallelHACConfig):
    """``ParallelHAC.fit`` (local engine) as it was: a from-scratch
    diffusion at the top of every round. Returns (merges, rounds)."""
    work = graph.copy()
    tracker = MembershipTracker(graph.vertices())
    dendrogram = Dendrogram(graph.vertices())
    rounds = []
    for round_index in range(cfg.max_rounds):
        live_edges = work.n_edges
        if live_edges == 0:
            break
        candidates = reference_local_maximal_edges(work, cfg.diffusion_rounds)
        eligible = [c for c in candidates if c[2] >= cfg.similarity_threshold]
        if cfg.max_cluster_size is not None:
            eligible = [
                (u, v, w) for u, v, w in eligible
                if tracker.size(u) + tracker.size(v) <= cfg.max_cluster_size
            ]
        for u, v, w in eligible:
            merged = merge_pair(work, tracker, u, v, cfg.linkage_fn)
            dendrogram.record_merge(Merge(merged, u, v, w, round_index))
        rounds.append(
            RoundStats(
                round_index=round_index,
                live_clusters=tracker.n_live(),
                live_edges=live_edges,
                local_maximal_edges=len(candidates),
                merges=len(eligible),
            )
        )
        if not eligible:
            if cfg.max_cluster_size is None:
                break
            blocked = [
                (u, v) for u, v, w in work.edges()
                if w >= cfg.similarity_threshold
                and tracker.size(u) + tracker.size(v) > cfg.max_cluster_size
            ]
            for u, v in blocked:
                work.remove_edge(u, v)
            if not blocked:
                break
    return dendrogram.merges, rounds


def reference_describe(describer, taxonomy, bipartite, titles, query_texts):
    """``TopicDescriber.describe`` as it was: one full BM25 pass over
    all topics for every (topic, candidate query) pair."""
    tok = Tokenizer()
    cfg = describer.config
    topics = taxonomy.topics()
    docs = []
    for t in topics:
        docs.append([w for e in t.entity_ids for w in tok.tokenize(titles.get(e, ""))])
    bm25 = BM25(docs, cfg.bm25)
    result, descriptions = {}, {}
    for idx, topic in enumerate(topics):
        counts = {}
        for e in topic.entity_ids:
            for q, c in bipartite.query_clicks_of_entity(e).items():
                counts[q] = counts.get(q, 0) + c
        out = []
        for q, tf_q in counts.items():
            text = query_texts.get(q)
            if text is None:
                continue
            tokens = tok.tokenize(text)
            rels = np.array(
                [bm25.score(tokens, i) for i in range(len(docs))], dtype=float
            ) / cfg.softmax_scale
            raw = np.exp(np.clip(rels, None, 700.0))
            con = float(raw[idx]) / (1.0 + float(raw.sum()))
            out.append(QueryScore(q, text, describer.popularity(tf_q, len(docs[idx])), con))
        out.sort(key=lambda s: (-s.representativeness, s.query_id))
        result[topic.topic_id] = out
        descriptions[topic.topic_id] = [s.text for s in out[: cfg.top_k]]
    return result, descriptions


# -- strategies -----------------------------------------------------------------


def make_embeddings(dim: int) -> WordEmbeddings:
    rng = np.random.default_rng(dim)
    vocab = Vocabulary(WORDS, np.ones(len(WORDS)), VocabularyBuildConfig())
    return WordEmbeddings(vocab, rng.normal(size=(len(WORDS), dim)))


#: An odd dimension too: rows of odd length sit at odd alignments.
EMBEDDINGS = {dim: make_embeddings(dim) for dim in (7, 32)}

title_words = st.lists(st.sampled_from(WORDS + [UNSEEN]), min_size=0, max_size=4)


@st.composite
def click_worlds(draw, max_entities=12, max_queries=8):
    """A bipartite graph (with, often, a hub query that every entity
    was clicked under) and a title per entity (some with no vector)."""
    n = draw(st.integers(min_value=2, max_value=max_entities))
    # Sparse, unordered ids: the dense index is not the entity id.
    entities = draw(
        st.lists(st.integers(0, 60), min_size=n, max_size=n, unique=True)
    )
    bipartite = QueryItemGraph()
    for q in range(draw(st.integers(min_value=1, max_value=max_queries))):
        for e in draw(st.lists(st.sampled_from(entities), min_size=1, max_size=5)):
            bipartite.add_click(q, e, draw(st.integers(1, 4)))
    if draw(st.booleans()):
        for e in entities:
            bipartite.add_click(99, e)
    titles = {e: " ".join(draw(title_words)) for e in entities}
    return bipartite, titles


entity_graph_configs = st.builds(
    EntityGraphConfig,
    alpha=st.sampled_from([0.0, 0.3, 0.7, 1.0]),
    min_similarity=st.sampled_from([0.0, 0.2, 0.35, 0.5]),
    max_neighbors=st.sampled_from([1, 2, 3, 20]),
    min_shared_queries=st.sampled_from([1, 1, 2, 3]),
    candidate_source=st.sampled_from(["coclick", "lsh"]),
)


@st.composite
def weighted_graphs(draw, max_vertices=14, max_edges=30):
    """Small graphs on one-decimal weights, so equal weights — the
    tie-break on the vertex pair — are common."""
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    g = SparseGraph(n)
    for _ in range(draw(st.integers(min_value=0, max_value=max_edges))):
        u = draw(st.integers(0, n - 1))
        v = draw(st.integers(0, n - 1))
        if u != v:
            g.set_edge(u, v, draw(st.integers(1, 10)) / 10)
    return g


hac_configs = st.builds(
    ParallelHACConfig,
    similarity_threshold=st.sampled_from([0.0, 0.3, 0.6]),
    # "min" zeroes an edge whose other side is missing: merges that
    # *drop* edges, not only re-weight them.
    linkage=st.sampled_from(["sqrt", "sqrt", "arithmetic", "max", "min"]),
    max_cluster_size=st.sampled_from([None, None, 2, 4]),
    diffusion_rounds=st.sampled_from([1, 2, 3]),
)

#: Ten words only, so one batch hits the same row many times, as
#: center, as context and as negative.
word_docs = st.lists(
    st.lists(st.sampled_from(WORDS), min_size=0, max_size=7), min_size=1, max_size=12
).filter(any)

word2vec_configs = st.builds(
    Word2VecConfig,
    dim=st.sampled_from([3, 8]),
    window=st.sampled_from([1, 4]),
    negatives=st.sampled_from([1, 5, 13]),  # 13: more than there are words
    epochs=st.sampled_from([2, 3]),
    batch_size=st.sampled_from([1, 3, 256]),
    subsample=st.booleans(),
    seed=st.integers(0, 5),
)

token_lists = st.lists(st.sampled_from(WORDS[:6] + [UNSEEN]), min_size=0, max_size=6)
documents = st.lists(st.lists(st.sampled_from(WORDS), min_size=0, max_size=8),
                     min_size=0, max_size=8)


def adjacency_in_order(graph: SparseGraph):
    """Vertices, neighbours and weights *in insertion order*: sums over
    a vertex's edges (modularity) depend on it."""
    return [(v, list(nbrs.items())) for v, nbrs in graph.adjacency().items()]


# -- word2vec -------------------------------------------------------------------


class TestWord2Vec:
    @relaxed
    @given(word_docs, word2vec_configs, st.booleans())
    def test_fit_equals_per_batch_choice_and_row_scatters(self, docs, cfg, prebuilt):
        # A prebuilt vocabulary holds words the corpus never uses: rows
        # that are only ever drawn as negatives.
        vocab = Vocabulary(WORDS, np.arange(1, 11), VocabularyBuildConfig()) if prebuilt else None
        built = Word2Vec(cfg).fit(docs, vocab)
        expected = reference_word2vec(cfg, docs, vocab)
        assert np.array_equal(built.matrix, expected.matrix)

    @pytest.mark.parametrize("batch_size", [1, 3, 256])
    def test_ragged_last_batch_and_more_negatives_than_words(self, batch_size):
        docs = [WORDS[:4] * 3, WORDS[2:7], WORDS[:2]]
        cfg = Word2VecConfig(
            dim=5, window=2, negatives=13, epochs=3, batch_size=batch_size,
            subsample=False, seed=1,
        )
        vocab = build_vocabulary(docs)
        n_pairs = len(Word2Vec(cfg)._generate_pairs(
            vocab.encode_corpus(docs), vocab.keep_probabilities, np.random.default_rng(0)
        ))
        assert cfg.negatives > len(vocab) and n_pairs > 3
        assert batch_size == 1 or n_pairs % batch_size != 0
        built = Word2Vec(cfg).fit(docs)
        assert np.array_equal(built.matrix, reference_word2vec(cfg, docs).matrix)
        assert not np.array_equal(built.matrix, reference_word2vec(
            dataclasses.replace(cfg, seed=2), docs).matrix)

    def test_fitted_embeddings_are_the_reference_trainer(self, tiny_marketplace, tiny_model):
        docs = Tokenizer().tokenize_all(tiny_marketplace.corpus())
        expected = reference_word2vec(tiny_model.config.word2vec, docs)
        assert np.array_equal(tiny_model.embeddings.matrix, expected.matrix)


# -- co-click counts and the graph fill -----------------------------------------


def assert_same_arrays(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        assert np.array_equal(g, w)


class TestCoClickCounts:
    @relaxed
    @given(click_worlds())
    def test_counts_equal_the_unique_form(self, world):
        bipartite, _ = world
        assert_same_arrays(bipartite.co_click_counts(), reference_co_click_counts(bipartite))

    def test_no_query_with_two_entities(self):
        bipartite = QueryItemGraph()
        assert_same_arrays(bipartite.co_click_counts(), reference_co_click_counts(bipartite))
        bipartite.add_click(0, 4)
        bipartite.add_click(1, 9)
        assert_same_arrays(bipartite.co_click_counts(), reference_co_click_counts(bipartite))

    def test_keys_that_do_not_fit_int32(self):
        """More than 46 340 clicked entities: ``n * n`` leaves int32 and
        the key buffer must be int64 — a wrapped key names another pair."""
        n = 46_400
        bipartite = QueryItemGraph()
        for e in range(n):
            bipartite.add_click(e, e)
        groups = [(0, 1, n - 2, n - 1), (n - 2, n - 1), (5, n - 3, n - 1)]
        for q, group in enumerate(groups, start=n):
            for e in group:
                bipartite.add_click(q, e)
        assert (n - 2) * n + (n - 1) > np.iinfo(np.int32).max
        us, vs, shared = bipartite.co_click_counts()
        assert_same_arrays((us, vs, shared), reference_co_click_counts(bipartite))
        assert (int(us[-1]), int(vs[-1]), int(shared[-1])) == (n - 2, n - 1, 2)


class TestGraphFill:
    @relaxed
    @given(weighted_graphs(), st.integers(1, 4), st.integers(0, 3))
    def test_direct_fill_equals_the_set_edge_loop(self, graph, stride, offset):
        # Sparse ids, isolated vertices included: the index is not the id.
        vertices = np.array(graph.vertices(), dtype=np.int64) * stride + offset
        us, vs, ws = graph.adjacency_arrays()
        us, vs = us * stride + offset, vs * stride + offset
        built = SparseGraph.from_sorted_edges(vertices, us, vs, ws)
        expected = reference_fill(
            vertices.tolist(), zip(us.tolist(), vs.tolist(), ws.tolist())
        )
        assert adjacency_in_order(built) == adjacency_in_order(expected)
        assert built.n_edges == expected.n_edges
        assert built.edge_list() == expected.edge_list()
        assert all(
            type(u) is int and type(w) is float
            for nbrs in built.adjacency().values() for u, w in nbrs.items()
        )


# -- entity graph ---------------------------------------------------------------


def hub_world(n: int):
    """One query every one of ``n`` entities was clicked under: all
    ``n(n-1)/2`` pairs are candidates, in ``(u, v)`` order."""
    bipartite = QueryItemGraph()
    for e in range(n):
        bipartite.add_click(0, e)
    return bipartite, [(u, v) for u in range(n) for v in range(u + 1, n)]


class TestBatchedTitleDot:
    @pytest.mark.parametrize("dim", [7, 32])
    def test_more_titled_pairs_than_one_block(self, dim):
        """Every pair is live; the pair sitting on the first block
        boundary is untitled, so the blocks are cut from the titled
        pairs, not from the live ones."""
        block = entity_graph_module._DOT_BLOCK
        bipartite, pairs = hub_world(200)
        titles = {
            e: " ".join(WORDS[(e + i) % len(WORDS)] for i in range(1 + e % 3))
            for e in bipartite.entity_ids()
        }
        titles[pairs[block][1]] = UNSEEN
        assert len(pairs) - len(titles) > block  # still more than one block titled
        cfg = EntityGraphConfig(min_similarity=0.0, max_neighbors=len(titles))
        built = EntityGraphBuilder(EMBEDDINGS[dim], config=cfg).build(bipartite, titles)
        expected = reference_entity_graph(cfg, bipartite, titles, EMBEDDINGS[dim])
        assert built.n_edges == len(pairs)
        assert adjacency_in_order(built) == adjacency_in_order(expected)

    @relaxed
    @given(click_worlds(), entity_graph_configs, st.sampled_from([1, 2, 5]))
    def test_build_equals_the_pairwise_loop_at_any_block_size(self, world, cfg, block):
        bipartite, titles = world
        with mock.patch.object(entity_graph_module, "_DOT_BLOCK", block):
            built = EntityGraphBuilder(EMBEDDINGS[7], config=cfg).build(bipartite, titles)
        expected = reference_entity_graph(cfg, bipartite, titles, EMBEDDINGS[7])
        assert adjacency_in_order(built) == adjacency_in_order(expected)

    def test_peak_memory_does_not_grow_with_the_titled_pairs(self):
        """Same world, every pair titled against none: the difference in
        ``build``'s peak is one block's two operands and the titled
        pairs' index (8 bytes a pair), not two ``dim``-wide rows per
        titled pair (40 MB here)."""
        dim = 32
        block_bytes = 2 * entity_graph_module._DOT_BLOCK * dim * 8
        bipartite, pairs = hub_world(400)
        assert 2 * len(pairs) * dim * 8 > 10 * block_bytes
        builder = EntityGraphBuilder(
            EMBEDDINGS[dim], config=EntityGraphConfig(min_similarity=0.0)
        )

        def peak(titles):
            tracemalloc.start()
            try:
                builder.build(bipartite, titles)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        untitled = peak({})
        titled = peak({e: "sun sand" for e in bipartite.entity_ids()})
        assert titled - untitled <= 1.5 * block_bytes + 16 * len(pairs)


class TestEntityGraph:
    @relaxed
    @given(click_worlds(), entity_graph_configs, st.sampled_from([7, 32]))
    def test_build_equals_the_pairwise_loop(self, world, cfg, dim):
        bipartite, titles = world
        built = EntityGraphBuilder(EMBEDDINGS[dim], config=cfg).build(bipartite, titles)
        expected = reference_entity_graph(cfg, bipartite, titles, EMBEDDINGS[dim])
        assert built.edge_list() == expected.edge_list()
        assert adjacency_in_order(built) == adjacency_in_order(expected)

    @pytest.mark.parametrize("max_neighbors", [1, 2, 3])
    def test_equal_weights_break_on_the_pair(self, max_neighbors):
        """One hub query, one title: every pair scores the same, so the
        top-k cut is decided by the (u, v) tie-break alone."""
        bipartite = QueryItemGraph()
        for e in (5, 3, 8, 1, 9, 4, 7):
            bipartite.add_click(0, e)
        titles = {e: "sun sand" for e in bipartite.entity_ids()}
        cfg = EntityGraphConfig(min_similarity=0.0, max_neighbors=max_neighbors)
        built = EntityGraphBuilder(EMBEDDINGS[7], config=cfg).build(bipartite, titles)
        expected = reference_entity_graph(cfg, bipartite, titles, EMBEDDINGS[7])
        assert len({w for _, _, w in expected.edge_list()}) == 1
        assert adjacency_in_order(built) == adjacency_in_order(expected)

    def test_fitted_marketplace_graph_is_the_pairwise_loop(self, tiny_marketplace, tiny_model):
        titles = {e.entity_id: e.title for e in tiny_marketplace.catalog.entities}
        expected = reference_entity_graph(
            tiny_model.config.entity_graph, tiny_model.bipartite, titles,
            tiny_model.embeddings,
        )
        assert adjacency_in_order(tiny_model.entity_graph) == adjacency_in_order(expected)


# -- diffusion and parallel HAC -------------------------------------------------


def without_engine_counters(rounds):
    return [
        dataclasses.replace(r, supersteps=0, messages=0, remote_messages=0)
        for r in rounds
    ]


class TestDiffusion:
    @relaxed
    @given(weighted_graphs(), st.sampled_from([1, 2, 3]))
    def test_local_maximal_edges_equal_full_diffusion(self, graph, k):
        expected = reference_local_maximal_edges(graph, k)
        assert local_maximal_edges(graph, k) == expected
        pregel = ParallelHAC(ParallelHACConfig(engine="pregel", diffusion_rounds=k))
        assert pregel._diffuse_pregel(graph)[0] == expected

    @relaxed
    @given(weighted_graphs(), hac_configs)
    def test_fit_equals_rediffusing_every_round(self, graph, cfg):
        merges, rounds = reference_parallel_hac(graph, cfg)
        local = ParallelHAC(cfg).fit(graph)
        assert local.dendrogram.merges == merges
        assert local.rounds == rounds
        pregel = ParallelHAC(dataclasses.replace(cfg, engine="pregel")).fit(graph)
        assert pregel.dendrogram.merges == merges
        assert without_engine_counters(pregel.rounds) == rounds

    def test_fit_on_a_marketplace_graph(self, small_model):
        cfg = small_model.config.clustering
        merges, rounds = reference_parallel_hac(small_model.entity_graph, cfg)
        assert small_model.clustering.dendrogram.merges == merges
        assert small_model.clustering.rounds == rounds


# -- BM25 and descriptions ------------------------------------------------------


class TestBM25Scores:
    @relaxed
    @given(documents, token_lists, st.booleans())
    def test_scores_equal_score_per_document(self, docs, query, inject):
        stats = None
        if inject:
            # This index as one partition of a larger collection.
            stats = CollectionStats.from_documents(docs + [["sun", "ice"], ["ski"] * 9])
        bm25 = BM25(docs, collection_stats=stats)
        expected = [bm25.score(query, i) for i in range(len(docs))]
        assert bm25.scores(query).tolist() == expected

    def test_repeated_query_tokens_add_twice(self):
        bm25 = BM25([["sun", "sand"], ["sun"], ["ice"]])
        twice = bm25.scores(["sun", "sun", UNSEEN])
        assert twice.tolist() == [bm25.score(["sun", "sun"], i) for i in range(3)]
        assert twice[0] > bm25.scores(["sun"])[0] > 0.0

    def test_only_empty_documents(self):
        assert BM25([[], []]).scores(["sun"]).tolist() == [0.0, 0.0]


@st.composite
def described_worlds(draw):
    bipartite, titles = draw(click_worlds())
    entities = bipartite.entity_ids()
    cut = draw(st.integers(min_value=1, max_value=len(entities)))
    groups = [g for g in (entities[:cut], entities[cut:], entities[::2]) if g]
    taxonomy = [Topic(100 + i, entity_ids=g, category_ids=[]) for i, g in enumerate(groups)]
    query_texts = {
        q: " ".join(draw(token_lists))
        for q in bipartite.query_ids()
        if draw(st.integers(0, 5))  # one in six has no text registered
    }
    return taxonomy, bipartite, titles, query_texts


class TestDescriptions:
    @relaxed
    @given(described_worlds(), st.sampled_from([1, 3]))
    def test_rankings_and_scores_equal_the_per_pair_loop(self, world, top_k):
        topics, bipartite, titles, query_texts = world
        describer = TopicDescriber(config=DescriptionConfig(top_k=top_k))
        taxonomy = Taxonomy(topics)
        result = describer.describe(taxonomy, bipartite, titles, query_texts)
        expected, descriptions = reference_describe(
            describer, taxonomy, bipartite, titles, query_texts
        )
        assert result == expected  # QueryScore is a dataclass: == on floats
        assert list(result) == list(expected)
        assert {t.topic_id: t.descriptions for t in taxonomy.topics()} == descriptions

    def test_fitted_descriptions_are_the_per_pair_loop(self, tiny_marketplace, tiny_model):
        titles = {e.entity_id: e.title for e in tiny_marketplace.catalog.entities}
        expected, _ = reference_describe(
            TopicDescriber(config=tiny_model.config.descriptions),
            tiny_model.taxonomy, tiny_model.bipartite, titles, tiny_model.query_texts,
        )
        assert tiny_model.descriptions == expected


# -- end to end -----------------------------------------------------------------


def fit_fingerprint(market, directory) -> str:
    categories = {e.entity_id: e.category_id for e in market.catalog.entities}
    model = ShoalPipeline(ShoalConfig()).fit(market)
    return snapshot_fingerprint(model.save(directory, entity_categories=categories))


@pytest.mark.parametrize("fixture", ["tiny_marketplace", "small_marketplace"])
def test_two_fits_give_one_fingerprint(fixture, request, tmp_path):
    market = request.getfixturevalue(fixture)
    prints = [fit_fingerprint(market, tmp_path / str(i)) for i in range(2)]
    assert prints[0] == prints[1]


@pytest.mark.parametrize("fixture", ["tiny_marketplace", "small_marketplace"])
def test_reference_forms_give_the_same_fingerprint(fixture, request, tmp_path, monkeypatch):
    """Byte identity end to end, under whatever numpy is installed: the
    pipeline with the replaced forms patched back in — per-batch
    ``rng.choice`` and row scatters; pairs enumerated and intersected
    one by one, one ``np.dot`` per pair, the ``set_edge`` loop — saves
    the same snapshot."""
    market = request.getfixturevalue(fixture)
    shipped = fit_fingerprint(market, tmp_path / "shipped")
    monkeypatch.setattr(
        Word2Vec, "fit",
        lambda self, docs, vocabulary=None: reference_word2vec(self.config, docs, vocabulary),
    )
    monkeypatch.setattr(
        EntityGraphBuilder, "build",
        lambda self, bipartite, titles: reference_entity_graph(
            self.config, bipartite, titles, self._embeddings
        ),
    )
    assert fit_fingerprint(market, tmp_path / "reference") == shipped
