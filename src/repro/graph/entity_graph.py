"""Item entity graph builder (paper Sec. 2.1, Eq. 1–3).

Combines query-driven Jaccard similarity and content-driven embedding
similarity into the sparse weighted graph Parallel HAC clusters:

* ``Sq(u, v)`` — Jaccard of the query sets of u and v (Eq. 1),
* ``Sc(u, v)`` — mean pairwise shifted cosine of title word vectors
  (Eq. 2, computed in factorised O(|Vu|+|Vv|) form),
* ``S = α·Sq + (1-α)·Sc`` with α = 0.7 (Eq. 3),
* sparsification: only entity pairs that co-occur under at least one
  query are candidates, edges with ``S`` below ``min_similarity`` are
  dropped, and each vertex keeps at most ``max_neighbors`` strongest
  edges ("one item entity should have only a few neighbor entities").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional, Tuple

import numpy as np

from repro._util import check_positive, check_probability
from repro.graph.bipartite import QueryItemGraph
from repro.graph.sparse import SparseGraph
from repro.text.similarity import entity_embedding
from repro.text.tokenizer import Tokenizer
from repro.text.word2vec import WordEmbeddings

__all__ = ["EntityGraphConfig", "EntityGraphBuilder", "build_entity_graph"]

#: Eq. 2 is a mean of shifted cosines, so Sc ≤ 1 before rounding; the
#: slack covers the rounding of the mean vectors and of their dot.
_SC_CEILING = 1.0 + 1e-9
#: Pairs per batched title dot: bounds its two gathered (block, dim) operands.
_DOT_BLOCK = 256


@dataclass(frozen=True)
class EntityGraphConfig:
    """Knobs of Eq. 3 and the sparsification policy.

    ``alpha`` is the paper's α (0.7 in the demonstration).
    ``min_similarity`` is the pruning threshold creating sparsity
    (Challenge 1); ``max_neighbors`` caps vertex degree; and
    ``min_shared_queries`` requires that many common queries before a
    pair is even scored (cheap pre-filter against noise clicks).

    ``candidate_source`` selects how candidate pairs are enumerated:
    ``"coclick"`` (exact: all pairs sharing a query) or ``"lsh"``
    (MinHash LSH over query sets — bounded cost when hub queries make
    exact enumeration quadratic; see :mod:`repro.graph.minhash`).
    ``lsh_bands``/``lsh_rows`` shape the LSH S-curve.
    """

    alpha: float = 0.7
    min_similarity: float = 0.35
    max_neighbors: int = 20
    min_shared_queries: int = 1
    candidate_source: str = "coclick"
    lsh_bands: int = 32
    lsh_rows: int = 2
    lsh_seed: int = 0

    def __post_init__(self) -> None:
        check_probability("alpha", self.alpha)
        check_probability("min_similarity", self.min_similarity)
        check_positive("max_neighbors", self.max_neighbors)
        check_positive("min_shared_queries", self.min_shared_queries)
        if self.candidate_source not in ("coclick", "lsh"):
            raise ValueError(
                "candidate_source must be 'coclick' or 'lsh', "
                f"got {self.candidate_source!r}"
            )
        check_positive("lsh_bands", self.lsh_bands)
        check_positive("lsh_rows", self.lsh_rows)


class EntityGraphBuilder:
    """Builds the item entity graph from bipartite graph + embeddings.

    The builder is reusable across windows: construct once with the
    similarity machinery, call :meth:`build` per bipartite snapshot.
    """

    def __init__(
        self,
        embeddings: WordEmbeddings,
        tokenizer: Optional[Tokenizer] = None,
        config: EntityGraphConfig = EntityGraphConfig(),
    ):
        self._embeddings = embeddings
        self._tokenizer = tokenizer or Tokenizer()
        self._config = config

    @property
    def config(self) -> EntityGraphConfig:
        return self._config

    # -- graph construction ----------------------------------------------------

    def build(
        self,
        bipartite: QueryItemGraph,
        titles: Dict[int, str],
    ) -> SparseGraph:
        """Construct the sparse item entity graph.

        ``titles`` maps entity_id → title for every entity appearing in
        the bipartite graph (entities without clicks are isolated and
        excluded, as in production: an item nobody searches has no
        query evidence to place it).
        """
        cfg = self._config
        entity_ids = bipartite.entity_ids()
        query_sets = bipartite.entity_query_sets()

        # Mean title vector once per entity (a row), and whether it has one.
        tokenize = self._tokenizer.tokenize
        means = np.zeros((len(entity_ids), self._embeddings.dim))
        for row, e in enumerate(entity_ids):
            means[row] = entity_embedding(self._embeddings, tokenize(titles.get(e, "")))
        has_vector = means.any(axis=1)
        degree = np.array([len(query_sets[e]) for e in entity_ids], dtype=np.int64)

        if cfg.candidate_source == "lsh":
            us, vs, shared = self._lsh_candidates(query_sets)
        else:
            us, vs, shared = bipartite.co_click_counts()
        ids = np.array(entity_ids, dtype=np.int64)
        iu, iv = np.searchsorted(ids, us), np.searchsorted(ids, vs)

        # Eq. 1 from the counts: |Qu ∪ Qv| = |Qu| + |Qv| − |Qu ∩ Qv|.
        a = cfg.alpha
        sq = shared / (degree[iu] + degree[iv] - shared)
        # Sc ≤ 1, so most pairs miss the threshold whatever their titles
        # say; only the rest pay for a dot product.
        live = np.flatnonzero(
            (shared >= cfg.min_shared_queries)
            & (a * sq + (1.0 - a) * _SC_CEILING >= cfg.min_similarity)
        )
        iu, iv, sq = iu[live], iv[live], sq[live]
        del us, vs, shared, live  # the widest arrays: gone before the sorts below
        titled = np.flatnonzero(has_vector[iu] & has_vector[iv])
        sc = np.full(len(iu), 0.5)
        # matmul over (N,1,d) @ (N,d,1) runs np.dot's kernel once per pair:
        # the same floats. einsum and multiply-and-sum round differently in
        # the last bit, enough to change which edges survive the threshold.
        for start in range(0, len(titled), _DOT_BLOCK):
            block = titled[start : start + _DOT_BLOCK]
            mu, mv = means[iu[block]], means[iv[block]]
            sc[block] = 0.5 + 0.5 * np.matmul(mu[:, None, :], mv[:, :, None])[:, 0, 0]
        s = a * sq + (1.0 - a) * sc
        kept = s >= cfg.min_similarity
        iu, iv, s = self._prune_to_top_k(
            iu[kept], iv[kept], s[kept], cfg.max_neighbors
        )
        return SparseGraph.from_sorted_edges(ids, ids[iu], ids[iv], s)

    def _lsh_candidates(
        self, query_sets: Dict[int, FrozenSet[int]]
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Approximate candidates via banded MinHash LSH (bounded cost
        under hub queries; recall controlled by the band S-curve), as
        ``(us, vs, shared)`` like :meth:`QueryItemGraph.co_click_counts`."""
        from repro.graph.minhash import LSHConfig, LSHIndex

        cfg = self._config
        index = LSHIndex(
            LSHConfig(
                bands=cfg.lsh_bands,
                rows_per_band=cfg.lsh_rows,
                seed=cfg.lsh_seed,
            )
        )
        index.add_all(query_sets)
        pairs = sorted(index.candidate_pairs())
        shared = [len(query_sets[u] & query_sets[v]) for u, v in pairs]
        us, vs = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
        return us, vs, np.array(shared, dtype=np.int64)

    @staticmethod
    def _prune_to_top_k(
        us: np.ndarray, vs: np.ndarray, ws: np.ndarray, k: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Keep an edge iff it is in the top-k of *either* endpoint.

        The union (rather than intersection) rule preserves graph
        connectivity for low-degree vertices while still bounding the
        expected degree, matching the "few neighbor entities" intent.
        A vertex ranks its edges by ``(weight, u, v)`` descending; the
        input is sorted by ``(u, v)`` and so is the result.
        """
        n = len(us)
        edge = np.concatenate([np.arange(n), np.arange(n)])
        vertex = np.concatenate([us, vs])
        order = np.lexsort((vs[edge], us[edge], ws[edge], vertex))
        # Each vertex's run is ascending: its top-k are the last k of it.
        degree = np.unique(vertex, return_counts=True)[1]
        run_end = np.repeat(np.cumsum(degree), degree)
        keep = np.zeros(n, dtype=bool)
        keep[edge[order][run_end - np.arange(2 * n) <= k]] = True
        return us[keep], vs[keep], ws[keep]


def build_entity_graph(
    bipartite: QueryItemGraph,
    embeddings: WordEmbeddings,
    titles: Dict[int, str],
    config: EntityGraphConfig = EntityGraphConfig(),
    tokenizer: Optional[Tokenizer] = None,
) -> SparseGraph:
    """Convenience wrapper: build the entity graph in one call."""
    return EntityGraphBuilder(embeddings, tokenizer, config).build(bipartite, titles)
