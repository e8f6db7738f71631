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
from typing import Dict, Iterator, Optional, Tuple

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
#: Co-click pair instances per scored block (whole rows of ``u``; see
#: :meth:`QueryItemGraph.co_click_blocks`), or LSH candidate pairs per
#: block: bounds every per-candidate array.
_PAIR_BLOCK = 65536


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

        Candidates are scored block by block in ``(u, v)`` order, and
        between blocks only the edges still in some endpoint's running
        top-``max_neighbors`` are kept, so what the build holds follows
        the kept graph (at most ``max_neighbors`` edges a vertex, twice
        that between prunes) plus a block of ``_PAIR_BLOCK`` candidate
        instances, never the candidate count. Bounded too are the
        per-entity arrays and the enumerator's index, linear in the
        query–entity edges. Not bounded: the ``"lsh"`` source, whose
        index holds its whole candidate set before the first block.
        """
        cfg = self._config
        entity_ids = bipartite.entity_ids()

        # Mean title vector once per entity (a row), and whether it has one.
        tokenize = self._tokenizer.tokenize
        means = np.zeros((len(entity_ids), self._embeddings.dim))
        for row, e in enumerate(entity_ids):
            means[row] = entity_embedding(self._embeddings, tokenize(titles.get(e, "")))
        has_vector = means.any(axis=1)
        degree = bipartite.query_counts()
        ids = np.array(entity_ids, dtype=np.int64)

        if cfg.candidate_source == "lsh":
            blocks = self._lsh_blocks(bipartite, ids)
        else:
            blocks = bipartite.co_click_blocks(_PAIR_BLOCK)
        top = _RunningTopK(len(ids), cfg.max_neighbors)
        for iu, iv, shared in blocks:
            top.add(*self._score(iu, iv, shared, degree, means, has_vector))
        iu, iv, s = top.edges()
        return SparseGraph.from_sorted_edges(ids, ids[iu], ids[iv], s)

    def _score(
        self,
        iu: np.ndarray,
        iv: np.ndarray,
        shared: np.ndarray,
        degree: np.ndarray,
        means: np.ndarray,
        has_vector: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Eq. 1–3 for one block of candidate rows; the pairs at or
        above ``min_similarity`` as ``(iu, iv, s)``, in block order."""
        cfg = self._config
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
        return iu[kept], iv[kept], s[kept]

    def _lsh_blocks(
        self, bipartite: QueryItemGraph, ids: np.ndarray
    ) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Approximate candidates via banded MinHash LSH (bounded cost
        under hub queries; recall controlled by the band S-curve), in
        blocks of ``_PAIR_BLOCK`` pairs shaped like
        :meth:`QueryItemGraph.co_click_blocks`. The index and its sorted
        candidate list are whole, not blocked."""
        from repro.graph.minhash import LSHConfig, LSHIndex

        cfg = self._config
        query_sets = bipartite.entity_query_sets()
        index = LSHIndex(
            LSHConfig(
                bands=cfg.lsh_bands,
                rows_per_band=cfg.lsh_rows,
                seed=cfg.lsh_seed,
            )
        )
        index.add_all(query_sets)
        pairs = sorted(index.candidate_pairs())
        for start in range(0, len(pairs), _PAIR_BLOCK):
            block = pairs[start : start + _PAIR_BLOCK]
            shared = [len(query_sets[u] & query_sets[v]) for u, v in block]
            us, vs = np.array(block, dtype=np.int64).T
            yield (
                np.searchsorted(ids, us),
                np.searchsorted(ids, vs),
                np.array(shared, dtype=np.int64),
            )


class _RunningTopK:
    """The edges, fed in ``(u, v)`` order, that are in the top-k of
    *either* endpoint.

    The union (rather than intersection) rule preserves graph
    connectivity for low-degree vertices while still bounding the
    expected degree, matching the "few neighbor entities" intent. A
    vertex ranks its edges by ``(weight, u, v)`` descending.

    An edge outside an endpoint's top-k among *some* of that endpoint's
    edges is outside it among all of them, so dropping, early, what is
    in neither endpoint's top-k of the edges seen so far is exact. Each
    prune does that over everything held and records every vertex's
    floor, the weight of its k-th best edge so far, that an arriving
    edge must reach at one end to be held at all. What is held stays
    below ``max(2 * kept, _PAIR_BLOCK)`` edges plus the last add,
    ``kept`` being the last prune's survivors: at most ``k`` a vertex.
    """

    def __init__(self, n_vertices: int, k: int):
        self._n, self._k = n_vertices, k
        self._floor = np.full(n_vertices, -np.inf)
        self._runs = [(np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0))]
        self._held, self._limit = 0, _PAIR_BLOCK

    def add(self, us: np.ndarray, vs: np.ndarray, ws: np.ndarray) -> None:
        """Edges after every one already added in ``(u, v)`` order, so an
        edge that ties a floor's weight outranks the floor's edge."""
        held = (ws >= self._floor[us]) | (ws >= self._floor[vs])
        self._runs.append((us[held], vs[held], ws[held]))
        self._held += int(held.sum())
        if self._held >= self._limit:
            self._prune()
            self._held = len(self._runs[0][0])
            self._limit = max(2 * self._held, _PAIR_BLOCK)

    def edges(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(us, vs, ws)`` of the kept edges, in ``(u, v)`` order."""
        self._prune()
        return self._runs[0]

    def _prune(self) -> None:
        us, vs, ws = (np.concatenate(column) for column in zip(*self._runs))
        self._runs.clear()  # the runs, gone before the sort's own arrays
        n, k, width = len(us), self._k, max(len(us), 1)
        # Input order is (u, v) ascending, so a stable sort on the weight
        # alone is the (weight, u, v) order every vertex ranks by.
        by_rank = np.argsort(ws, kind="stable")
        rank = np.empty(n, dtype=np.int64)
        rank[by_rank] = np.arange(n)
        # Each edge listed once under each endpoint as (vertex, rank):
        # sorted, a vertex's run ascends and its top-k are its last k.
        listed = np.concatenate([us, vs]) * width + np.concatenate([rank, rank])
        listed.sort()
        degree = np.bincount(us, minlength=self._n) + np.bincount(vs, minlength=self._n)
        run_end = np.cumsum(degree)
        # Positions run_end - 1, run_end - 2, ... of each vertex's last
        # min(degree, k): one ragged range per vertex.
        take = np.minimum(degree, k)
        last = np.repeat(run_end - 1 + np.cumsum(take) - take, take) - np.arange(take.sum())
        keep = np.zeros(n, dtype=bool)
        keep[by_rank[listed[last] % width]] = True
        full = np.flatnonzero(degree >= k)
        self._floor[full] = ws[by_rank[listed[run_end[full] - k] % width]]
        self._runs.append((us[keep], vs[keep], ws[keep]))


def build_entity_graph(
    bipartite: QueryItemGraph,
    embeddings: WordEmbeddings,
    titles: Dict[int, str],
    config: EntityGraphConfig = EntityGraphConfig(),
    tokenizer: Optional[Tokenizer] = None,
) -> SparseGraph:
    """Convenience wrapper: build the entity graph in one call."""
    return EntityGraphBuilder(embeddings, tokenizer, config).build(bipartite, titles)
