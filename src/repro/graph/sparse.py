"""Sparse undirected weighted graph.

The item entity graph is sparse by construction (paper Challenge 1:
"we need to filter out the values in S that are too low"). This module
provides the adjacency structure every algorithm in the library shares:
an undirected weighted graph over dense integer vertex ids with O(1)
neighbour access, edge iteration, and cheap structural edits (needed by
HAC merging).

Design notes
------------
* adjacency is a ``dict[int, dict[int, float]]`` — merge-heavy
  workloads (HAC contracts thousands of vertices) need cheap vertex
  deletion, which CSR cannot offer;
* edges are stored symmetrically; the canonical edge key is
  ``(min(u, v), max(u, v))``;
* self-loops are rejected: a similarity of an entity with itself is
  meaningless in this model.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np


__all__ = ["SparseGraph"]


class SparseGraph:
    """Undirected weighted graph with dict-of-dict adjacency."""

    def __init__(self, n_vertices: int = 0):
        if n_vertices < 0:
            raise ValueError("n_vertices must be >= 0")
        self._adj: Dict[int, Dict[int, float]] = {v: {} for v in range(n_vertices)}
        self._n_edges = 0

    # -- construction --------------------------------------------------------

    @classmethod
    def from_edges(
        cls,
        n_vertices: int,
        edges: Iterable[Tuple[int, int, float]],
    ) -> "SparseGraph":
        """Build a graph from (u, v, weight) triples.

        Duplicate edges keep the *maximum* weight seen — convenient for
        similarity graphs where multiple evidence sources may propose
        the same pair.
        """
        g = cls(n_vertices)
        for u, v, w in edges:
            if g.has_edge(u, v):
                w = max(w, g.weight(u, v))
            g.set_edge(u, v, w)
        return g

    @classmethod
    def from_sorted_edges(
        cls, vertices: np.ndarray, us: np.ndarray, vs: np.ndarray, ws: np.ndarray
    ) -> "SparseGraph":
        """Graph on ``vertices`` (ascending) with each pair ``u != v``,
        both in ``vertices``, given once. Neighbours are inserted in
        ascending id order: the adjacency ``add_vertex`` per vertex then
        ``set_edge`` per edge in ``(u, v)`` order builds, without the calls."""
        src, dst = np.concatenate([us, vs]), np.concatenate([vs, us])
        order = np.lexsort((dst, src))
        both = ws.tolist() * 2  # the list repeats, not the floats: one object per edge
        weights = [both[i] for i in order.tolist()]
        nbrs = dst[order].tolist()
        cuts = np.searchsorted(src[order], vertices).tolist() + [len(order)]
        g = cls(0)
        g._adj = {
            v: dict(zip(nbrs[a:b], weights[a:b]))
            for v, a, b in zip(vertices.tolist(), cuts, cuts[1:])
        }
        g._n_edges = len(us)
        return g

    def copy(self) -> "SparseGraph":
        g = SparseGraph(0)
        g._adj = {v: dict(nbrs) for v, nbrs in self._adj.items()}
        g._n_edges = self._n_edges
        return g

    # -- vertices ------------------------------------------------------------

    def add_vertex(self, v: int) -> None:
        """Add an isolated vertex (no-op if present)."""
        if v < 0:
            raise ValueError("vertex ids must be non-negative")
        self._adj.setdefault(v, {})

    def remove_vertex(self, v: int) -> None:
        """Remove ``v`` and all incident edges."""
        nbrs = self._adj.pop(v)
        for u in nbrs:
            del self._adj[u][v]
        self._n_edges -= len(nbrs)

    def has_vertex(self, v: int) -> bool:
        return v in self._adj

    def vertices(self) -> List[int]:
        return sorted(self._adj)

    @property
    def n_vertices(self) -> int:
        return len(self._adj)

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def weighted_degree(self, v: int) -> float:
        """Sum of incident edge weights (the strength of ``v``)."""
        return float(sum(self._adj[v].values()))

    # -- edges ---------------------------------------------------------------

    def set_edge(self, u: int, v: int, weight: float) -> None:
        """Insert or update the undirected edge (u, v)."""
        if u == v:
            raise ValueError(f"self-loop on vertex {u} is not allowed")
        self.add_vertex(u)
        self.add_vertex(v)
        if v not in self._adj[u]:
            self._n_edges += 1
        self._adj[u][v] = float(weight)
        self._adj[v][u] = float(weight)

    def remove_edge(self, u: int, v: int) -> None:
        if v not in self._adj.get(u, {}):
            raise KeyError(f"edge ({u}, {v}) not in graph")
        del self._adj[u][v]
        del self._adj[v][u]
        self._n_edges -= 1

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adj.get(u, {})

    def weight(self, u: int, v: int, default: float = 0.0) -> float:
        """Weight of (u, v); ``default`` if the edge is absent.

        The default of 0.0 mirrors the paper's convention
        "S(A, C) = 0 if the similarity between A and C is unavailable".
        """
        return self._adj.get(u, {}).get(v, default)

    def neighbors(self, v: int) -> Dict[int, float]:
        """Mapping neighbour → weight (a direct view copy)."""
        return dict(self._adj[v])

    def adjacency(self) -> Mapping[int, Mapping[int, float]]:
        """The live vertex → (neighbour → weight) mapping, not a copy:
        for read-only scans; edit the graph through its methods."""
        return self._adj

    def neighbor_ids(self, v: int) -> List[int]:
        return sorted(self._adj[v])

    @property
    def n_edges(self) -> int:
        return self._n_edges

    def edges(self) -> Iterator[Tuple[int, int, float]]:
        """Iterate canonical (u, v, w) with u < v, in sorted order."""
        for u in sorted(self._adj):
            for v in sorted(self._adj[u]):
                if u < v:
                    yield (u, v, self._adj[u][v])

    def edge_list(self) -> List[Tuple[int, int, float]]:
        return list(self.edges())

    def total_weight(self) -> float:
        """Sum of all edge weights (each undirected edge once)."""
        return float(sum(w for _, _, w in self.edges()))

    def max_edge(self) -> Optional[Tuple[int, int, float]]:
        """The globally heaviest edge, or ``None`` for an edgeless graph.

        Ties break on the canonical (u, v) key so the result is
        deterministic.
        """
        best: Optional[Tuple[int, int, float]] = None
        for u, v, w in self.edges():
            if best is None or w > best[2] or (w == best[2] and (u, v) < best[:2]):
                best = (u, v, w)
        return best

    # -- bulk views ------------------------------------------------------------

    def adjacency_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return parallel arrays (us, vs, ws) of canonical edges."""
        e = self.edge_list()
        if not e:
            return (
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=float),
            )
        us, vs, ws = zip(*e)
        return (
            np.asarray(us, dtype=np.int64),
            np.asarray(vs, dtype=np.int64),
            np.asarray(ws, dtype=float),
        )

    def subgraph(self, keep: Sequence[int]) -> "SparseGraph":
        """Induced subgraph on ``keep`` (original vertex ids preserved)."""
        keep_set = set(keep)
        g = SparseGraph(0)
        for v in keep_set:
            if v in self._adj:
                g.add_vertex(v)
        for u, v, w in self.edges():
            if u in keep_set and v in keep_set:
                g.set_edge(u, v, w)
        return g

    def __repr__(self) -> str:
        return f"SparseGraph(n_vertices={self.n_vertices}, n_edges={self.n_edges})"
