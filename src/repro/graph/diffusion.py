"""Local-maximal-edge discovery via graph diffusion (paper Sec. 2.2).

Plain HAC merges one globally-maximal edge per iteration; the paper's
distributed variant instead finds *local maximal edges* — edges that
remain the maximum after k rounds of neighbours exchanging the best
edge they know — and merges all of them in the same parallel round:

    "For each iteration of the graph diffusion process, every node
    receives the maximal that its neighbors discover from its
    neighbors and 'diffuses' the maximal edge to its neighbors."

With k = 1 an edge only has to beat the edges incident to its two
endpoints; as k grows, information travels farther, fewer edges
survive, and the parallel merge round shrinks toward the sequential
behaviour. The paper fixes k = 2. This module implements the diffusion
in pure-graph form; :mod:`repro.pregel` hosts the vertex-program
version used by the distributed engine, and both must agree (tested).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.graph.sparse import SparseGraph

__all__ = ["MaxDiffusion", "local_maximal_edges", "best_incident_edge"]

#: An edge record ordered so max() picks higher weight, tie-broken by
#: the canonical vertex pair (deterministic across runs).
EdgeRecord = Tuple[float, int, int]


def best_incident_edge(graph: SparseGraph, v: int) -> Optional[EdgeRecord]:
    """The strongest edge incident to ``v`` (deterministic ties)."""
    nbrs = graph.adjacency()[v]
    if not nbrs:
        return None
    # The best record carries the top weight; only ties need comparing.
    # Vertex ids are negated so that, at equal weight, the
    # lexicographically *smallest* canonical pair wins under max().
    top = max(nbrs.values())
    return max([
        (top, -v, -u) if v < u else (top, -u, -v)
        for u, w in nbrs.items() if w == top
    ])


class MaxDiffusion:
    """Local maximal edges of a graph that is being edited.

    The protocol: (1) every vertex computes the best edge incident to
    it; (2) for k rounds, every vertex adopts the best edge among its
    own belief and its neighbours'; (3) an edge is *locally maximal* iff
    both endpoints still believe in it.

    After k rounds a vertex believes in the best of the step-1 edges of
    the vertices within k hops of it. So an edge is locally maximal iff
    it is the step-1 edge of both endpoints and no vertex within k hops
    of either has a better one — decided by walking outward from the
    few mutually-best pairs and stopping at the first better edge,
    instead of updating every vertex k times. Only the step-1 beliefs
    are stored; each depends on its vertex's adjacency alone, so between
    Parallel HAC rounds :meth:`refresh` recomputes those a merge touched
    and every other one carries over. Vertices without edges believe in
    nothing and are not stored.
    """

    def __init__(self, graph: SparseGraph, diffusion_rounds: int = 2):
        if diffusion_rounds < 1:
            raise ValueError("diffusion_rounds must be >= 1")
        self._graph = graph
        self._rounds = diffusion_rounds
        self._best: Dict[int, EdgeRecord] = {}
        self.refresh(graph.adjacency())

    def refresh(self, touched: Iterable[int]) -> None:
        """Bring the beliefs up to date with the graph. ``touched`` must
        hold every vertex whose adjacency changed since the last call:
        added, removed, or with an edge added, removed or re-weighted."""
        adj = self._graph.adjacency()
        for v in touched:
            if adj.get(v):
                self._best[v] = best_incident_edge(self._graph, v)
            else:
                self._best.pop(v, None)

    def local_maximal_edges(self) -> List[Tuple[int, int, float]]:
        """Edges both of whose endpoints believe in them after the last
        round. Each vertex ends up in at most one returned edge, so all
        of them can merge concurrently without conflicts. Returns
        canonical (u, v, weight) triples sorted by vertex pair."""
        best = self._best
        found = []
        for v, rec in best.items():
            a, b = -rec[1], -rec[2]
            # Looking from the smaller endpoint visits each edge once.
            if v == a and best[b] == rec and self._unbeaten(rec):
                found.append((a, b, rec[0]))
        return sorted(found)

    def _unbeaten(self, rec: EdgeRecord) -> bool:
        """No vertex within the diffusion radius of ``rec``'s endpoints
        has a better incident edge."""
        adj, best = self._graph.adjacency(), self._best
        frontier: Iterable[int] = (-rec[1], -rec[2])
        seen = set(frontier)
        for _ in range(self._rounds):
            reached = set()
            for x in frontier:
                for y in adj[x]:
                    if y not in seen:
                        if best[y] > rec:
                            return False
                        seen.add(y)
                        reached.add(y)
            frontier = reached
        return True


def local_maximal_edges(
    graph: SparseGraph, diffusion_rounds: int = 2
) -> List[Tuple[int, int, float]]:
    """Edges that survive ``diffusion_rounds`` rounds of max-diffusion
    on ``graph`` as it stands (see :class:`MaxDiffusion`)."""
    return MaxDiffusion(graph, diffusion_rounds).local_maximal_edges()
