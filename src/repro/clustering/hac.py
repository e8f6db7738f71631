"""Sequential (exact) HAC on a sparse similarity graph.

This is the baseline the paper describes before introducing Parallel
HAC: "It works by iteratively merging two nodes with the largest
similarity in the graph until all similarity scores are less than a
threshold" — one merge per iteration, globally maximal edge each time
(Challenge 2: O(V) iterations, each scanning edges).

We implement it with a lazy max-heap so each iteration is
O(log E) amortised instead of a full edge scan; even so, the *merge
sequence* is exactly the textbook greedy one, which makes this class
both the correctness oracle for Parallel HAC (tests compare their
partitions) and the sequential performance baseline for bench E4.
Linkage on merge follows the configured rule (paper Eq. 4 by default),
so both algorithms share identical similarity semantics.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro._util import check_probability
from repro.clustering.dendrogram import Dendrogram, Merge
from repro.clustering.linkage import LINKAGES, LinkageFn
from repro.clustering.membership import MembershipTracker
from repro.graph.sparse import SparseGraph

__all__ = ["HACConfig", "SequentialHAC", "merge_pair"]


@dataclass(frozen=True)
class HACConfig:
    """Shared HAC parameters.

    ``similarity_threshold`` stops agglomeration once no edge is at or
    above it (the paper's stopping rule). ``linkage`` picks the merge
    update; ``"sqrt"`` is Eq. 4. ``max_cluster_size`` optionally caps
    cluster growth (production guard; ``None`` disables).
    """

    similarity_threshold: float = 0.3
    linkage: str = "sqrt"
    max_cluster_size: Optional[int] = None

    def __post_init__(self) -> None:
        check_probability("similarity_threshold", self.similarity_threshold)
        if self.linkage not in LINKAGES:
            raise ValueError(
                f"unknown linkage {self.linkage!r}; choose from {sorted(LINKAGES)}"
            )
        if self.max_cluster_size is not None and self.max_cluster_size < 1:
            raise ValueError("max_cluster_size must be >= 1 or None")

    @property
    def linkage_fn(self) -> LinkageFn:
        return LINKAGES[self.linkage]


def merge_pair(
    work: SparseGraph,
    tracker: MembershipTracker,
    u: int,
    v: int,
    linkage: LinkageFn,
) -> int:
    """Contract edge (u, v) into a fresh vertex using ``linkage``.

    The one contraction both HAC variants perform. Missing edges enter
    the linkage as similarity 0.0 (paper convention), so the merged
    vertex can end up with *weaker* edges than either child had — that
    is the mechanism that stops chains from gluing everything together.
    """
    n_u = tracker.size(u)
    n_v = tracker.size(v)
    nbrs_u = work.neighbors(u)
    nbrs_v = work.neighbors(v)
    merged = tracker.merge(u, v)

    all_nbrs = (set(nbrs_u) | set(nbrs_v)) - {u, v}
    work.add_vertex(merged)
    for c in all_nbrs:
        s_uc = nbrs_u.get(c, 0.0)
        s_vc = nbrs_v.get(c, 0.0)
        new_w = linkage(s_uc, s_vc, n_u, n_v)
        if new_w > 0.0:
            work.set_edge(merged, c, new_w)
    work.remove_vertex(u)
    work.remove_vertex(v)
    return merged


class SequentialHAC:
    """Exact greedy HAC; returns a :class:`Dendrogram`."""

    def __init__(self, config: HACConfig = HACConfig()):
        self._config = config

    @property
    def config(self) -> HACConfig:
        return self._config

    def fit(self, graph: SparseGraph) -> Dendrogram:
        """Cluster ``graph``; the input graph is not modified."""
        cfg = self._config
        linkage = cfg.linkage_fn
        work = graph.copy()
        tracker = MembershipTracker(graph.vertices())
        dendrogram = Dendrogram(graph.vertices())

        # Lazy heap of (-similarity, u, v); stale entries are skipped.
        heap: List[Tuple[float, int, int]] = [
            (-w, u, v) for u, v, w in work.edges()
        ]
        heapq.heapify(heap)
        iteration = 0

        while heap:
            neg_w, u, v = heapq.heappop(heap)
            w = -neg_w
            # Stale checks: both endpoints must be live and the edge's
            # current weight must match (it may have been re-linked).
            if not (work.has_vertex(u) and work.has_vertex(v)):
                continue
            if not work.has_edge(u, v) or work.weight(u, v) != w:
                continue
            if w < cfg.similarity_threshold:
                break
            if cfg.max_cluster_size is not None and (
                tracker.size(u) + tracker.size(v) > cfg.max_cluster_size
            ):
                # This pair may never merge; drop the edge so it cannot
                # block the heap forever.
                work.remove_edge(u, v)
                continue

            merged = merge_pair(work, tracker, u, v, linkage)
            dendrogram.record_merge(Merge(merged, u, v, w, iteration))
            iteration += 1
            for nbr, weight in work.neighbors(merged).items():
                heapq.heappush(heap, (-weight, *(sorted((merged, nbr)))))
        return dendrogram
