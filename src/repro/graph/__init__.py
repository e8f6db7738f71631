"""Graph substrate.

Sparse weighted graphs, the query–item bipartite graph (paper Fig. 2)
and the sliding window of per-day click counts it is built from,
the item-entity-graph builder implementing Eq. 1–3 with sparsification,
Newman–Girvan modularity (the paper's clustering quality metric),
connected components, and the k-hop diffusion primitive underlying
Parallel HAC's local-maximal-edge discovery.
"""

from repro.graph.sparse import SparseGraph
from repro.graph.bipartite import QueryItemGraph, build_query_item_graph
from repro.graph.window import ClickWindow
from repro.graph.entity_graph import (
    EntityGraphBuilder,
    EntityGraphConfig,
    build_entity_graph,
)
from repro.graph.modularity import modularity, weighted_modularity
from repro.graph.components import connected_components
from repro.graph.diffusion import local_maximal_edges
from repro.graph.minhash import LSHConfig, LSHIndex, MinHasher, estimate_jaccard

__all__ = [
    "SparseGraph",
    "QueryItemGraph",
    "build_query_item_graph",
    "ClickWindow",
    "EntityGraphBuilder",
    "EntityGraphConfig",
    "build_entity_graph",
    "modularity",
    "weighted_modularity",
    "connected_components",
    "local_maximal_edges",
    "MinHasher",
    "estimate_jaccard",
    "LSHIndex",
    "LSHConfig",
]
