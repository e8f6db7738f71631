"""Query–item bipartite graph (paper Fig. 2).

The raw material of SHOAL: queries on one side, item entities on the
other, an edge whenever a query led to clicks on an entity, weighted by
click count. From this graph come the per-entity query sets used by the
Jaccard similarity (Eq. 1) and the query↔topic links used by the
description matcher (Sec. 2.3).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

import numpy as np

from repro.data.queries import QueryLog

__all__ = ["QueryItemGraph", "build_query_item_graph"]


class QueryItemGraph:
    """Weighted bipartite graph between query ids and entity ids."""

    def __init__(self):
        self._query_to_entities: Dict[int, Dict[int, int]] = {}
        self._entity_to_queries: Dict[int, Dict[int, int]] = {}
        self._total_clicks = 0

    # -- construction ---------------------------------------------------------

    def add_click(self, query_id: int, entity_id: int, count: int = 1) -> None:
        """Record ``count`` clicks of ``entity_id`` for ``query_id``."""
        if count <= 0:
            raise ValueError("click count must be positive")
        q = self._query_to_entities.setdefault(query_id, {})
        q[entity_id] = q.get(entity_id, 0) + count
        e = self._entity_to_queries.setdefault(entity_id, {})
        e[query_id] = e.get(query_id, 0) + count
        self._total_clicks += count

    # -- structure --------------------------------------------------------------

    @property
    def n_queries(self) -> int:
        return len(self._query_to_entities)

    @property
    def n_entities(self) -> int:
        return len(self._entity_to_queries)

    @property
    def n_edges(self) -> int:
        return sum(len(v) for v in self._query_to_entities.values())

    @property
    def total_clicks(self) -> int:
        return self._total_clicks

    def query_ids(self) -> List[int]:
        return sorted(self._query_to_entities)

    def entity_ids(self) -> List[int]:
        return sorted(self._entity_to_queries)

    def has_edge(self, query_id: int, entity_id: int) -> bool:
        return entity_id in self._query_to_entities.get(query_id, {})

    def clicks(self, query_id: int, entity_id: int) -> int:
        return self._query_to_entities.get(query_id, {}).get(entity_id, 0)

    # -- views used by the pipeline --------------------------------------------

    def queries_of_entity(self, entity_id: int) -> FrozenSet[int]:
        """Query-id set of an entity: the ``Q_u`` of Eq. 1."""
        return frozenset(self._entity_to_queries.get(entity_id, {}))

    def entities_of_query(self, query_id: int) -> FrozenSet[int]:
        return frozenset(self._query_to_entities.get(query_id, {}))

    def query_clicks_of_entity(self, entity_id: int) -> Dict[int, int]:
        """Mapping query_id → click count for one entity."""
        return dict(self._entity_to_queries.get(entity_id, {}))

    def entity_clicks_of_query(self, query_id: int) -> Dict[int, int]:
        return dict(self._query_to_entities.get(query_id, {}))

    def entity_query_sets(self) -> Dict[int, FrozenSet[int]]:
        """All ``Q_u`` sets at once (entity_id → frozenset of query ids)."""
        return {
            e: frozenset(qs) for e, qs in self._entity_to_queries.items()
        }

    def co_click_counts(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Entity pairs sharing at least one query — the *candidate
        edges* of the item entity graph; any other pair has Sq = 0.

        Returns parallel arrays ``(us, vs, shared)`` with ``u < v``,
        sorted by pair. Each query contributes one integer key per pair
        of its entities, so a key's multiplicity is ``|Q_u ∩ Q_v|``.
        """
        ids = np.array(self.entity_ids(), dtype=np.int64)
        n = len(ids)
        groups = [sorted(es) for es in self._query_to_entities.values() if len(es) > 1]
        if not groups:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty, empty
        # One buffer, sorted in place: no per-query list, concatenate or
        # np.unique copy. int32 halves it when every key (< n*n) fits.
        total = sum(len(g) * (len(g) - 1) // 2 for g in groups)
        keys = np.empty(total, dtype=np.int32 if n * n < 2**31 else np.int64)
        filled = 0
        for entities in groups:
            index = np.searchsorted(ids, entities)
            i, j = np.triu_indices(len(index), 1)
            keys[filled : filled + len(i)] = index[i] * n + index[j]
            filled += len(i)
        keys.sort()
        # A run of equal keys is one pair; its length is the count.
        starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
        pairs, shared = keys[starts], np.diff(starts, append=total)
        return ids[pairs // n], ids[pairs % n], shared

    def edges(self) -> Iterable[Tuple[int, int, int]]:
        """Iterate (query_id, entity_id, clicks)."""
        for q in sorted(self._query_to_entities):
            for e in sorted(self._query_to_entities[q]):
                yield (q, e, self._query_to_entities[q][e])


def build_query_item_graph(
    query_log: QueryLog,
    first_day: Optional[int] = None,
    last_day: Optional[int] = None,
    min_clicks: int = 1,
) -> QueryItemGraph:
    """Aggregate a query log into the bipartite graph.

    ``first_day``/``last_day`` select the sliding window (paper: the
    last seven days); ``min_clicks`` drops edges with fewer total
    clicks, a standard denoising step.
    """
    log = query_log
    if first_day is not None or last_day is not None:
        days = log.days()
        if not days:
            return QueryItemGraph()
        lo = first_day if first_day is not None else days[0]
        hi = last_day if last_day is not None else days[-1]
        log = log.window(lo, hi)
    graph = QueryItemGraph()
    for query_id, entity_id, count in log.query_entity_pairs():
        if count >= min_clicks:
            graph.add_click(query_id, entity_id, count)
    return graph
