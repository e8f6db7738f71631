"""Query–item bipartite graph (paper Fig. 2).

The raw material of SHOAL: queries on one side, item entities on the
other, an edge whenever a query led to clicks on an entity, weighted by
click count. From this graph come the per-entity query sets used by the
Jaccard similarity (Eq. 1) and the query↔topic links used by the
description matcher (Sec. 2.3).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Tuple

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

    def query_counts(self) -> np.ndarray:
        """``|Q_u|`` of every entity, in :meth:`entity_ids` order."""
        return np.array(
            [len(self._entity_to_queries[e]) for e in self.entity_ids()],
            dtype=np.int64,
        )

    def co_click_blocks(
        self, block: int
    ) -> Iterator[Tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Entity pairs sharing at least one query — the *candidate
        edges* of the item entity graph; any other pair has Sq = 0.

        Yields parallel arrays ``(iu, iv, shared)`` of rows of
        :meth:`entity_ids` with ``iu < iv``, in ``(iu, iv)`` order across
        all blocks. A block is a run of whole rows ``iu``: as many as
        share at most ``block`` *pair instances* (one per query a pair
        shares, so an instance count is ``|Q_u ∩ Q_v|`` summed), or one
        row alone when it has more. What a block holds is bounded that
        way; the per-row index it is cut from is linear in the
        query–entity edges, and nothing grows with the candidate count.
        """
        groups = [sorted(es) for es in self._query_to_entities.values() if len(es) > 1]
        if not groups:
            return
        ids = np.array(self.entity_ids(), dtype=np.int64)
        n = len(ids)
        sizes = np.array([len(g) for g in groups], dtype=np.int64)
        # Every query's members as ascending rows, laid end to end: a
        # member pairs with the ones after it in its query, its fan.
        members = np.searchsorted(ids, np.fromiter(
            (e for g in groups for e in g), dtype=np.int64, count=int(sizes.sum())
        ))
        del groups
        fan = np.repeat(np.cumsum(sizes), sizes) - np.arange(len(members)) - 1
        # The same positions by row: one row's instances are contiguous.
        by_row = np.argsort(members, kind="stable")
        rows, first, fan = members[by_row], by_row + 1, fan[by_row]
        # Pair instances in rows 0..r, for each r.
        through = np.cumsum(np.bincount(rows, weights=fan, minlength=n).astype(np.int64))
        r0 = 0
        while r0 < n:
            before = through[r0 - 1] if r0 else 0
            r1 = max(r0 + 1, int(np.searchsorted(through, before + block, side="right")))
            p0, p1 = np.searchsorted(rows, [r0, r1])
            r0 = r1
            lens = fan[p0:p1]
            total = int(lens.sum())
            if total == 0:
                continue
            # Ragged gather: each position's partners, one run per position.
            at = np.repeat(first[p0:p1] - (np.cumsum(lens) - lens), lens)
            at += np.arange(total)
            keys = members[at]
            del at
            keys += np.repeat(rows[p0:p1] * n, lens)
            keys.sort()
            # A run of equal keys is one pair; its length is the count.
            starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
            pairs, shared = keys[starts], np.diff(starts, append=total)
            del keys, starts  # not held while the block is scored
            yield pairs // n, pairs % n, shared

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
