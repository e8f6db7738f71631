"""The sliding window of per-day click counts (paper Sec. 3).

SHOAL refits from "a sliding window containing search queries in the
last seven days". The query–item bipartite graph only needs how often
each query led to a click on each entity, so the window keeps exactly
that, per day — ``{day: {(query_id, entity_id): clicks}}`` as sorted
integer columns — plus each day's event count, since a day with events
but no clicks still moves the window head.

A live event lands in O(1); its clicks join the columns the next time
they are read. Retention keys off the newest day: days older than
``newest − window_days + 1`` are dropped, and an event for such a day
is dropped on arrival.

A fitted model carries the window it was fitted on and its snapshot
persists it (``window.npz``), so a restarted maintainer resumes from the
snapshot plus its write-ahead log, without the raw events.
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro._util import check_positive
from repro.data.queries import QueryLog
from repro.graph.bipartite import QueryItemGraph

__all__ = ["ClickWindow"]

_Columns = Tuple[np.ndarray, ...]


def _aggregate(columns: _Columns, counts: np.ndarray) -> Tuple[_Columns, np.ndarray]:
    """Sum ``counts`` over equal rows of ``columns``; rows come back
    sorted lexicographically, first column first."""
    if not len(counts):
        return tuple(c[:0] for c in columns), counts[:0]
    order = np.lexsort(columns[::-1])
    columns = tuple(c[order] for c in columns)
    starts = np.zeros(len(counts), dtype=bool)
    starts[0] = True
    for column in columns:
        starts[1:] |= column[1:] != column[:-1]
    index = np.flatnonzero(starts)
    return tuple(c[index] for c in columns), np.add.reduceat(counts[order], index)


def _int_array(values) -> np.ndarray:
    return np.asarray(values, dtype=np.int64)


class ClickWindow:
    """Per-day ``(query, entity) → clicks`` counts of the sliding window."""

    def __init__(self, window_days: int):
        check_positive("window_days", window_days)
        self._window_days = window_days
        empty = _int_array([])
        #: Clicks as columns sorted by (day, query, entity), one row per
        #: distinct triple.
        self._day = self._query = self._entity = self._clicks = empty
        self._events: Dict[int, int] = {}
        #: (day, query_id, entity_id) of clicks not yet in the columns.
        self._pending: List[Tuple[int, int, int]] = []
        self._stale = False

    @classmethod
    def from_log(
        cls,
        log: QueryLog,
        window_days: int,
        first_day: Optional[int] = None,
        last_day: Optional[int] = None,
    ) -> "ClickWindow":
        """The window over ``log``'s days in ``[first_day, last_day]``
        (open-ended where None), aggregated in one pass."""
        lo = -np.inf if first_day is None else first_day
        hi = np.inf if last_day is None else last_day
        events = [e for e in log.events if lo <= e.day <= hi]
        n_clicks = [len(e.clicked_entity_ids) for e in events]
        window = cls(window_days)
        columns = (
            np.repeat(_int_array([e.day for e in events]), n_clicks),
            np.repeat(_int_array([e.query_id for e in events]), n_clicks),
            np.fromiter(
                chain.from_iterable(e.clicked_entity_ids for e in events),
                dtype=np.int64,
                count=sum(n_clicks),
            ),
        )
        window._set(*_aggregate(columns, np.ones(len(columns[0]), np.int64)))
        for e in events:
            window._events[e.day] = window._events.get(e.day, 0) + 1
        return window

    # -- columns (the snapshot format) -------------------------------------

    def columns(self) -> Dict[str, np.ndarray]:
        """The window as integer columns, the ``window.npz`` layout."""
        self._flush()
        days = sorted(self._events)
        return {
            "window_days": _int_array([self._window_days]),
            "days": self._day,
            "query_ids": self._query,
            "entity_ids": self._entity,
            "clicks": self._clicks,
            "event_days": _int_array(days),
            "event_counts": _int_array([self._events[d] for d in days]),
        }

    @classmethod
    def from_columns(cls, columns: Mapping[str, np.ndarray]) -> "ClickWindow":
        """Inverse of :meth:`columns`."""
        window = cls(int(columns["window_days"][0]))
        window._set(
            (
                _int_array(columns["days"]),
                _int_array(columns["query_ids"]),
                _int_array(columns["entity_ids"]),
            ),
            _int_array(columns["clicks"]),
        )
        window._events = {
            int(d): int(n)
            for d, n in zip(columns["event_days"], columns["event_counts"])
        }
        return window

    def _set(self, columns: _Columns, clicks: np.ndarray) -> None:
        self._day, self._query, self._entity = columns
        self._clicks = clicks

    # -- writes ------------------------------------------------------------

    def add_event(
        self, day: int, query_id: int, clicked_entity_ids: Sequence[int]
    ) -> None:
        """Count one search event. An event older than the window is
        dropped, as in production; a day newer than the head slides the
        window, and older days leave.
        """
        if day < 0:
            raise ValueError("day must be >= 0")
        head = max(day, max(self._events, default=day))
        cutoff = head - self._window_days + 1
        expired = [d for d in self._events if d < cutoff]
        for d in expired:
            del self._events[d]
        self._stale = self._stale or bool(expired)
        if day < cutoff:
            return
        self._events[day] = self._events.get(day, 0) + 1
        self._pending.extend((day, query_id, e) for e in clicked_entity_ids)
        self._stale = self._stale or bool(clicked_entity_ids)

    def _flush(self) -> None:
        """Fold pending clicks into the columns and drop expired days."""
        if not self._stale:
            return
        first = min(self._events, default=0)
        pending = _int_array(self._pending).reshape(-1, 3)
        pending = pending[pending[:, 0] >= first]
        keep = self._day >= first
        columns = (
            np.concatenate((self._day[keep], pending[:, 0])),
            np.concatenate((self._query[keep], pending[:, 1])),
            np.concatenate((self._entity[keep], pending[:, 2])),
        )
        counts = np.concatenate(
            (self._clicks[keep], np.ones(len(pending), np.int64))
        )
        self._set(*_aggregate(columns, counts))
        self._pending = []
        self._stale = False

    # -- reads -------------------------------------------------------------

    @property
    def window_days(self) -> int:
        return self._window_days

    def days(self) -> List[int]:
        """Days that hold at least one event."""
        return sorted(self._events)

    @property
    def last_day(self) -> Optional[int]:
        """The window head, or None while the window is empty."""
        return max(self._events, default=None)

    def n_events(self) -> int:
        return sum(self._events.values())

    def between(
        self, first_day: Optional[int] = None, last_day: Optional[int] = None
    ) -> "ClickWindow":
        """An independent copy restricted to ``[first_day, last_day]``."""
        self._flush()
        lo = -np.inf if first_day is None else first_day
        hi = np.inf if last_day is None else last_day
        out = ClickWindow(self._window_days)
        keep = (self._day >= lo) & (self._day <= hi)
        out._set(
            (self._day[keep], self._query[keep], self._entity[keep]),
            self._clicks[keep],
        )
        out._events = {d: n for d, n in self._events.items() if lo <= d <= hi}
        return out

    def graph(self, min_clicks: int = 1) -> QueryItemGraph:
        """The bipartite graph over every day held: clicks summed across
        days, edges with fewer than ``min_clicks`` dropped."""
        self._flush()
        (query, entity), clicks = _aggregate(
            (self._query, self._entity), self._clicks
        )
        keep = clicks >= min_clicks
        graph = QueryItemGraph()
        for q, e, c in zip(
            query[keep].tolist(), entity[keep].tolist(), clicks[keep].tolist()
        ):
            graph.add_click(q, e, c)
        return graph
