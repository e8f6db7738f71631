"""Tests for repro.graph.window (the sliding window of click counts)."""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.queries import QueryEvent, QueryLog
from repro.graph.bipartite import build_query_item_graph
from repro.graph.window import ClickWindow


def _graph_state(graph):
    """Everything a graph holds, insertion order included."""
    return (
        list(graph.edges()),
        [(q, list(es.items())) for q, es in graph._query_to_entities.items()],
        [(e, list(qs.items())) for e, qs in graph._entity_to_queries.items()],
        graph.total_clicks,
    )


class TestWrites:
    def test_add_and_count(self):
        w = ClickWindow(3)
        w.add_event(0, 0, [1, 2])
        w.add_event(0, 1, [3])
        assert w.n_events() == 2
        assert w.days() == [0]
        assert w.last_day == 0

    def test_negative_day_rejected(self):
        with pytest.raises(ValueError):
            ClickWindow(3).add_event(-1, 0, [1])

    def test_event_without_clicks_still_moves_the_head(self):
        w = ClickWindow(3)
        w.add_event(0, 0, [1])
        w.add_event(2, 0, [])
        assert w.days() == [0, 2]
        assert w.last_day == 2
        assert w.graph().total_clicks == 1

    def test_empty_window(self):
        w = ClickWindow(7)
        assert w.days() == [] and w.last_day is None and w.n_events() == 0
        assert w.graph().n_edges == 0


class TestRetention:
    def test_old_days_dropped(self):
        w = ClickWindow(3)
        for day in range(6):
            w.add_event(day, 0, [day])
        # window_days=3, newest day=5 → keep days 3,4,5.
        assert w.days() == [3, 4, 5]
        assert sorted(w.graph().entity_ids()) == [3, 4, 5]

    def test_event_older_than_the_window_is_dropped(self):
        w = ClickWindow(3)
        w.add_event(5, 0, [1])
        w.add_event(2, 0, [2])
        w.add_event(3, 0, [3])
        assert w.days() == [3, 5]
        assert w.graph().entity_ids() == [1, 3]

    def test_retention_respects_window_days(self):
        w = ClickWindow(1)
        w.add_event(0, 0, [1])
        w.add_event(5, 0, [2])
        assert w.days() == [5]

    def test_window_days_validated(self):
        with pytest.raises(ValueError):
            ClickWindow(0)


class TestCopies:
    def test_between_is_independent(self):
        w = ClickWindow(7)
        w.add_event(0, 0, [1])
        w.add_event(1, 0, [1])
        copy = w.between(1, 1)
        w.add_event(1, 0, [1])
        assert copy.n_events() == 1
        assert copy.graph().clicks(0, 1) == 1
        assert w.graph().clicks(0, 1) == 3

    def test_from_log_matches_the_pipeline_fit(self, tiny_model):
        assert tiny_model.window is not None
        assert _graph_state(
            tiny_model.window.graph(tiny_model.config.min_clicks)
        ) == _graph_state(tiny_model.bipartite)


#: Events: (day, query_id, clicked entity ids) — small id ranges so
#: clicks repeat within and across events and days.
EVENTS = st.lists(
    st.tuples(
        st.integers(0, 15),
        st.integers(0, 5),
        st.lists(st.integers(0, 6), max_size=4),
    ),
    max_size=60,
)


def _log(events):
    return QueryLog(
        [],
        [
            QueryEvent(i, day, 0, q, tuple(clicked))
            for i, (day, q, clicked) in enumerate(events)
        ],
    )


class TestWindowGraphProperty:
    @settings(max_examples=150, deadline=None)
    @given(
        events=EVENTS,
        window_days=st.integers(1, 8),
        min_clicks=st.integers(1, 3),
    )
    def test_live_window_graph_equals_the_log_graph(
        self, events, window_days, min_clicks
    ):
        """Events arriving in any day order (skewed days, days sliding
        out) leave the window holding exactly the head's last
        ``window_days`` days: its graph is the log's graph over them."""
        w = ClickWindow(window_days)
        for day, q, clicked in events:
            w.add_event(day, q, clicked)
        if not events:
            assert w.last_day is None
            return
        last = w.last_day
        first = max(0, last - window_days + 1)
        log = _log(events)
        want = build_query_item_graph(log, first, last, min_clicks)
        assert _graph_state(w.between(first, last).graph(min_clicks)) == (
            _graph_state(want)
        )
        assert _graph_state(w.graph(min_clicks)) == _graph_state(want)
        assert w.n_events() == sum(first <= e[0] <= last for e in events)
        bulk = ClickWindow.from_log(log, window_days, first, last)
        assert _graph_state(bulk.graph(min_clicks)) == _graph_state(want)

    @settings(max_examples=60, deadline=None)
    @given(events=EVENTS, window_days=st.integers(1, 8))
    def test_columns_roundtrip_through_npz(self, events, window_days):
        w = ClickWindow(window_days)
        for day, q, clicked in events:
            w.add_event(day, q, clicked)
        buf = io.BytesIO()
        np.savez_compressed(buf, **w.columns())
        buf.seek(0)
        with np.load(buf) as z:
            back = ClickWindow.from_columns(z)
        assert back.window_days == window_days
        assert back.days() == w.days() and back.n_events() == w.n_events()
        assert _graph_state(back.graph()) == _graph_state(w.graph())
