"""Shared fixtures for the streaming-ingest suite.

The streaming tests need a marketplace whose log outlives the 7-day
window (so live days exist to stream in) and a warm base maintainer;
both are expensive, so they are module-scoped where the test only
reads and function-scoped where it mutates.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.api import ServiceBackend
from repro.core.config import ShoalConfig
from repro.core.incremental import IncrementalShoal
from repro.data.marketplace import PROFILES, generate_marketplace
from repro.data.queries import QueryLogConfig

BASE_LAST_DAY = 6  # the 7-day base window is days 0..6


@pytest.fixture(scope="session")
def stream_market():
    """A tiny marketplace with a 9-day log: 7 base days + 2 live days."""
    cfg = dataclasses.replace(
        PROFILES["tiny"],
        query_log=QueryLogConfig(n_days=9, events_per_day=300),
    )
    return generate_marketplace(cfg)


@pytest.fixture(scope="session")
def stream_inputs(stream_market):
    titles = {e.entity_id: e.title for e in stream_market.catalog.entities}
    query_texts = {
        q.query_id: q.text for q in stream_market.query_log.queries
    }
    categories = {
        e.entity_id: e.category_id
        for e in stream_market.catalog.entities
    }
    return titles, query_texts, categories


@pytest.fixture(scope="session")
def live_events(stream_market):
    """The events beyond the base window, in event order."""
    return [
        e
        for e in stream_market.query_log.events
        if e.day > BASE_LAST_DAY
    ]


def make_base_inc(stream_market, stream_inputs) -> IncrementalShoal:
    """A fresh maintainer advanced over the base window (days 0..6)."""
    titles, query_texts, categories = stream_inputs
    inc = IncrementalShoal(
        ShoalConfig(), titles, query_texts, categories, retrain_every=100
    )
    inc.advance(stream_market.query_log, last_day=BASE_LAST_DAY)
    return inc


def serving_tier(inc: IncrementalShoal) -> ServiceBackend:
    """A read tier built from the maintainer's current model. Only a
    GenerationSwitch it is attached to keeps it current."""
    return ServiceBackend.from_model(
        inc.model, entity_categories=inc.entity_categories
    )


@pytest.fixture
def base_inc(stream_market, stream_inputs) -> IncrementalShoal:
    return make_base_inc(stream_market, stream_inputs)


def event_payload(event) -> dict:
    """A generated QueryEvent as a wire-shaped ingest payload."""
    return {
        "day": int(event.day),
        "user_id": int(event.user_id),
        "query_id": int(event.query_id),
        "clicked": [int(c) for c in event.clicked_entity_ids],
    }
