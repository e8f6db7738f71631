"""Shared fixtures for the replication suite.

One session-scoped "shipped world" — a primary that streamed two
micro-batches through the WAL and published each generation's serving
files + a generation index into a feed — is built once; tests that
mutate feed state (follower reports, epoch broadcasts, corrupted files)
work on per-test copies of that feed so they cannot bleed into each
other.
"""

from __future__ import annotations

import dataclasses
import shutil

import pytest

from repro.core.config import ShoalConfig
from repro.core.incremental import IncrementalShoal
from repro.data.marketplace import PROFILES, generate_marketplace
from repro.data.queries import QueryLogConfig
from repro.api import ServiceBackend
from repro.core.serving import ShoalService
from repro.replication import GenerationShipper
from repro.store.persistence import load_serving, load_window
from repro.streaming import (
    Generation,
    GenerationInstaller,
    GenerationSwitch,
    IngestPipe,
    StreamingUpdater,
    WriteAheadLog,
)

BASE_LAST_DAY = 6  # the 7-day base window is days 0..6
MIN_BATCH = 10


@pytest.fixture(scope="session")
def repl_config():
    return dataclasses.replace(
        PROFILES["tiny"],
        query_log=QueryLogConfig(n_days=9, events_per_day=300),
    )


@pytest.fixture(scope="session")
def repl_market(repl_config):
    return generate_marketplace(repl_config)


@pytest.fixture(scope="session")
def repl_live_events(repl_market):
    """Events beyond the base window, in event order."""
    return [
        e for e in repl_market.query_log.events if e.day > BASE_LAST_DAY
    ]


@pytest.fixture(scope="session")
def repl_base_snapshot(tmp_path_factory, repl_market):
    """The base model snapshot both primary and followers boot from. Its
    manifest names no world: nothing downstream regenerates one."""
    market = repl_market
    inc = IncrementalShoal(
        ShoalConfig(),
        {e.entity_id: e.title for e in market.catalog.entities},
        {q.query_id: q.text for q in market.query_log.queries},
        {e.entity_id: e.category_id for e in market.catalog.entities},
        retrain_every=100,
    )
    inc.advance(market.query_log, last_day=BASE_LAST_DAY)
    target = tmp_path_factory.mktemp("repl") / "base-snapshot"
    inc.model.save(
        target,
        entity_categories={
            e.entity_id: e.category_id for e in market.catalog.entities
        },
    )
    return target


def build_primary(root, base_snapshot):
    """(pipe, updater, shipper) — the primary's write side, wired to
    ship into ``root/feed`` exactly as ``serve-http --ship-feed`` does:
    a tier serving the snapshot, a fold restarted from it (its click
    window, then a WAL replay), and an installer that swaps and ships
    each generation the fold writes."""
    serving = load_serving(base_snapshot)
    baseline = Generation(
        number=0,
        serving=serving,
        last_day=load_window(base_snapshot).last_day,
    )
    shipper = GenerationShipper(root / "feed", baseline)
    shipper.initialise()
    wal = WriteAheadLog(root / "wal", fsync="never")
    switch = GenerationSwitch(baseline=baseline).attach(
        ServiceBackend(ShoalService(serving))
    )
    installer = GenerationInstaller(
        switch, wal, on_generation=shipper.publish_generation
    )
    updater = StreamingUpdater.restart(
        base_snapshot,
        wal,
        root / "gens",
        retrain_every=100,
        min_batch_events=MIN_BATCH,
        batch_max_age_s=0.0,
        on_generation=installer.install,
    )
    updater.recover()
    return IngestPipe(wal), updater, shipper


def event_payload(event) -> dict:
    return {
        "day": int(event.day),
        "user_id": int(event.user_id),
        "query_id": int(event.query_id),
        "clicked": [int(c) for c in event.clicked_entity_ids],
    }


def stream_generation(pipe, updater, events):
    """Push ``events`` and drive the updater until it ships a generation."""
    for event in events:
        pipe.submit(event_payload(event))
    generation = None
    while generation is None:
        generation = updater.run_once(timeout_s=0.2)
    return generation


@pytest.fixture(scope="session")
def shipped_world(
    tmp_path_factory, repl_base_snapshot, repl_live_events,
):
    """A primary that shipped two generations (events [:40], [40:80]).

    Returns (root, updater, generations) — treat the feed under
    ``root / 'feed'`` as read-only; use the ``feed_copy`` fixture for
    anything that writes reports or epochs.
    """
    root = tmp_path_factory.mktemp("shipped-world")
    pipe, updater, shipper = build_primary(root, repl_base_snapshot)
    generations = [
        stream_generation(pipe, updater, repl_live_events[:40]),
        stream_generation(pipe, updater, repl_live_events[40:80]),
    ]
    assert shipper.stats()["generations_published"] == 2
    return root, updater, generations


@pytest.fixture
def feed_copy(tmp_path, shipped_world):
    """A private, mutable copy of the shipped world's feed."""
    root, _, _ = shipped_world
    target = tmp_path / "feed"
    shutil.copytree(root / "feed", target)
    return target
