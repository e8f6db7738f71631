"""F9 — replication lag: a follower keeps up with the primary's cadence.

Two gates, both acceptance criteria of the replication subsystem:

1. **Publish lag is bounded** — the primary's synchronous publish (write
   the generation's serving files into the feed, fingerprint them into
   the generation index) runs on the updater thread and must stay
   under 2s per generation on the tiny profile.

2. **Cold catch-up is bounded** — a cold follower must bootstrap from
   the feed's generation 0, then verify the fingerprint of the whole
   two-generation feed in under 30s.

Replication that lags the micro-batch cadence would make epoch quorum
unreachable in steady state.
"""

from __future__ import annotations

import dataclasses
import time

import pytest

from repro.core.config import ShoalConfig
from repro.core.incremental import IncrementalShoal
from repro.data.marketplace import PROFILES, generate_marketplace
from repro.data.queries import QueryLogConfig
from repro.replication import Follower, GenerationShipper
from repro.store.persistence import (
    load_entity_categories,
    load_model,
    load_window,
)
from repro.streaming import (
    Generation,
    IngestPipe,
    StreamingUpdater,
    WriteAheadLog,
)

BASE_LAST_DAY = 6
MIN_BATCH = 10
PUBLISH_LAG_GATE_S = 2.0
CATCH_UP_GATE_S = 30.0


@pytest.fixture(scope="module")
def repl_bench_market():
    cfg = dataclasses.replace(
        PROFILES["tiny"],
        query_log=QueryLogConfig(n_days=9, events_per_day=300),
    )
    return cfg, generate_marketplace(cfg)


@pytest.fixture(scope="module")
def shipped_feed(repl_bench_market, tmp_path_factory):
    """A primary that shipped two generations; returns the world."""
    _, market = repl_bench_market
    root = tmp_path_factory.mktemp("repl-bench")
    inc0 = IncrementalShoal(
        ShoalConfig(),
        {e.entity_id: e.title for e in market.catalog.entities},
        {q.query_id: q.text for q in market.query_log.queries},
        {e.entity_id: e.category_id for e in market.catalog.entities},
        retrain_every=100,
    )
    inc0.advance(market.query_log, last_day=BASE_LAST_DAY)
    base_dir = root / "base"
    inc0.model.save(
        base_dir,
        entity_categories={
            e.entity_id: e.category_id for e in market.catalog.entities
        },
    )

    model = load_model(base_dir)
    cats = load_entity_categories(base_dir)
    window = load_window(base_dir)
    inc = IncrementalShoal.from_model(
        model, entity_categories=cats, retrain_every=100
    )
    pipe = IngestPipe(WriteAheadLog(root / "wal", fsync="never"))
    shipper = GenerationShipper(
        root / "feed",
        Generation(
            number=0, serving=model.serving(cats), last_day=window.last_day
        ),
    )
    shipper.initialise()
    updater = StreamingUpdater(
        inc,
        pipe,
        switch=None,
        window=window,
        min_batch_events=MIN_BATCH,
        on_generation=shipper.publish_generation,
    )
    updater.recover()

    live = [e for e in market.query_log.events if e.day > BASE_LAST_DAY]
    generations = []
    for chunk in (live[:40], live[40:80]):
        for event in chunk:
            pipe.submit(
                {
                    "day": int(event.day),
                    "user_id": int(event.user_id),
                    "query_id": int(event.query_id),
                    "clicked": [int(c) for c in event.clicked_entity_ids],
                }
            )
        generation = None
        while generation is None:
            generation = updater.run_once(timeout_s=0.2)
        generations.append(generation)
    assert shipper.stats()["generations_published"] == 2
    return root, shipper, generations


class TestReplicationLagGate:
    def test_publish_lag_bounded(self, shipped_feed):
        _, shipper, _ = shipped_feed
        last = shipper.stats()["last_publish_s"]
        print(f"\nlast publish took {last * 1e3:.1f}ms")
        assert last < PUBLISH_LAG_GATE_S

    def test_cold_follower_catch_up_bounded(self, shipped_feed):
        root, _, generations = shipped_feed
        t0 = time.perf_counter()
        follower = Follower(root / "feed", follower_id="bench")
        follower.bootstrap()
        verified = follower.catch_up(timeout_s=CATCH_UP_GATE_S + 30.0)
        elapsed = time.perf_counter() - t0
        print(f"\ncold catch-up: {verified} generations in {elapsed:.2f}s")
        assert verified == len(generations)
        assert follower.stats()["seqs_behind"] == 0
        assert elapsed < CATCH_UP_GATE_S
