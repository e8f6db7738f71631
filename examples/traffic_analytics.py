"""The HTAP analytics tier: query the write path without touching it.

The Polynesia-shaped walkthrough, in one process:

1. fit a base window, stand the read tier up behind the gateway, and
   open the WAL-backed write path;
2. stream two days of live traffic through the ingest pipe while the
   micro-batch updater slides the window — with the taxonomy-drift
   gate armed, so trivially-different generations skip their rollout;
3. tail the WAL into the SQLite analytics store (per-day / per-topic /
   per-query rollups, ops snapshots, reservoir sample) and print the
   canned reports plus one custom guarded SQL statement;
4. prove isolation: analytics queries run against the replica file,
   never a serving structure, and the read path answers identically
   while they run;
5. prove crash-exactness: a second tailer over the same store and WAL
   folds zero new events — nothing lost, nothing doubled.

Run:  PYTHONPATH=src python examples/traffic_analytics.py
"""

import dataclasses
import tempfile
from pathlib import Path

from repro import ShoalConfig, generate_marketplace
from repro.analytics import (
    AnalyticsStore,
    DriftMonitor,
    QueryEngine,
    SegmentTailer,
    make_topic_resolver,
)
from repro.api import AnalyticsRequest, Gateway, SearchRequest, ServiceBackend
from repro.core.incremental import IncrementalShoal
from repro.data.marketplace import PROFILES
from repro.data.queries import QueryLogConfig
from repro.streaming import (
    GenerationSwitch,
    IngestPipe,
    StreamingUpdater,
    WriteAheadLog,
)

BASE_LAST_DAY = 6  # the 7-day base window is days 0..6


def print_table(response) -> None:
    columns = [str(c) for c in response.columns]
    rows = [["" if c is None else str(c) for c in row] for row in response.rows]
    widths = [
        max(len(col), *(len(r[i]) for r in rows)) if rows else len(col)
        for i, col in enumerate(columns)
    ]
    print("  ".join(c.ljust(w) for c, w in zip(columns, widths)))
    print("  ".join("-" * w for w in widths))
    for r in rows:
        print("  ".join(c.ljust(w) for c, w in zip(r, widths)))


def main() -> None:
    config = dataclasses.replace(
        PROFILES["tiny"],
        query_log=QueryLogConfig(n_days=9, events_per_day=400),
    )
    market = generate_marketplace(config)
    titles = {e.entity_id: e.title for e in market.catalog.entities}
    query_texts = {q.query_id: q.text for q in market.query_log.queries}
    categories = {e.entity_id: e.category_id for e in market.catalog.entities}

    inc = IncrementalShoal(ShoalConfig(), titles, query_texts, categories)
    update = inc.advance(market.query_log, last_day=BASE_LAST_DAY)
    print(f"base {update.summary()}")

    backend = ServiceBackend.from_model(
        update.model, entity_categories=categories
    )
    gateway = Gateway(backend)
    switch = GenerationSwitch().attach(backend)
    switch.attach(gateway)

    # The write path, with the drift gate armed: a generation whose
    # entity partition matches what is already serving skips the swap.
    wal_dir = Path(tempfile.mkdtemp(prefix="shoal-analytics-wal-"))
    wal = WriteAheadLog(wal_dir, fsync="batch")
    pipe = IngestPipe(wal, max_queue=8192)
    updater = StreamingUpdater(
        inc,
        pipe,
        switch=switch,
        batch_max_events=400,
        batch_max_age_s=0.0,
        drift_gate=DriftMonitor(threshold=0.0),
    )

    # The analytics side: an isolated SQLite replica fed by tailing
    # the same WAL the pipe appends to. The resolver attributes each
    # event's query to a leaf topic through the serving backend.
    db_path = wal_dir / "analytics.db"
    store = AnalyticsStore(db_path)
    tailer = SegmentTailer(
        wal, store, resolver=make_topic_resolver(backend), ingest_pipe=pipe
    )
    engine = QueryEngine(store)

    live = [e for e in market.query_log.events if e.day > BASE_LAST_DAY]
    probe = next(
        q.text for q in market.query_log.queries if q.intent_kind == "scenario"
    )
    print(f"\nstreaming {len(live)} live events through {wal_dir} ...")
    for i, e in enumerate(live, 1):
        pipe.submit(
            {
                "day": e.day,
                "user_id": e.user_id,
                "query_id": e.query_id,
                "clicked": list(e.clicked_entity_ids),
                "query_text": query_texts[e.query_id],
            }
        )
        if i % 400 == 0:
            generation = updater.run_once(timeout_s=0.0)
            if generation is not None:
                print(f"  {generation.summary()}")
            # The tailer keeps pace with the log — and reads stay live.
            tailer.catch_up()
            gateway.search(SearchRequest(query=probe, k=3))
    while pipe.queue_depth():
        updater.run_once(timeout_s=0.0)
    tailer.catch_up()
    stats = updater.stats()
    print(
        f"updater: {stats.events_applied} events -> {stats.generations} "
        f"generations, {stats.rollouts_skipped} rollout(s) skipped as "
        f"trivial by the drift gate"
    )

    print(f"\nanalytics store: {store.counts()}")
    for name in ("daily", "trending", "topics"):
        print(f"\n-- report: {name} " + "-" * (43 - len(name)))
        print_table(engine.report(name, limit=8))

    print("\n-- custom SQL (guarded, read-only) " + "-" * 25)
    print_table(
        engine.query(
            AnalyticsRequest(
                sql=(
                    "SELECT day, COUNT(DISTINCT user_id) AS users, "
                    "SUM(n_clicks) AS clicks FROM events GROUP BY day"
                ),
                limit=10,
            )
        )
    )

    print("\n-- the same relation, over the reservoir sample " + "-" * 12)
    sampled = engine.query(
        AnalyticsRequest(sql="SELECT COUNT(*) AS n FROM events", sample=True)
    )
    print(
        f"full scan saw {store.event_count()} events; the sampled view "
        f"saw {sampled.rows[0][0]} (capacity-bounded, uniform)"
    )

    # Isolation spot-check: the read path answers identically with the
    # analytics engine mid-query (different files, different locks).
    before = gateway.search(SearchRequest(query=probe, k=5))
    engine.report("daily")
    assert gateway.search(SearchRequest(query=probe, k=5)) == before
    print("\nread path unchanged while analytics ran (isolation holds)")

    # Crash-exactness: a "restarted" tailer over the same store + WAL.
    store.close()
    reopened = AnalyticsStore(db_path)
    refolded = SegmentTailer(wal, reopened).catch_up()
    assert refolded == 0, refolded
    assert reopened.event_count() == sum(1 for _ in wal.replay(after_seq=0))
    print(
        "restart folded 0 events; store count equals a full WAL replay "
        "(exactly-once held)"
    )
    reopened.close()
    wal.close()


if __name__ == "__main__":
    main()
