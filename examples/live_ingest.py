"""Live ingestion: query traffic flowing into the model while it serves.

The write path end to end, in one process:

1. fit a base 7-day window and stand the read tier up behind the
   gateway API;
2. open a durable write-ahead log and an admission-controlled ingest
   pipe in front of it;
3. stream two days of "live" traffic through the pipe while a reader
   keeps querying;
4. let the micro-batch updater slide the window and hot-swap each new
   generation into the serving backend — health-checked, with zero
   read downtime;
5. crash-proof by construction: reopen the WAL the way a restarted
   process would and show that every admitted event replays exactly
   once.

Run:  python examples/live_ingest.py
"""

import dataclasses
import tempfile
from pathlib import Path

from repro import ShoalConfig, generate_marketplace
from repro.api import Gateway, SearchRequest, ServiceBackend
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


def main() -> None:
    # A 9-day log: 7 base days the model is fitted on, 2 live days to
    # stream in afterwards.
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

    # The read tier, built from the base model, behind a gateway. The
    # switch below is the only thing that refreshes it.
    backend = ServiceBackend.from_model(
        update.model, entity_categories=categories
    )
    gateway = Gateway(backend)
    probe = next(
        q.text
        for q in market.query_log.queries
        if q.intent_kind == "scenario"
    )

    # The write path: WAL -> bounded pipe -> micro-batch updater ->
    # health-checked hot-swap into backend AND gateway.
    wal_dir = Path(tempfile.mkdtemp(prefix="shoal-wal-"))
    switch = GenerationSwitch(probe_queries=[probe])
    switch.attach(backend, name="read-tier").attach(gateway)
    wal = WriteAheadLog(wal_dir, fsync="batch")
    pipe = IngestPipe(wal, max_queue=8192)
    updater = StreamingUpdater(
        inc, pipe, switch=switch, batch_max_events=400, batch_max_age_s=0.0
    )
    updater.seed_log(market.query_log.window(0, BASE_LAST_DAY))

    live = [e for e in market.query_log.events if e.day > BASE_LAST_DAY]
    print(f"\nstreaming {len(live)} live events through {wal_dir} ...")
    before = gateway.search(SearchRequest(query=probe, k=3))
    for i, e in enumerate(live, 1):
        pipe.submit(
            {
                "day": e.day,
                "user_id": e.user_id,
                "query_id": e.query_id,
                "clicked": list(e.clicked_entity_ids),
            }
        )
        if i % 400 == 0 or i == len(live):
            generation = updater.run_once(timeout_s=0.0)
            if generation is not None:
                print(f"  {generation.summary()}")
                print(f"    {switch.stats()}")
    after = gateway.search(SearchRequest(query=probe, k=3))
    print(f"\nprobe {probe!r}: {len(before.hits)} hits before, "
          f"{len(after.hits)} after — served continuously throughout")

    # The crash-recovery story: a restarted process replays the WAL.
    stats = updater.stats()
    print(f"\nupdater: {stats.to_dict()}")
    reopened = WriteAheadLog(wal_dir, fsync="never")
    replayed = sum(1 for _ in reopened.replay())
    retained = reopened.stats()["events_retained"]
    print(
        f"reopened WAL: {replayed} events replayable "
        f"({retained} retained after window compaction) — a restarted "
        f"updater would rebuild this exact window"
    )


if __name__ == "__main__":
    main()
