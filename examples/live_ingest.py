"""Live ingestion: query traffic flowing into the model while it serves.

The write path end to end, as ``serve-http --ingest-wal`` runs it:

1. fit a base 7-day window, save it as a snapshot (its click window
   included), and stand the read tier up from the snapshot behind the
   gateway API;
2. open a durable write-ahead log and an admission-controlled ingest
   pipe in front of it;
3. spawn the fold process: a child interpreter that tails the WAL,
   slides the window and writes each new generation as a snapshot;
4. stream two days of "live" traffic through the pipe while a reader
   keeps querying; this process loads each generation the child writes
   and hot-swaps it into the serving backend — health-checked, with
   zero read downtime;
5. crash-proof by construction: the child restarts from its newest
   generation plus the WAL after it, so every admitted event is folded
   exactly once.

Run:  python examples/live_ingest.py
"""

import dataclasses
import tempfile
import time
from pathlib import Path

from repro import ShoalConfig, generate_marketplace
from repro.api import Gateway, SearchRequest, open_backend
from repro.core.incremental import IncrementalShoal
from repro.data.marketplace import PROFILES
from repro.data.queries import QueryLogConfig
from repro.store.persistence import load_window
from repro.streaming import (
    FoldProcess,
    Generation,
    GenerationInstaller,
    GenerationSwitch,
    IngestPipe,
    WriteAheadLog,
    probe_queries,
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
    # The offline fit over the base window only.
    model = IncrementalShoal(
        ShoalConfig(),
        {e.entity_id: e.title for e in market.catalog.entities},
        {q.query_id: q.text for q in market.query_log.queries},
    ).advance(market.query_log, last_day=BASE_LAST_DAY).model
    root = Path(tempfile.mkdtemp(prefix="shoal-live-"))
    snapshot = model.save(
        root / "snapshot",
        entity_categories={
            e.entity_id: e.category_id for e in market.catalog.entities
        },
    )
    print(f"base model: {len(model.taxonomy)} topics, saved to {snapshot}")

    # The read tier, loaded from the snapshot, behind a gateway. The
    # switch below is the only thing that refreshes it.
    backend = open_backend(f"snapshot:{snapshot}")
    gateway = Gateway(backend)
    serving = backend.service.serving
    switch = GenerationSwitch(
        probe_queries=probe_queries(serving.taxonomy),
        baseline=Generation(
            number=0, serving=serving, last_day=load_window(snapshot).last_day
        ),
    )
    switch.attach(backend).attach(gateway)

    # The write path: WAL -> admission pipe; the fold process reads the
    # WAL and writes generations; the installer swaps each one in.
    wal = WriteAheadLog(root / "wal", fsync="batch")
    fold = FoldProcess(
        GenerationInstaller(switch, wal),
        snapshot=snapshot,
        wal=wal,
        generations_dir=root / "generations",
        batch_max_events=400,
        batch_max_age_s=0.2,
        min_batch_events=100,
    ).start()
    pipe = IngestPipe(wal, applied_seq=lambda: fold.applied_seq)

    probe = next(
        q.text
        for q in market.query_log.queries
        if q.intent_kind == "scenario"
    )
    live = [e for e in market.query_log.events if e.day > BASE_LAST_DAY]
    print(f"\nstreaming {len(live)} live events through {wal.directory} ...")
    before = gateway.search(SearchRequest(query=probe, k=3))
    try:
        for e in live:
            pipe.submit(
                {
                    "day": e.day,
                    "user_id": e.user_id,
                    "query_id": e.query_id,
                    "clicked": list(e.clicked_entity_ids),
                }
            )
        deadline = time.monotonic() + 120
        while fold.installer.installed == 0 or (
            switch.current.applied_seq < len(live)
        ):
            if time.monotonic() > deadline:
                raise SystemExit("the fold process did not catch up")
            gateway.search(SearchRequest(query=probe, k=3))  # reads go on
            time.sleep(0.05)
        stats = fold.stats_dict()
    finally:
        fold.stop()
    after = gateway.search(SearchRequest(query=probe, k=3))
    print(f"  serving {switch.current.summary()}")
    print(f"  {switch.stats()}")
    print(f"\nprobe {probe!r}: {len(before.hits)} hits before, "
          f"{len(after.hits)} after — served continuously throughout")
    print(
        f"\nfold process {stats['fold_process']['pid']}: "
        f"{stats['events_applied']} events -> {stats['generations']} "
        f"generations in {stats['fold_process']['cpu_s']:.2f} s of its "
        f"own CPU; a restart resumes from "
        f"{sorted(p.name for p in (root / 'generations').iterdir())[-1]}"
    )


if __name__ == "__main__":
    main()
