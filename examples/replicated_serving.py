"""Distributed serving: WAL segment shipping to a follower fleet.

The replication subsystem end to end, in one process:

1. fit a base window and stand up a primary write path — WAL, ingest
   pipe, micro-batch updater — with a ``SegmentShipper`` publishing
   every closed WAL segment and a checksummed cross-generation snapshot
   delta into a feed directory (the only thing primary and followers
   share);
2. join two followers to the feed with ``open_backend("follower:DIR")``
   — each rebuilds the primary's generations from the shipped segments
   through the same updater machinery, stages them, and reports its
   generation fingerprints back into the feed;
3. run an ``EpochCoordinator`` with ``quorum=2``: only when BOTH
   followers prove (by fingerprint) that they rebuilt byte-identical
   state does it broadcast an epoch bump, and the whole fleet swaps
   atomically;
4. show the payoff: every follower answers byte-for-byte like the
   primary, while a reader keeps querying through the swap with zero
   failed reads.

Served over HTTP this is ``serve-http --ship-feed DIR`` on the primary
and ``serve-follower --feed DIR`` per replica; the same replication
lag metrics printed here appear under ``replication`` in
``GET /v1/metrics``.

Run:  python examples/replicated_serving.py
"""

import dataclasses
import json
import tempfile
import time
from pathlib import Path

from repro import ShoalConfig, generate_marketplace
from repro.api import SearchRequest, open_backend
from repro.core.incremental import IncrementalShoal
from repro.data.marketplace import PROFILES
from repro.data.queries import QueryLogConfig
from repro.replication import EpochCoordinator, SegmentShipper
from repro.streaming import IngestPipe, StreamingUpdater, WriteAheadLog

BASE_LAST_DAY = 6  # the 7-day base window is days 0..6


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
    print(f"primary base {update.summary()}")

    # -- the primary's write path, wired to ship ------------------------
    root = Path(tempfile.mkdtemp(prefix="shoal-repl-"))
    base_dir = root / "base-snapshot"
    inc.model.save(
        base_dir,
        entity_categories=categories,
        metadata={"profile": "tiny", "seed": config.seed},
    )
    wal = WriteAheadLog(root / "wal", fsync="batch")
    pipe = IngestPipe(wal, max_queue=8192)
    shipper = SegmentShipper(
        wal,
        root / "feed",
        base_snapshot_dir=base_dir,
        manifest={
            "profile": "tiny",
            "seed": config.seed,
            # the example fits on a non-default log shape, so ship the
            # full query-log config — followers regenerate the exact
            # base world from it
            "query_log": dataclasses.asdict(config.query_log),
            "base_last_day": market.query_log.days()[-1],
            "retrain_every": 7,
            "max_day_skew": 2,
            "min_batch_events": 100,
        },
    )
    shipper.initialise()
    updater = StreamingUpdater(
        inc,
        pipe,
        switch=None,  # followers swap on epochs, the primary on its own
        generations_dir=root / "generations",
        min_batch_events=100,
        on_generation=shipper.publish_generation,
    )
    # Seed the FULL generated log, exactly as followers do when they
    # regenerate the world from the manifest — the seeded window is a
    # refit input, so a primary/follower mismatch here would diverge
    # the fingerprints.
    updater.seed_log(market.query_log)
    print(f"feed initialised at {root / 'feed'}")

    live = [e for e in market.query_log.events if e.day > BASE_LAST_DAY]

    def stream(events):
        for e in events:
            pipe.submit(
                {
                    "day": e.day,
                    "user_id": e.user_id,
                    "query_id": e.query_id,
                    "clicked": list(e.clicked_entity_ids),
                }
            )
        generation = None
        while generation is None:
            generation = updater.run_once(timeout_s=0.2)
        return generation

    first = stream(live[: len(live) // 2])
    stats = shipper.stats()
    print(
        f"shipped generation {first.number}: "
        f"{stats['segments_shipped']} segment(s), delta "
        f"{stats['delta_bytes']}B vs {stats['full_bytes']}B full "
        f"({stats['delta_bytes'] / stats['full_bytes']:.0%})"
    )

    # -- two followers join the feed ------------------------------------
    followers = {
        name: open_backend(f"follower:{root / 'feed'}")
        for name in ("replica-a", "replica-b")
    }
    for name, backend in followers.items():
        repl = backend.stats()["replication"]
        print(
            f"{name}: built generation {repl['built_generation']}, "
            f"seqs_behind={repl['seqs_behind']}, "
            f"serving={repl['serving_generation']} (staged, not served)"
        )

    # -- epoch coordination: quorum of matching fingerprints ------------
    coordinator = EpochCoordinator(root / "feed", quorum=2)
    broadcast = None
    deadline = time.monotonic() + 60.0
    while broadcast is None and time.monotonic() < deadline:
        broadcast = coordinator.tick()
        time.sleep(0.05)
    assert broadcast is not None, "quorum never formed"
    print(
        f"epoch {broadcast['epoch']} broadcast: generation "
        f"{broadcast['generation']} with {broadcast['votes']} matching "
        f"fingerprint(s)"
    )

    probe = next(
        q.text
        for q in market.query_log.queries
        if q.intent_kind == "scenario"
    )
    reads = 0
    deadline = time.monotonic() + 60.0
    while (
        any(
            b.stats()["replication"]["serving_generation"]
            != broadcast["generation"]
            for b in followers.values()
        )
        and time.monotonic() < deadline
    ):
        # the zero-downtime claim: reads flow while the fleet swaps
        followers["replica-a"].search(SearchRequest(query=probe, k=3))
        reads += 1
    print(f"fleet swapped to generation {broadcast['generation']} "
          f"({reads} uninterrupted reads during the swap)")

    # -- byte-identity across the fleet ---------------------------------
    queries = sorted({q.text for q in market.query_log.queries})[:25]
    surfaces = {
        name: json.dumps(
            [
                backend.search(SearchRequest(query=q, k=5)).to_dict()
                for q in queries
            ],
            sort_keys=True,
        )
        for name, backend in followers.items()
    }
    assert surfaces["replica-a"] == surfaces["replica-b"]
    print(
        f"byte-identity: {len(queries)} queries, both followers agree "
        f"({len(surfaces['replica-a'])} bytes of ranked answers)"
    )

    for name, backend in followers.items():
        repl = backend.stats()["replication"]
        print(
            f"{name} final: epoch={repl['epoch']} "
            f"serving={repl['serving_generation']} "
            f"epoch_swaps={repl['epoch_swaps']} healthy={repl['healthy']}"
        )
        backend.close()
    updater.stop()
    wal.close()


if __name__ == "__main__":
    main()
