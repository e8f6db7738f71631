"""Fit once, snapshot to disk, and warm-start a serving fleet from it.

Production SHOAL is an offline fit feeding an online read tier: one
pipeline process fits the model, every serving process loads the
resulting artifacts — refitting per process would be absurd at scale.
This example walks that handoff:

1. fit on the small profile and ``model.save()`` a versioned snapshot
   (JSON for inspectable structures, NPZ for arrays, no pickle);
2. ``open_backend("snapshot:DIR")`` — construct the read tier purely
   from disk, behind the gateway-API contract, and verify its answers
   are identical to the in-memory backend.

A snapshot is also where sliding-window maintenance restarts from:
``IncrementalShoal.from_model`` over the loaded model, then a replay of
the write-ahead log (``serve-http --load DIR --ingest-wal WAL``).

Run:  python examples/save_and_serve.py
"""

import tempfile
import time
from pathlib import Path

from repro import ShoalPipeline, generate_marketplace
from repro.api import BatchRequest, SearchRequest, ServiceBackend, open_backend
from repro.data.marketplace import PROFILES


def main() -> None:
    market = generate_marketplace(PROFILES["small"])
    categories = {e.entity_id: e.category_id for e in market.catalog.entities}

    t0 = time.perf_counter()
    model = ShoalPipeline().fit(market)
    fit_seconds = time.perf_counter() - t0
    print(f"offline fit: {fit_seconds:.2f}s  ->  {model.summary()}")

    with tempfile.TemporaryDirectory() as tmp:
        snap = Path(tmp) / "snapshot"

        # 1. Persist every artifact as one versioned snapshot directory.
        model.save(snap, entity_categories=categories)
        total_kb = sum(p.stat().st_size for p in snap.iterdir()) / 1024
        print(f"\nsnapshot at {snap} ({total_kb:.0f} KiB):")
        for p in sorted(snap.iterdir()):
            print(f"  {p.name:24s} {p.stat().st_size / 1024:8.1f} KiB")

        # 2. Warm-start the read tier from disk and cross-check answers.
        t0 = time.perf_counter()
        served = open_backend(f"snapshot:{snap}")
        load_seconds = time.perf_counter() - t0
        print(
            f"\nwarm start: {load_seconds:.2f}s "
            f"({fit_seconds / max(load_seconds, 1e-9):.0f}x faster than refit)"
        )

        in_memory = ServiceBackend.from_model(
            model, entity_categories=categories
        )
        sample = tuple(q.text for q in market.query_log.queries[:100])
        search = BatchRequest(queries=sample, k=5, kind="search")
        slates = BatchRequest(queries=sample, k=10, kind="recommend")
        assert served.batch(search) == in_memory.batch(search)
        assert served.batch(slates) == in_memory.batch(slates)
        print("served answers are identical to the in-memory backend")

        demo = next(
            q.text for q in market.query_log.queries
            if q.intent_kind == "scenario"
        )
        print(f"\nquery: {demo!r}")
        for hit in served.search(SearchRequest(query=demo, k=3)).hits:
            print(f"  {hit.score:7.2f}  {hit.label}")


if __name__ == "__main__":
    main()
