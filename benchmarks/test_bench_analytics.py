"""F9 — the read path under a live analytics tier (HTAP isolation).

The analytics store is a *replica*: the tailer folds WAL segments into
its own SQLite file, and every analytics query runs on a read-only
connection to that file. None of it may tax the serving path — that is
the whole point of the Polynesia-shaped split. The gate:

**p95 read latency with the tailer live AND concurrent analytics
queries < 1.2x quiescent** — tighter than the 1.5x concurrent-ingest
gate, because the analytics tier adds no work at all to serving
structures (the ingest bench already pays for WAL append contention).

A second gate re-checks exactly-once end to end at bench scale: after
the storm, the store's event count equals a full WAL replay.
"""

from __future__ import annotations

import threading
import time

import dataclasses

import numpy as np
import pytest

from repro.analytics import AnalyticsStore, QueryEngine, SegmentTailer
from repro.api import AnalyticsRequest, Gateway, SearchRequest, ServiceBackend
from repro.core.config import ShoalConfig
from repro.core.incremental import IncrementalShoal
from repro.data.marketplace import PROFILES, generate_marketplace
from repro.data.queries import QueryLogConfig
from repro.streaming import IngestPipe, WriteAheadLog

from workloads import event_payloads  # the ledger's; see conftest.py

BASE_LAST_DAY = 6
N_READS = 1200
P95_RATIO_GATE = 1.2
P95_FLOOR_S = 1e-3  # noise floor for sub-ms quiescent p95s


@pytest.fixture(scope="module")
def analytics_bench_market():
    cfg = dataclasses.replace(
        PROFILES["tiny"],
        query_log=QueryLogConfig(n_days=9, events_per_day=300),
    )
    return generate_marketplace(cfg)


@pytest.fixture(scope="module")
def analytics_bench_inc(analytics_bench_market):
    market = analytics_bench_market
    inc = IncrementalShoal(
        ShoalConfig(),
        {e.entity_id: e.title for e in market.catalog.entities},
        {q.query_id: q.text for q in market.query_log.queries},
        {e.entity_id: e.category_id for e in market.catalog.entities},
        retrain_every=100,
    )
    inc.advance(market.query_log, last_day=BASE_LAST_DAY)
    return inc


def _distinct_read_stream(market, n: int, tag: str):
    """n distinct query strings so every read does real BM25 work."""
    base = sorted({q.text for q in market.query_log.queries})
    return [
        f"{base[i % len(base)]} {base[i % len(base)].split()[0]}{tag}{i}"
        for i in range(n)
    ]


def _p95(gateway, reads) -> float:
    samples = []
    for q in reads:
        t0 = time.perf_counter()
        gateway.search(SearchRequest(query=q, k=5))
        samples.append(time.perf_counter() - t0)
    samples.sort()
    return samples[int(len(samples) * 0.95)]


def test_bench_p95_read_latency_with_live_analytics_tier(
    tmp_path, analytics_bench_market, analytics_bench_inc
):
    market = analytics_bench_market
    # Cache off for the same reason as the ingest bench: the gate is
    # about index-path latency, not cache hits.
    gateway = Gateway(
        ServiceBackend.from_model(
            analytics_bench_inc.model,
            entity_categories=analytics_bench_inc.entity_categories,
        ),
        middlewares=[],
    )
    for q in _distinct_read_stream(market, 100, "w"):
        gateway.search(SearchRequest(query=q, k=5))

    p95_quiet = _p95(gateway, _distinct_read_stream(market, N_READS, "q"))

    # The full HTAP stack, live: a writer feeding the WAL through the
    # pipe, the tailer folding segments into SQLite, and an analytics
    # client issuing reports + raw SQL as fast as answers come back.
    wal = WriteAheadLog(tmp_path / "wal", fsync="batch")
    pipe = IngestPipe(wal, max_queue=100_000)
    store = AnalyticsStore(tmp_path / "analytics.db")
    tailer = SegmentTailer(
        wal, store, ingest_pipe=pipe, poll_interval_s=0.01
    ).start()
    engine = QueryEngine(store)
    writes = event_payloads(market, np.random.default_rng(0), 4000)
    stop = threading.Event()
    written = {"n": 0}
    queried = {"n": 0}
    query_errors = []

    def writer():
        i = 0
        while not stop.is_set():
            pipe.submit(writes[i % len(writes)])
            written["n"] += 1
            i += 1

    def analyst():
        requests = [
            AnalyticsRequest(report="daily"),
            AnalyticsRequest(report="trending", limit=20),
            AnalyticsRequest(
                sql="SELECT day, COUNT(*) FROM events GROUP BY day"
            ),
            AnalyticsRequest(
                sql="SELECT COUNT(*) FROM events", sample=True
            ),
        ]
        i = 0
        while not stop.is_set():
            try:
                engine.query(requests[i % len(requests)])
                queried["n"] += 1
            except Exception as exc:  # noqa: BLE001 - part of the gate
                query_errors.append(exc)
            i += 1

    threads = [
        threading.Thread(target=writer, daemon=True),
        threading.Thread(target=analyst, daemon=True),
    ]
    for t in threads:
        t.start()
    try:
        p95_live = _p95(gateway, _distinct_read_stream(market, N_READS, "a"))
    finally:
        stop.set()
        for t in threads:
            t.join(timeout=10)
        tailer.stop(drain=True)

    ratio = p95_live / max(p95_quiet, P95_FLOOR_S)
    raw_ratio = p95_live / max(p95_quiet, 1e-9)
    replayed = sum(1 for _ in wal.replay(after_seq=0))
    print(
        f"\n[analytics p95] quiescent={p95_quiet * 1e3:.3f}ms "
        f"live-tier={p95_live * 1e3:.3f}ms gated-ratio={ratio:.2f}x "
        f"(raw {raw_ratio:.2f}x, {P95_FLOOR_S * 1e3:g}ms noise floor, "
        f"gate {P95_RATIO_GATE}x; {written['n']} events written, "
        f"{queried['n']} analytics queries served, "
        f"store folded {store.event_count()} events)"
    )
    assert written["n"] > 0, "the writer thread never got an event in"
    assert queried["n"] > 0, "the analytics thread never got a query in"
    assert not query_errors, f"analytics queries failed: {query_errors[:3]}"
    assert ratio < P95_RATIO_GATE, (
        f"p95 read latency with the analytics tier live is {ratio:.2f}x "
        f"the quiescent path (gate: {P95_RATIO_GATE}x)"
    )
    # Exactly-once at bench scale: drained store == full WAL replay.
    assert store.event_count() == replayed
    store.close()
    wal.close()
