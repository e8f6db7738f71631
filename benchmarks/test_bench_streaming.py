"""F8 — the read path under concurrent ingest (the HTAP tension).

Three gates, all acceptance criteria of the streaming subsystem:

1. **p95 read latency under concurrent ingest < 1.5x quiescent** — a
   gateway read stream is timed twice over the same distinct-query
   workload (so every request does real BM25 work, not a cache probe):
   once quiescent, once while a writer thread pushes WAL-backed ingest
   events as fast as the pipe admits them. Sub-millisecond quiescent
   p95s get a 1ms floor so the ratio gates on serving behaviour, not
   scheduler noise.

2. **A generation hot-swap completes without a single failed read** —
   reader threads hammer the gateway while the micro-batch updater
   produces and swaps a generation; any exception or empty-where-
   nonempty answer fails the bench.

3. **WAL replay recovers the exact event count after a simulated
   crash** — N events are admitted, the process "dies" leaving a torn
   half-record on the live segment, and the reopened log must replay
   exactly N.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.core.config import ShoalConfig
from repro.core.incremental import IncrementalShoal
from repro.api import Gateway, SearchRequest, ServiceBackend
from repro.data.marketplace import PROFILES, generate_marketplace
from repro.data.queries import QueryLogConfig
from repro.serving.replay import build_write_workload
from repro.streaming import (
    GenerationSwitch,
    IngestPipe,
    StreamingUpdater,
    WriteAheadLog,
)

import dataclasses

BASE_LAST_DAY = 6
N_READS = 1200
P95_RATIO_GATE = 1.5
P95_FLOOR_S = 1e-3  # noise floor for sub-ms quiescent p95s


@pytest.fixture(scope="module")
def stream_bench_market():
    cfg = dataclasses.replace(
        PROFILES["tiny"],
        query_log=QueryLogConfig(n_days=9, events_per_day=300),
    )
    return generate_marketplace(cfg)


@pytest.fixture(scope="module")
def bench_inc(stream_bench_market):
    market = stream_bench_market
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
    """n distinct query strings (every read does real index work; the
    ``tag`` keeps separate phases cache-disjoint even if a cache tier
    sneaks in)."""
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


def test_bench_p95_read_latency_under_concurrent_ingest(
    tmp_path, stream_bench_market, bench_inc
):
    market = stream_bench_market
    # The result cache off (gateway middleware stack empty): the gate
    # is about index-path latency under write load, and a cache hit
    # would fake the comparison either way.
    gateway = Gateway(
        ServiceBackend.from_model(
            bench_inc.model,
            entity_categories=bench_inc.entity_categories,
        ),
        middlewares=[],
    )
    warm = _distinct_read_stream(market, 100, "w")
    for q in warm:  # warm the interpreter paths
        gateway.search(SearchRequest(query=q, k=5))

    p95_quiet = _p95(gateway, _distinct_read_stream(market, N_READS, "q"))

    wal = WriteAheadLog(tmp_path / "wal", fsync="batch")
    pipe = IngestPipe(wal, max_queue=100_000)
    writes = build_write_workload(
        market.query_log, 4000, day=BASE_LAST_DAY + 1
    )
    stop = threading.Event()
    written = {"n": 0}

    def writer():
        i = 0
        while not stop.is_set():
            pipe.submit(writes[i % len(writes)])
            written["n"] += 1
            i += 1

    t = threading.Thread(target=writer, daemon=True)
    t.start()
    try:
        p95_ingest = _p95(
            gateway, _distinct_read_stream(market, N_READS, "i")
        )
    finally:
        stop.set()
        t.join(timeout=10)

    ratio = p95_ingest / max(p95_quiet, P95_FLOOR_S)
    raw_ratio = p95_ingest / max(p95_quiet, 1e-9)
    print(
        f"\n[streaming p95] quiescent={p95_quiet * 1e3:.3f}ms "
        f"under-ingest={p95_ingest * 1e3:.3f}ms "
        f"gated-ratio={ratio:.2f}x (raw {raw_ratio:.2f}x, "
        f"{P95_FLOOR_S * 1e3:g}ms noise floor, gate {P95_RATIO_GATE}x, "
        f"{written['n']} events written concurrently)"
    )
    assert written["n"] > 0, "the writer thread never got an event in"
    assert ratio < P95_RATIO_GATE, (
        f"p95 read latency under concurrent ingest is {ratio:.2f}x the "
        f"quiescent path (gate: {P95_RATIO_GATE}x)"
    )


def test_bench_generation_swap_zero_failed_reads(
    tmp_path, stream_bench_market, bench_inc
):
    market = stream_bench_market
    backend = ServiceBackend.from_model(
        bench_inc.model, entity_categories=bench_inc.entity_categories
    )
    gateway = Gateway(backend)
    switch = GenerationSwitch().attach(backend).attach(gateway)
    wal = WriteAheadLog(tmp_path / "wal", fsync="never")
    pipe = IngestPipe(wal, max_queue=10_000)
    updater = StreamingUpdater(bench_inc, pipe, switch=switch)
    for w in build_write_workload(
        market.query_log, 200, day=BASE_LAST_DAY + 1
    ):
        pipe.submit(w)

    pool = sorted({q.text for q in market.query_log.queries})[:50]
    stop = threading.Event()
    errors, reads = [], {"n": 0}

    def reader():
        i = 0
        while not stop.is_set():
            try:
                gateway.search(SearchRequest(query=pool[i % len(pool)], k=5))
                reads["n"] += 1
            except Exception as exc:  # noqa: BLE001 - the gate
                errors.append(exc)
            i += 1

    threads = [
        threading.Thread(target=reader, daemon=True) for _ in range(4)
    ]
    for t in threads:
        t.start()
    try:
        generation = updater.run_once(timeout_s=0.0)
    finally:
        stop.set()
        for t in threads:
            t.join(timeout=10)

    print(
        f"\n[swap under load] {reads['n']} concurrent reads during the "
        f"generation swap, {len(errors)} failures"
    )
    assert generation is not None, "no generation was produced"
    assert updater.stats().swap_failures == 0
    assert not errors, f"reads failed during the swap: {errors[:3]}"
    assert reads["n"] > 0


def test_bench_wal_replay_exact_count_after_crash(tmp_path):
    n_events = 500
    wal = WriteAheadLog(tmp_path / "wal", segment_max_events=64, fsync="batch")
    for i in range(n_events):
        wal.append(day=7, user_id=i % 13, query_id=i, clicked_entity_ids=(i,))
    wal.sync()
    wal.close()
    # The crash: a torn half-record on the live segment tail.
    segment = sorted((tmp_path / "wal").glob("wal-*.jsonl"))[-1]
    with open(segment, "a") as fh:
        fh.write('{"crc": 99, "event": {"seq": 501, "day"')

    t0 = time.perf_counter()
    recovered = WriteAheadLog(tmp_path / "wal", fsync="never")
    count = recovered.event_count()
    elapsed = time.perf_counter() - t0
    print(
        f"\n[wal crash replay] {count}/{n_events} events recovered in "
        f"{elapsed * 1e3:.1f}ms across {len(recovered.segments())} segments"
    )
    assert count == n_events, (
        f"WAL replay recovered {count} events, expected exactly {n_events}"
    )
    assert recovered.next_seq == n_events + 1
