"""F8 — the async edge holds 10x the connections with a flat read tail,
and coalesced ingest amortizes fsyncs.

Two gates, both against live sockets:

* **Tail flatness.** The same open-loop bursty workload (fixed total
  arrival rate — so the offered load does not change) is replayed
  through N and then 10N persistent keep-alive connections, three
  times each, interleaved. Holding 10x the sockets must not inflate the
  median read p99 beyond 1.3x the base's median (with a small
  absolute floor so scheduler noise on a quiet box cannot fail the
  gate). A closed-loop driver could not express this property: its
  offered load scales with connection count, conflating "many
  connections" with "10x the traffic".

* **Fsync amortization.** The same event volume is ingested twice under
  ``fsync="always"`` through identically configured edges:
  sequentially on one connection (nothing to coalesce with, so one
  event and one fsync per flush) and concurrently (batched appends,
  one fsync per flush). The coalesced run must spend < 0.2x the
  fsyncs — the whole point of coalescing — while still acking every
  event with a unique contiguous sequence number.
"""

from __future__ import annotations

import http.client
import json
import statistics
import threading
import time

import pytest

from repro.api import Gateway, ServiceBackend
from repro.api.aio import AsyncShoalServer
from repro.serving import WorkloadConfig, build_workload
from repro.streaming import IngestPipe, WriteAheadLog

BASE_CONNECTIONS = 4
SCALE = 10  # the satellite's 10x
ARRIVAL_RATE = 150.0  # total requests/s, identical at both scales
N_READS = 450  # per scale: ~3s of open-loop traffic
TAIL_GATE = 1.3
TAIL_FLOOR_MS = 5.0  # p99s below this are scheduler noise, not signal
TAIL_REPEATS = 3  # per scale, interleaved; the gate compares medians

N_EVENTS = 200
FSYNC_GATE = 0.2


@pytest.fixture(scope="module")
def make_backend(bench_model, bench_marketplace):
    """A factory: server shutdown closes its backend, so each edge in
    this bench gets its own adapter over the shared fitted model."""
    categories = {
        e.entity_id: e.category_id
        for e in bench_marketplace.catalog.entities
    }

    def build() -> ServiceBackend:
        return ServiceBackend.from_model(
            bench_model, entity_categories=categories
        )

    return build


@pytest.fixture(scope="module")
def bursty_workload(bench_marketplace):
    return build_workload(
        bench_marketplace.query_log.queries,
        bench_marketplace.scenarios,
        WorkloadConfig(n_requests=N_READS, profile="bursty", seed=7),
    )


def _open_loop_p99_ms(server, workload, n_connections, rate) -> float:
    """Drive the edge through n persistent connections at a fixed total
    arrival rate; return read p99 measured from each request's
    *scheduled* instant (queueing counted, no coordinated omission)."""
    conns = [
        http.client.HTTPConnection(server.host, server.port, timeout=30)
        for _ in range(n_connections)
    ]
    latencies = []
    lock = threading.Lock()
    schedule = threading.Semaphore(0)
    cursor = {"i": 0}

    def worker(conn):
        while True:
            schedule.acquire()
            with lock:
                i = cursor["i"]
                if i >= len(workload):
                    return
                cursor["i"] = i + 1
                due = t0 + i / rate
            query = workload[i]
            body = json.dumps({"query": query, "k": 5}).encode()
            conn.request(
                "POST", "/v1/search", body=body,
                headers={"Content-Type": "application/json"},
            )
            resp = conn.getresponse()
            resp.read()
            done = time.perf_counter()
            assert resp.status == 200
            with lock:
                latencies.append((done - due) * 1000.0)

    threads = [
        threading.Thread(target=worker, args=(c,), daemon=True)
        for c in conns
    ]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    try:
        for i in range(len(workload)):
            delay = (t0 + i / rate) - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            schedule.release()
        for _ in threads:  # wake everyone for the exit check
            schedule.release()
        for t in threads:
            t.join(timeout=60)
    finally:
        for c in conns:
            c.close()
    assert len(latencies) == len(workload)
    ordered = sorted(latencies)
    return ordered[max(0, int(0.99 * len(ordered)) - 1)]


def test_bench_p99_flat_across_10x_connections(
    make_backend, bursty_workload, capsys
):
    server = AsyncShoalServer(Gateway(make_backend()), port=0).start()
    try:
        # Warm the gateway cache so both scales measure the same tier.
        _open_loop_p99_ms(
            server, bursty_workload[:100], BASE_CONNECTIONS, ARRIVAL_RATE
        )
        # Interleaved repeats, median against median: one run's p99 is
        # the 5th-worst of 450 samples, and on a 2-core box a single
        # scheduler stall on either side flips a one-shot comparison.
        base_runs, scaled_runs = [], []
        for _ in range(TAIL_REPEATS):
            base_runs.append(_open_loop_p99_ms(
                server, bursty_workload, BASE_CONNECTIONS, ARRIVAL_RATE
            ))
            scaled_runs.append(_open_loop_p99_ms(
                server, bursty_workload, BASE_CONNECTIONS * SCALE,
                ARRIVAL_RATE,
            ))
        p99_base = statistics.median(base_runs)
        p99_scaled = statistics.median(scaled_runs)
    finally:
        server.shutdown()

    allowed = TAIL_GATE * max(p99_base, TAIL_FLOOR_MS)
    with capsys.disabled():
        print(
            f"\n[async edge tail] p99@{BASE_CONNECTIONS}conn="
            f"{p99_base:.2f}ms p99@{BASE_CONNECTIONS * SCALE}conn="
            f"{p99_scaled:.2f}ms allowed={allowed:.2f}ms "
            f"(gate {TAIL_GATE}x, floor {TAIL_FLOOR_MS}ms; medians of "
            f"{[round(r, 2) for r in base_runs]} and "
            f"{[round(r, 2) for r in scaled_runs]})"
        )
    assert p99_scaled < allowed, (
        f"read p99 degraded {SCALE}x-ing connections: "
        f"{p99_base:.2f}ms -> {p99_scaled:.2f}ms (allowed {allowed:.2f}ms)"
    )


def _event(i):
    return {"day": 7, "user_id": i, "query_id": 1, "clicked": []}


def test_bench_coalesced_ingest_amortizes_fsyncs(
    make_backend, tmp_path_factory, capsys
):
    tmp = tmp_path_factory.mktemp("bench-coalesce")

    def serve(wal):
        # The edge owns the pipe/WAL; shutdown closes both.
        return AsyncShoalServer(
            Gateway(make_backend()),
            port=0,
            ingest_pipe=IngestPipe(wal, max_queue=10 * N_EVENTS),
            coalesce_max_events=64,
            coalesce_max_delay_ms=5.0,
        ).start()

    def post(conn, i):
        conn.request(
            "POST", "/v1/ingest",
            body=json.dumps(_event(i)).encode(),
            headers={"Content-Type": "application/json"},
        )
        resp = conn.getresponse()
        body = resp.read()
        assert resp.status == 200
        return json.loads(body)["last_seq"]

    # Uncoalesced reference: sequential posts on one connection, so
    # every flush holds one event and pays its own fsync.
    wal_seq = WriteAheadLog(tmp / "wal-seq", fsync="always")
    sequential = serve(wal_seq)
    try:
        conn = http.client.HTTPConnection(
            sequential.host, sequential.port, timeout=30
        )
        try:
            for i in range(N_EVENTS):
                post(conn, i)
        finally:
            conn.close()
        fsyncs_seq = wal_seq.stats()["fsyncs"]
        assert wal_seq.stats()["appended"] == N_EVENTS
    finally:
        sequential.shutdown()

    # Coalesced run: the same volume, concurrent single-event posts.
    wal_co = WriteAheadLog(tmp / "wal-co", fsync="always")
    coalesced = serve(wal_co)
    try:
        from concurrent.futures import ThreadPoolExecutor

        def post_alone(i):
            conn = http.client.HTTPConnection(
                coalesced.host, coalesced.port, timeout=30
            )
            try:
                return post(conn, i)
            finally:
                conn.close()

        with ThreadPoolExecutor(32) as pool:
            seqs = sorted(pool.map(post_alone, range(N_EVENTS)))
        assert seqs == list(range(1, N_EVENTS + 1))  # durable, no loss
        fsyncs_co = wal_co.stats()["fsyncs"]
        assert wal_co.stats()["appended"] == N_EVENTS
    finally:
        coalesced.shutdown()

    ratio = fsyncs_co / max(fsyncs_seq, 1)
    with capsys.disabled():
        print(
            f"\n[ingest coalescing] {N_EVENTS} events: "
            f"sequential={fsyncs_seq} fsyncs, coalesced={fsyncs_co} "
            f"fsyncs, ratio={ratio:.3f}x (gate {FSYNC_GATE}x)"
        )
    assert fsyncs_seq >= N_EVENTS  # the reference really is per-event
    assert ratio < FSYNC_GATE, (
        f"coalescing saved too little: {fsyncs_co}/{fsyncs_seq} "
        f"= {ratio:.2f}x (gate {FSYNC_GATE}x)"
    )
