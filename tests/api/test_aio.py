"""The asyncio edge, end to end: byte-identity, deadlines, coalescing.

The acceptance bar for the edge lives here:

* answers served by :class:`AsyncShoalServer` are **byte-identical**
  (status and raw HTTP body bytes) to the in-process gateway run
  through the wire codec, for the single service and a 4-shard
  cluster — hypothesis drives real, remixed, and nonsense queries
  through both;
* a request whose deadline expires returns 504 *promptly* and the
  in-flight shard work observes the cancellation instead of running to
  completion;
* a read is exactly one backend call, however slow it is relative to
  the reads before it;
* concurrent single-event ingests are coalesced into batched WAL
  appends — durable before ack, far fewer fsyncs than events, with the
  ``ingest_overloaded`` / ``ingest_unavailable`` backpressure contract
  intact.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.api import (
    ApiError,
    ClusterBackend,
    Gateway,
    SCHEMA_VERSION,
    SearchRequest,
    ServiceBackend,
    request_from_dict,
)
from repro.api.aio import AsyncShoalServer
from repro.api.context import current_context
from repro.api.http import API_PREFIX, _json_bytes
from repro.streaming import IngestPipe, WriteAheadLog


def _raw(method, host, port, path, payload=None) -> tuple:
    """(status, raw body bytes) — exactly what came off the wire."""
    conn = http.client.HTTPConnection(host, port, timeout=10)
    try:
        body = None if payload is None else json.dumps(payload).encode()
        headers = (
            {} if body is None else {"Content-Type": "application/json"}
        )
        conn.request(method, path, body=body, headers=headers)
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


def _search_payload(query, k, timeout_ms=None):
    out = {"version": SCHEMA_VERSION, "query": query, "k": k}
    if timeout_ms is not None:
        out["timeout_ms"] = timeout_ms
    return out


@pytest.fixture(scope="module")
def snapshot_dir(tiny_model, tiny_categories, tmp_path_factory):
    d = tmp_path_factory.mktemp("api-aio") / "snap"
    tiny_model.save(d, entity_categories=tiny_categories)
    return d


def _reference(local, path, payload) -> tuple:
    """(status, body bytes) of the in-process gateway + the wire codec:
    what the edge must put on the socket for the same POST."""
    try:
        request = request_from_dict(path[len(API_PREFIX) + 1:], payload)
        return 200, _json_bytes(local.handle(request).to_dict())
    except ApiError as err:
        return err.http_status, _json_bytes(err.to_dict())


@pytest.fixture(scope="module")
def single_edges(snapshot_dir):
    """(async server, in-process gateway) — one model."""
    asynced = AsyncShoalServer(
        Gateway(ServiceBackend.from_snapshot(snapshot_dir)), port=0
    ).start()
    local = Gateway(ServiceBackend.from_snapshot(snapshot_dir))
    try:
        yield asynced, local
    finally:
        asynced.shutdown()
        local.close()


@pytest.fixture(scope="module")
def cluster_edges(tiny_model, tiny_categories):
    """Same two tiers over a 4-shard cluster backend."""

    def cluster():
        return ClusterBackend.from_model(
            tiny_model, 4, entity_categories=tiny_categories
        )

    asynced = AsyncShoalServer(Gateway(cluster()), port=0).start()
    local = Gateway(cluster())
    try:
        yield asynced, local
    finally:
        asynced.shutdown()
        local.close()


@pytest.fixture(scope="module")
def query_pool(tiny_marketplace):
    return sorted({q.text for q in tiny_marketplace.query_log.queries})


aio_settings = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def wire_queries(draw, pool):
    """Real log queries, token remixes, and raw noise — wire-safe."""
    kind = draw(st.integers(min_value=0, max_value=2))
    if kind == 0:
        return draw(st.sampled_from(pool))
    if kind == 1:
        tokens = sorted({t for q in pool for t in q.split()})
        picked = draw(
            st.lists(st.sampled_from(tokens), min_size=1, max_size=4)
        )
        return " ".join(picked)
    return draw(
        st.text(
            alphabet="abcdefghijklmnopqrstuvwxyz0123456789 -!,",
            min_size=1,
            max_size=30,
        )
    )


class TestByteIdentity:
    """The edge is transparent: same bytes as the in-process gateway."""

    def _assert_identical(self, edges, path, payload):
        asynced, local = edges
        got = _raw("POST", asynced.host, asynced.port, path, payload)
        assert got == _reference(local, path, payload), (
            f"divergence on {path}"
        )

    @aio_settings
    @given(data=st.data(), k=st.integers(min_value=1, max_value=8))
    def test_search_single_service(self, single_edges, query_pool, data, k):
        query = data.draw(wire_queries(query_pool))
        self._assert_identical(
            single_edges, "/v1/search", _search_payload(query, k)
        )

    @aio_settings
    @given(data=st.data(), k=st.integers(min_value=1, max_value=8))
    def test_search_4_shard_cluster(
        self, cluster_edges, query_pool, data, k
    ):
        query = data.draw(wire_queries(query_pool))
        self._assert_identical(
            cluster_edges, "/v1/search", _search_payload(query, k)
        )

    @aio_settings
    @given(data=st.data(), k=st.integers(min_value=1, max_value=10))
    def test_recommend_both_topologies(
        self, single_edges, cluster_edges, query_pool, data, k
    ):
        query = data.draw(wire_queries(query_pool))
        payload = {"version": SCHEMA_VERSION, "query": query, "k": k}
        for edges in (single_edges, cluster_edges):
            self._assert_identical(edges, "/v1/recommend", payload)

    def test_batch_and_errors_identical(self, single_edges, query_pool):
        probes = [
            ("/v1/batch", {
                "version": SCHEMA_VERSION,
                "queries": query_pool[:4],
                "k": 5,
                "kind": "search",
            }),
            ("/v1/search", {"version": SCHEMA_VERSION, "query": "x", "k": 0}),
            ("/v1/search", {"version": 99, "query": "x"}),
            ("/v1/nope", {"query": "x"}),
        ]
        for path, payload in probes:
            self._assert_identical(single_edges, path, payload)

    def test_keep_alive_connection_reuse(self, single_edges, query_pool):
        asynced, local = single_edges
        conn = http.client.HTTPConnection(
            asynced.host, asynced.port, timeout=10
        )
        try:
            for query in query_pool[:3]:
                body = json.dumps(_search_payload(query, 5)).encode()
                conn.request(
                    "POST", "/v1/search", body=body,
                    headers={"Content-Type": "application/json"},
                )
                resp = conn.getresponse()
                assert resp.status == 200
                want = local.search(SearchRequest(query=query, k=5))
                assert json.loads(resp.read()) == want.to_dict()
        finally:
            conn.close()


class TestOperationalSurface:
    def test_health_and_stats(self, single_edges):
        asynced, _ = single_edges
        status, body = _raw("GET", asynced.host, asynced.port, "/v1/health")
        assert status == 200
        assert json.loads(body)["status"] == "ok"
        status, body = _raw("GET", asynced.host, asynced.port, "/v1/stats")
        assert status == 200
        assert json.loads(body)["backend"] == "gateway"

    def test_metrics_has_the_async_edge_section(self, single_edges):
        asynced, _ = single_edges
        status, body = _raw("GET", asynced.host, asynced.port, "/v1/metrics")
        assert status == 200
        edge = json.loads(body)["edge"]
        assert edge["kind"] == "async"
        assert edge["connections"]["total"] >= 1
        assert set(edge) == {
            "kind", "connections", "deadline_expired", "reads",
        }

    def test_bare_metrics_alias_is_gone_here_too(self, single_edges):
        asynced, _ = single_edges
        status, body = _raw("GET", asynced.host, asynced.port, "/metrics")
        assert status == 404
        assert json.loads(body)["error"]["code"] == "not_found"

    def test_get_unknown_path_is_404(self, single_edges):
        asynced, _ = single_edges
        status, _ = _raw("GET", asynced.host, asynced.port, "/v1/zzz")
        assert status == 404


class _SlowBackend:
    """Delegates to a real gateway, but search crawls in small slices,
    polling the ambient context the way the engine tiers do — so the
    test can observe whether cancellation actually reached the work."""

    def __init__(self, inner, delay_s=3.0, slices=60):
        self._inner = inner
        self._delay_s = delay_s
        self._slices = slices
        self.cancel_observed = threading.Event()
        self.completed = threading.Event()

    def search(self, request):
        request.validate()
        ctx = current_context()
        for _ in range(self._slices):
            time.sleep(self._delay_s / self._slices)
            if ctx is not None and ctx.done:
                self.cancel_observed.set()
                ctx.raise_if_done()
        self.completed.set()
        return self._inner.search(request)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TestDeadlinePropagation:
    @pytest.fixture()
    def slow_served(self, snapshot_dir):
        slow = _SlowBackend(
            Gateway(ServiceBackend.from_snapshot(snapshot_dir))
        )
        server = AsyncShoalServer(slow, port=0).start()
        try:
            yield server, slow
        finally:
            server.shutdown()

    def test_expiry_cancels_inflight_shard_work(self, slow_served):
        """The tentpole guarantee: 504 now, work abandoned — not 504
        after the slow tier finished an answer nobody reads."""
        server, slow = slow_served
        t0 = time.perf_counter()
        status, body = _raw(
            "POST", server.host, server.port, "/v1/search",
            _search_payload("beach", 5, timeout_ms=120.0),
        )
        elapsed = time.perf_counter() - t0
        assert status == 504
        assert json.loads(body)["error"]["code"] == "deadline_exceeded"
        # Answered at the deadline, not after the 3s the backend wanted.
        assert elapsed < 1.5
        # ... and the executor-side work notices the cancellation.
        assert slow.cancel_observed.wait(timeout=2.0)
        assert not slow.completed.is_set()

    def test_default_timeout_applies_without_request_field(
        self, snapshot_dir
    ):
        slow = _SlowBackend(
            Gateway(ServiceBackend.from_snapshot(snapshot_dir))
        )
        server = AsyncShoalServer(
            slow, port=0, default_timeout_ms=120.0
        ).start()
        try:
            status, body = _raw(
                "POST", server.host, server.port, "/v1/search",
                _search_payload("beach", 5),
            )
            assert status == 504
            assert json.loads(body)["error"]["code"] == "deadline_exceeded"
            assert slow.cancel_observed.wait(timeout=2.0)
        finally:
            server.shutdown()

    def test_generous_deadline_still_answers(self, single_edges):
        asynced, local = single_edges
        status, body = _raw(
            "POST", asynced.host, asynced.port, "/v1/search",
            _search_payload("beach", 5, timeout_ms=30_000.0),
        )
        assert status == 200
        want = local.search(SearchRequest(query="beach", k=5))
        assert json.loads(body) == want.to_dict()


class _CountingBackend:
    """Counts search calls; once ``dawdle_s`` is set every call sleeps
    that long first."""

    def __init__(self, inner):
        self._inner = inner
        self._lock = threading.Lock()
        self.calls = 0
        self.dawdle_s = 0.0

    def search(self, request):
        with self._lock:
            self.calls += 1
        time.sleep(self.dawdle_s)
        return self._inner.search(request)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TestOneAttemptPerRead:
    def test_a_slow_read_is_still_one_backend_call(
        self, snapshot_dir, query_pool
    ):
        """Reads far slower than everything the edge has observed so
        far are waited for, not re-issued."""
        counting = _CountingBackend(
            Gateway(ServiceBackend.from_snapshot(snapshot_dir))
        )
        server = AsyncShoalServer(counting, port=0).start()
        try:
            for i in range(60):  # a fast latency history
                status, _ = _raw(
                    "POST", server.host, server.port, "/v1/search",
                    _search_payload(query_pool[i % len(query_pool)], 5),
                )
                assert status == 200
            _, body = _raw("GET", server.host, server.port, "/v1/metrics")
            p95_ms = json.loads(body)["edge"]["reads"]["p95_ms"]
            counting.dawdle_s = max(0.05, 5 * p95_ms / 1000.0)
            for query in query_pool[:5]:
                status, _ = _raw(
                    "POST", server.host, server.port, "/v1/search",
                    _search_payload(query, 5),
                )
                assert status == 200
            assert counting.calls == 65
            _, body = _raw("GET", server.host, server.port, "/v1/metrics")
            assert "hedges" not in json.loads(body)["edge"]
        finally:
            server.shutdown()


def _ingest_world(snapshot_dir, tmp_path, **pipe_kwargs):
    wal = WriteAheadLog(tmp_path / "wal", fsync="always")
    pipe = IngestPipe(wal, **pipe_kwargs)
    server = AsyncShoalServer(
        Gateway(ServiceBackend.from_snapshot(snapshot_dir)),
        port=0,
        ingest_pipe=pipe,
        coalesce_max_events=32,
        coalesce_max_delay_ms=10.0,
    ).start()
    return server, pipe, wal


class TestIngestCoalescing:
    def test_concurrent_singles_coalesce_but_all_ack_durably(
        self, snapshot_dir, tmp_path
    ):
        n = 120
        server, pipe, wal = _ingest_world(
            snapshot_dir, tmp_path, max_queue=10_000
        )
        try:
            def post(i):
                return _raw(
                    "POST", server.host, server.port, "/v1/ingest",
                    {"day": 7, "user_id": i, "query_id": 1, "clicked": []},
                )

            with ThreadPoolExecutor(32) as pool:
                results = list(pool.map(post, range(n)))
            assert all(status == 200 for status, _ in results)
            acks = [json.loads(body) for _, body in results]
            assert all(a["accepted"] == 1 for a in acks)
            seqs = sorted(a["last_seq"] for a in acks)
            assert seqs == list(range(1, n + 1))  # no loss, no dupes
            stats = wal.stats()
            assert stats["appended"] == n
            # The whole point: far fewer fsyncs than events.
            assert stats["fsyncs"] < 0.5 * n
        finally:
            server.shutdown()

    def test_overload_backpressure_survives_coalescing(
        self, snapshot_dir, tmp_path
    ):
        server, pipe, wal = _ingest_world(
            snapshot_dir, tmp_path, max_queue=2, overflow="shed"
        )
        try:
            def post(i):
                return _raw(
                    "POST", server.host, server.port, "/v1/ingest",
                    {"day": 7, "user_id": i, "query_id": 1, "clicked": []},
                )

            with ThreadPoolExecutor(8) as pool:
                results = list(pool.map(post, range(8)))
            by_status = {}
            for status, body in results:
                by_status.setdefault(status, []).append(json.loads(body))
            assert len(by_status.get(200, [])) == 2  # the queue's worth
            rejected = by_status.get(429, [])
            assert len(rejected) == 6
            assert all(
                r["error"]["code"] == "ingest_overloaded" for r in rejected
            )
        finally:
            server.shutdown()

    def test_closed_pipe_is_503_unavailable(self, snapshot_dir, tmp_path):
        server, pipe, wal = _ingest_world(
            snapshot_dir, tmp_path, max_queue=100
        )
        try:
            pipe.close()
            status, body = _raw(
                "POST", server.host, server.port, "/v1/ingest",
                {"day": 7, "user_id": 1, "query_id": 1, "clicked": []},
            )
            assert status == 503
            assert (
                json.loads(body)["error"]["code"] == "ingest_unavailable"
            )
        finally:
            server.shutdown()

    def test_no_pipe_is_404(self, single_edges):
        asynced, _ = single_edges
        status, body = _raw(
            "POST", asynced.host, asynced.port, "/v1/ingest",
            {"day": 7, "user_id": 1, "query_id": 1, "clicked": []},
        )
        assert status == 404

    def test_invalid_event_rejected_before_coalescing(
        self, snapshot_dir, tmp_path
    ):
        """A bad event must fail alone — not poison a shared batch."""
        server, pipe, wal = _ingest_world(
            snapshot_dir, tmp_path, max_queue=100
        )
        try:
            status, body = _raw(
                "POST", server.host, server.port, "/v1/ingest",
                {"user_id": 1},  # missing day/query_id
            )
            assert status == 400
            ok, _ = _raw(
                "POST", server.host, server.port, "/v1/ingest",
                {"day": 7, "user_id": 1, "query_id": 1, "clicked": []},
            )
            assert ok == 200
            assert wal.stats()["appended"] == 1
        finally:
            server.shutdown()

    def test_multi_event_post_still_batches(self, snapshot_dir, tmp_path):
        server, pipe, wal = _ingest_world(
            snapshot_dir, tmp_path, max_queue=100
        )
        try:
            events = [
                {"day": 7, "user_id": i, "query_id": 1, "clicked": []}
                for i in range(5)
            ]
            status, body = _raw(
                "POST", server.host, server.port, "/v1/ingest",
                {"events": events},
            )
            assert status == 200
            ack = json.loads(body)
            assert ack["accepted"] == 5
            assert ack["last_seq"] == 5
        finally:
            server.shutdown()


class TestLifecycle:
    def test_context_manager_and_double_shutdown(self, snapshot_dir):
        with AsyncShoalServer(
            Gateway(ServiceBackend.from_snapshot(snapshot_dir)), port=0
        ) as server:
            status, _ = _raw("GET", server.host, server.port, "/v1/health")
            assert status == 200
        server.shutdown()  # idempotent

    def test_shutdown_drains_coalesced_events(self, snapshot_dir, tmp_path):
        """Events acked (or even just buffered) before shutdown must be
        on disk afterwards — durable-before-ack includes the drain."""
        server, pipe, wal = _ingest_world(
            snapshot_dir, tmp_path, max_queue=100
        )
        statuses = [
            _raw(
                "POST", server.host, server.port, "/v1/ingest",
                {"day": 7, "user_id": i, "query_id": 1, "clicked": []},
            )[0]
            for i in range(3)
        ]
        server.shutdown()
        assert statuses == [200, 200, 200]
        assert wal.stats()["appended"] == 3
