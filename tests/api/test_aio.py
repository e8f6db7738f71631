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
* search, recommend and batch run on the event loop, hit or miss, and
  are answered while every executor worker is busy; analytics and GETs
  take the executor;
* a header line past the stream limit, a header count past
  ``MAX_HEADERS``, a ``Transfer-Encoding`` body and an unsupported
  method are each answered once with ``Connection: close`` — never an
  exception escaping to the event loop, never leftover bytes parsed as
  the next request;
* concurrent single-event ingests are coalesced into batched WAL
  appends — durable before ack, far fewer fsyncs than events, with the
  ``ingest_overloaded`` / ``ingest_unavailable`` backpressure contract
  intact.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analytics import AnalyticsStore, QueryEngine
from repro.api import (
    ApiError,
    BatchRequest,
    ClusterBackend,
    Gateway,
    SCHEMA_VERSION,
    SearchRequest,
    ServiceBackend,
    request_from_dict,
)
from repro.api.aio import MAX_HEADERS, AsyncShoalServer
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


@pytest.fixture()
def watched_edge(snapshot_dir):
    """(server, escaped): a fresh edge whose event loop records every
    exception that reaches its handler instead of logging it."""
    server = AsyncShoalServer(
        Gateway(ServiceBackend.from_snapshot(snapshot_dir)), port=0
    ).start()
    escaped = []

    async def watch_the_loop():
        asyncio.get_running_loop().set_exception_handler(
            lambda loop, context: escaped.append(context["message"])
        )

    try:
        asyncio.run_coroutine_threadsafe(
            watch_the_loop(), server._loop
        ).result(timeout=5)
        yield server, escaped
    finally:
        server.shutdown()


def _exchange(server, raw: bytes) -> tuple:
    """(reply bytes, closed): send ``raw`` on one socket and read until
    the server closes it — or until 3 s pass without a byte, when
    ``closed`` is False."""
    with socket.create_connection(
        (server.host, server.port), timeout=3
    ) as sock:
        sock.sendall(raw)
        reply = b""
        try:
            while chunk := sock.recv(65536):
                reply += chunk
        except socket.timeout:
            return reply, False
    return reply, True


def _responses(reply: bytes) -> list:
    """Split a reply stream into (status line, header lines, body)."""
    out = []
    while reply:
        head, _, rest = reply.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        length = next(
            int(line.split(":", 1)[1])
            for line in lines
            if line.lower().startswith("content-length:")
        )
        out.append((lines[0], lines[1:], rest[:length]))
        reply = rest[length:]
    return out


class TestOversizedHead:
    def test_header_line_over_the_stream_limit_is_400_and_close(
        self, watched_edge
    ):
        server, escaped = watched_edge
        reply, closed = _exchange(
            server,
            b"GET /v1/health HTTP/1.1\r\nX-Big: " + b"a" * 70_000
            + b"\r\n\r\n",
        )
        (status, headers, body), = _responses(reply)
        assert status == "HTTP/1.1 400 Bad Request"
        assert "Connection: close" in headers
        assert json.loads(body)["error"]["code"] == "bad_request"
        assert closed
        assert escaped == []


class TestRequestFraming:
    """Bytes the edge does not frame are never parsed as a request:
    each case is answered once, with ``Connection: close``, then EOF."""

    def test_unsupported_method_body_is_not_smuggled(self, watched_edge):
        server, escaped = watched_edge
        smuggled = b"GET /v1/stats HTTP/1.1\r\n\r\n"
        reply, closed = _exchange(
            server,
            b"PUT /v1/search HTTP/1.1\r\nContent-Length: %d\r\n\r\n"
            % len(smuggled) + smuggled,
        )
        (status, headers, body), = _responses(reply)
        assert status == "HTTP/1.1 404 Not Found"
        assert "Connection: close" in headers
        assert json.loads(body)["error"]["code"] == "not_found"
        assert closed
        assert escaped == []

    def test_chunked_body_is_refused_before_it_is_read(self, watched_edge):
        server, escaped = watched_edge
        # "5 ; a=b" splits like a request line, so a chunk stream left
        # unread on a kept-alive socket would be answered as one.
        reply, closed = _exchange(
            server,
            b"POST /v1/search HTTP/1.1\r\nTransfer-Encoding: chunked\r\n"
            b"Content-Type: application/json\r\n\r\n"
            b"5 ; a=b\r\nhello\r\n0\r\n\r\n",
        )
        (status, headers, body), = _responses(reply)
        assert status == "HTTP/1.1 400 Bad Request"
        assert "Connection: close" in headers
        assert json.loads(body)["error"]["code"] == "bad_request"
        assert closed
        assert escaped == []

    @staticmethod
    def _send_then_smuggle(length_lines: bytes, method=b"POST") -> bytes:
        """A search request framed by ``length_lines`` and carrying a
        body, followed on the same socket by a GET; in ``length_lines``,
        ``%d`` is the body's length and ``%s`` the length of the body
        and the GET together."""
        body = json.dumps(_search_payload("beach", 5)).encode()
        smuggled = b"GET /v1/stats HTTP/1.1\r\n\r\n"
        lines = length_lines.replace(b"%d", b"%d" % len(body)).replace(
            b"%s", b"%d" % (len(body) + len(smuggled))
        )
        return (
            method + b" /v1/search HTTP/1.1\r\n" + lines + b"\r\n"
            + body + smuggled
        )

    @pytest.mark.parametrize("method", [b"POST", b"GET"], ids=bytes.decode)
    @pytest.mark.parametrize("length_lines", [
        b"Content-Length: %s\r\nContent-Length: %d\r\n",
        b"Content-Length: +%d\r\n",
        b"Content-Length: 0_%d\r\n",
        b"Content-Length: \x0c%d\x0c\r\n",
        b"Content-Length : %d\r\n",
        b"Content-Length: %d\r\nX-Note: one\r\n two\r\n",
        b"Content-Length: %d\r\nX-Note: a\nb\r\n",
        b"Content-Length: " + b"1" * 5000 + b"\r\n",
    ], ids=[
        "differing-duplicates", "plus-sign", "underscore",
        "non-ows-whitespace", "space-before-colon", "obs-fold", "bare-lf",
        "overlong",
    ])
    def test_a_head_a_proxy_frames_differently_is_refused(
        self, watched_edge, length_lines, method
    ):
        server, escaped = watched_edge
        reply, closed = _exchange(
            server, self._send_then_smuggle(length_lines, method)
        )
        (status, headers, body), = _responses(reply)
        assert status == "HTTP/1.1 400 Bad Request"
        assert "Connection: close" in headers
        assert json.loads(body)["error"]["code"] == "bad_request"
        assert closed
        assert escaped == []

    @pytest.mark.parametrize("length_lines", [
        b"Content-Length: %d\r\nContent-Length: %d\r\n",
        b"Content-Length: \t %d \t\r\n",
        b"content-length: 00%d\r\n",
    ], ids=["equal-duplicates", "ows-around-value", "leading-zeros"])
    def test_rfc_framings_are_served(self, watched_edge, length_lines):
        server, escaped = watched_edge
        raw = self._send_then_smuggle(
            b"Connection: close\r\n" + length_lines
        )
        reply, closed = _exchange(server, raw)
        (status, headers, _), = _responses(reply)
        assert status == "HTTP/1.1 200 OK"
        assert closed
        assert escaped == []

    def test_a_long_blank_run_in_a_value_is_framed_in_linear_time(
        self, watched_edge
    ):
        # Lazy value group + trailing OWS under fullmatch would rescan
        # the blanks once per character: ~1e9 steps on the loop thread.
        server, escaped = watched_edge
        started = time.monotonic()
        reply, closed = _exchange(
            server,
            b"GET /v1/health HTTP/1.1\r\nX-Note: a" + b" " * 60_000
            + b"b\r\nConnection: close\r\n\r\n",
        )
        assert time.monotonic() - started < 2.0
        (status, _, _), = _responses(reply)
        assert status == "HTTP/1.1 200 OK"
        assert closed
        assert escaped == []

    @pytest.mark.parametrize("raw", [
        b"GET /v1/health HTTP/1.1\nHost: edge\n\n",
        b"GET /v1/health HTTP/1.1\r\n\n",
    ], ids=["bare-lf-request-line", "bare-lf-end-of-head"])
    def test_a_bare_lf_head_is_refused_at_once(self, watched_edge, raw):
        # A kept-alive bare-LF client must not wait for a CRLF CRLF
        # that never comes.
        server, escaped = watched_edge
        reply, closed = _exchange(server, raw)
        (status, headers, body), = _responses(reply)
        assert status == "HTTP/1.1 400 Bad Request"
        assert "Connection: close" in headers
        assert json.loads(body)["error"]["code"] == "bad_request"
        assert closed
        assert escaped == []

    @pytest.mark.parametrize("n_headers, status", [
        (MAX_HEADERS, "HTTP/1.1 200 OK"),
        (MAX_HEADERS + 1, "HTTP/1.1 400 Bad Request"),
    ], ids=["at-limit", "past-limit"])
    def test_header_count_is_bounded(self, watched_edge, n_headers, status):
        server, escaped = watched_edge
        fillers = b"".join(
            b"X-Filler-%d: v\r\n" % i for i in range(n_headers - 1)
        )
        reply, closed = _exchange(
            server,
            b"GET /v1/health HTTP/1.1\r\n" + fillers
            + b"Connection: close\r\n\r\n",
        )
        (got, headers, body), = _responses(reply)
        assert got == status
        assert "Connection: close" in headers
        assert closed
        assert escaped == []
        if n_headers > MAX_HEADERS:
            assert json.loads(body)["error"]["code"] == "bad_request"


class _Recorder:
    """Delegates to a real backend and records the thread each read
    kind runs on. Once ``park`` is set, ``stats`` (a ``GET /v1/stats``
    scrape) blocks until ``release`` is."""

    def __init__(self, inner):
        self._inner = inner
        self.threads = {}
        self.park = threading.Event()
        self.parked = threading.Event()
        self.release = threading.Event()

    def _record(self, kind):
        name = threading.current_thread().name
        self.threads.setdefault(kind, []).append(name)

    def search(self, request):
        self._record("search")
        return self._inner.search(request)

    def recommend(self, request):
        self._record("recommend")
        return self._inner.recommend(request)

    def batch(self, request):
        self._record("batch")
        return self._inner.batch(request)

    def stats(self):
        if self.park.is_set():
            self.parked.set()
            self.release.wait(timeout=30)
        return self._inner.stats()

    def __getattr__(self, name):
        return getattr(self._inner, name)


class _RecordingAnalytics:
    """An analytics engine that records the thread each query runs on."""

    def __init__(self, engine):
        self._engine = engine
        self.threads = []

    def query(self, request):
        self.threads.append(threading.current_thread().name)
        return self._engine.query(request)

    def __getattr__(self, name):
        return getattr(self._engine, name)


def _read_payloads(query_pool):
    """One (path, payload) per read kind the edge answers on its loop."""
    return [
        ("/v1/search", _search_payload(query_pool[0], 5)),
        ("/v1/recommend", {
            "version": SCHEMA_VERSION, "query": query_pool[1], "k": 5,
        }),
        ("/v1/batch", {
            "version": SCHEMA_VERSION, "queries": query_pool[2:6], "k": 5,
            "kind": "search",
        }),
    ]


def _on_a_worker(names):
    return [name for name in names if name.startswith("shoal-aio-worker")]


class TestReadsOnTheLoop:
    """Search, recommend and batch run on the event loop, hit or miss;
    only blocking work (analytics, GETs) takes the executor."""

    @pytest.mark.parametrize("topology", ["single", "cluster"])
    def test_reads_never_run_on_a_worker_but_analytics_does(
        self, topology, snapshot_dir, tiny_model, tiny_categories,
        query_pool, tmp_path,
    ):
        inner = (
            ServiceBackend.from_snapshot(snapshot_dir)
            if topology == "single"
            else ClusterBackend.from_model(
                tiny_model, 4, entity_categories=tiny_categories
            )
        )
        recorder = _Recorder(inner)
        analytics = _RecordingAnalytics(
            QueryEngine(AnalyticsStore(tmp_path / "analytics.db"))
        )
        server = AsyncShoalServer(
            Gateway(recorder), port=0, analytics_engine=analytics
        ).start()
        try:
            for path, payload in _read_payloads(query_pool) * 2:
                status, _ = _raw(
                    "POST", server.host, server.port, path, payload
                )
                assert status == 200
            status, _ = _raw(
                "POST", server.host, server.port, "/v1/analytics",
                {"version": SCHEMA_VERSION, "report": "trending"},
            )
            assert status == 200
        finally:
            server.shutdown()
        # Each kind computed once (the repeat was a cache hit), and
        # none of them on an executor thread.
        assert sorted(recorder.threads) == ["batch", "recommend", "search"]
        for names in recorder.threads.values():
            assert len(names) == 1 and not _on_a_worker(names)
        assert len(analytics.threads) == 1
        assert _on_a_worker(analytics.threads) == analytics.threads

    def test_reads_are_answered_while_the_only_worker_is_busy(
        self, snapshot_dir, query_pool
    ):
        recorder = _Recorder(ServiceBackend.from_snapshot(snapshot_dir))
        server = AsyncShoalServer(
            Gateway(recorder), port=0, max_workers=1
        ).start()
        local = Gateway(ServiceBackend.from_snapshot(snapshot_dir))
        try:
            recorder.park.set()
            with ThreadPoolExecutor(1) as pool:
                scrape = pool.submit(
                    _raw, "GET", server.host, server.port, "/v1/stats"
                )
                # The only worker is parked inside the GET.
                assert recorder.parked.wait(timeout=10)
                for path, payload in _read_payloads(query_pool):
                    got = _raw(
                        "POST", server.host, server.port, path, payload
                    )
                    assert got == _reference(local, path, payload), path
                assert not scrape.done()
                recorder.release.set()
                assert scrape.result(timeout=10)[0] == 200
        finally:
            recorder.release.set()
            server.shutdown()
            local.close()

    def test_a_batch_expiring_between_shard_probes_is_one_504(
        self, tiny_model, tiny_categories, query_pool
    ):
        backend = ClusterBackend.from_model(
            tiny_model, 4, entity_categories=tiny_categories
        )
        probes = []  # (shard, whether the deadline had passed)

        class _SlowShard:
            def __init__(self, index, service):
                self._index = index
                self._service = service

            def search_tokens(self, token_lists, k):
                ctx = current_context()
                probes.append((self._index, ctx is not None and ctx.expired))
                time.sleep(0.1)
                return self._service.search_tokens(token_lists, k)

            def __getattr__(self, name):
                return getattr(self._service, name)

        for shard in backend.router._shards:
            shard.service = _SlowShard(shard.shard_index, shard.service)
        queries = query_pool[:64]
        backend.batch(BatchRequest(queries=queries, k=5))
        touched = len(probes)
        assert touched >= 3  # room to expire between two probes
        probes.clear()

        server = AsyncShoalServer(Gateway(backend), port=0).start()

        def expired_count():
            _, body = _raw("GET", server.host, server.port, "/v1/metrics")
            return json.loads(body)["edge"]["deadline_expired"]

        try:
            before = expired_count()
            # Probes start about 0, 100 and 200 ms in; the deadline
            # passes during the second.
            status, body = _raw(
                "POST", server.host, server.port, "/v1/batch",
                {
                    "version": SCHEMA_VERSION, "queries": queries, "k": 5,
                    "kind": "search", "timeout_ms": 150.0,
                },
            )
            assert status == 504
            assert json.loads(body)["error"]["code"] == "deadline_exceeded"
            assert expired_count() == before + 1
        finally:
            server.shutdown()
        assert 0 < len(probes) < touched
        assert not any(expired for _, expired in probes)

    def test_an_expired_hit_is_504_and_counted(
        self, single_edges, query_pool
    ):
        asynced, _ = single_edges
        query = query_pool[5]

        def expired_count():
            _, body = _raw("GET", asynced.host, asynced.port, "/v1/metrics")
            return json.loads(body)["edge"]["deadline_expired"]

        status, _ = _raw(
            "POST", asynced.host, asynced.port, "/v1/search",
            _search_payload(query, 5),
        )
        assert status == 200
        before = expired_count()
        status, body = _raw(
            "POST", asynced.host, asynced.port, "/v1/search",
            _search_payload(query, 5, timeout_ms=1e-6),
        )
        assert status == 504
        assert json.loads(body)["error"]["code"] == "deadline_exceeded"
        assert expired_count() == before + 1


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
            snapshot_dir, tmp_path, max_queue=2
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
