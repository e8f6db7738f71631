"""The HTTP edge, end to end: transparency, error mapping, middleware.

The acceptance bar for the whole PR lives here:
``ShoalClient("http://…")`` must return *byte-identical* answers to the
in-process backend on the same snapshot, across search, recommend, and
batch.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro.api import (
    ApiError,
    AsyncShoalServer,
    BatchRequest,
    Gateway,
    RateLimitMiddleware,
    RecommendRequest,
    SCHEMA_VERSION,
    SearchRequest,
    ServiceBackend,
    ShoalBackend,
    ShoalClient,
    default_middlewares,
)
from repro.api.http import _json_bytes, partial_batch_error


@pytest.fixture(scope="module")
def snapshot_dir(tiny_model, tiny_marketplace, tmp_path_factory):
    d = tmp_path_factory.mktemp("api-http") / "snap"
    tiny_model.save(
        d,
        entity_categories={
            e.entity_id: e.category_id
            for e in tiny_marketplace.catalog.entities
        },
    )
    return d


@pytest.fixture(scope="module")
def served(snapshot_dir):
    """(server, remote client, in-process backend on the same snapshot)."""
    backend = ServiceBackend.from_snapshot(snapshot_dir)
    server = AsyncShoalServer(Gateway(backend), port=0).start()
    local = ServiceBackend.from_snapshot(snapshot_dir)
    try:
        yield server, ShoalClient(server.url, timeout=10), local
    finally:
        server.shutdown()


def _post(url, payload) -> tuple:
    req = urllib.request.Request(
        url,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(req, timeout=10) as resp:
            return resp.status, json.loads(resp.read().decode())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read().decode())


class TestHttpTransparency:
    def test_search_byte_identical_over_http(self, served, scenario_queries):
        _, remote, local = served
        for q in scenario_queries:
            request = SearchRequest(query=q, k=5)
            assert remote.search(request) == local.search(request)

    def test_recommend_byte_identical_over_http(
        self, served, scenario_queries
    ):
        _, remote, local = served
        for q in scenario_queries:
            request = RecommendRequest(query=q, k=8)
            assert remote.recommend(request) == local.recommend(request)

    def test_batch_byte_identical_over_http(self, served, scenario_queries):
        _, remote, local = served
        for kind in ("search", "recommend"):
            request = BatchRequest(
                queries=tuple(scenario_queries), k=5, kind=kind
            )
            assert remote.batch(request) == local.batch(request)

    def test_in_process_client_equals_http_client(
        self, served, scenario_queries
    ):
        """The same ShoalClient class, both transports, same answers."""
        _, remote, local = served
        in_process = ShoalClient(local)
        request = SearchRequest(query=scenario_queries[0], k=5)
        assert in_process.search(request) == remote.search(request)

    def test_miss_query_returns_empty_hits(self, served):
        _, remote, _ = served
        response = remote.search(SearchRequest(query="zzqq-no-match", k=5))
        assert response.hits == ()


class TestOneValidationPerRequest:
    """A request validates itself once, when it is constructed; neither
    the gateway nor the backend walks it again."""

    def test_one_http_batch_is_validated_once(self, served, monkeypatch):
        server, _, _ = served
        passes = []
        validate = BatchRequest.validate

        def counting(self):
            passes.append(len(self.queries))
            return validate(self)

        monkeypatch.setattr(BatchRequest, "validate", counting)
        status, _ = _post(
            f"{server.url}/v1/batch",
            {"queries": [f"q{i} beach" for i in range(64)], "k": 5},
        )
        assert status == 200
        assert passes == [64]

    @pytest.mark.parametrize(
        "build, code",
        [
            (lambda: SearchRequest(query="", k=3), "invalid_argument"),
            (lambda: SearchRequest(query="beach", k=0), "invalid_argument"),
            (lambda: SearchRequest(query="beach", k="5"), "bad_request"),
            (lambda: RecommendRequest(query="beach", version=2),
             "unsupported_version"),
            (lambda: BatchRequest(queries=()), "invalid_argument"),
            (lambda: BatchRequest(queries=("ok", 7)), "bad_request"),
            (lambda: BatchRequest(queries=("ok",), kind="x"),
             "invalid_argument"),
        ],
    )
    def test_an_invalid_request_is_refused_with_its_code(self, build, code):
        """In process, the code an invalid request earns is the one the
        gateway and the backends used to raise when they validated it."""
        with pytest.raises(ApiError) as excinfo:
            build()
        assert excinfo.value.code == code

    def test_cold_batch_wire_bytes_equal_json_dumps(
        self, served, tiny_marketplace
    ):
        server, _, local = served
        queries = [
            f"{q.text} zq{i}"
            for i, q in enumerate(tiny_marketplace.query_log.queries[:64])
        ]
        request = urllib.request.Request(
            f"{server.url}/v1/batch",
            data=json.dumps({"queries": queries, "k": 5}).encode(),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with urllib.request.urlopen(request, timeout=10) as resp:
            body = resp.read()
        expected = local.batch(BatchRequest(queries=tuple(queries), k=5))
        assert any(expected.results)
        assert body == _json_bytes(expected.to_dict())


class TestHttpErrorMapping:
    def test_invalid_k_is_400_with_code(self, served):
        server, _, _ = served
        status, body = _post(
            f"{server.url}/v1/search",
            {"version": SCHEMA_VERSION, "query": "beach", "k": 0},
        )
        assert status == 400
        assert body["error"]["code"] == "invalid_argument"

    def test_wrong_version_is_400_unsupported(self, served):
        server, _, _ = served
        status, body = _post(
            f"{server.url}/v1/search", {"version": 99, "query": "beach"}
        )
        assert status == 400
        assert body["error"]["code"] == "unsupported_version"

    def test_unknown_endpoint_is_404(self, served):
        server, _, _ = served
        status, body = _post(f"{server.url}/v1/nope", {"query": "x"})
        assert status == 404
        assert body["error"]["code"] == "not_found"

    def test_non_json_body_is_400(self, served):
        server, _, _ = served
        req = urllib.request.Request(
            f"{server.url}/v1/search",
            data=b"this is not json",
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(req, timeout=10)
        assert excinfo.value.code == 400

    def test_client_raises_typed_api_error(self, served):
        _, remote, _ = served
        with pytest.raises(ApiError) as excinfo:
            remote.search(
                SearchRequest.from_dict({"query": "beach", "k": -1})
            )
        assert excinfo.value.code == "invalid_argument"

    def test_unreachable_server_is_unavailable(self):
        client = ShoalClient("http://127.0.0.1:1", timeout=0.5)
        with pytest.raises(ApiError) as excinfo:
            client.search(SearchRequest(query="beach", k=3))
        assert excinfo.value.code == "unavailable"

    def test_keep_alive_survives_error_before_body_read(self, served):
        """Regression: a 404 sent before the request body was read must
        not leave the body bytes to be misparsed as the next request on
        the same keep-alive connection."""
        import http.client

        server, _, local = served
        conn = http.client.HTTPConnection(server.host, server.port, timeout=10)
        try:
            body = json.dumps({"version": SCHEMA_VERSION, "query": "beach"})
            conn.request(
                "POST", "/other/path", body=body,
                headers={"Content-Type": "application/json"},
            )
            first = conn.getresponse()
            assert first.status == 404
            assert json.loads(first.read())["error"]["code"] == "not_found"
            # Same connection: the next request must parse cleanly and
            # answer identically to the in-process backend.
            conn.request(
                "POST", "/v1/search", body=body,
                headers={"Content-Type": "application/json"},
            )
            second = conn.getresponse()
            assert second.status == 200
            from repro.api import SearchResponse

            got = SearchResponse.from_dict(json.loads(second.read()))
            assert got == local.search(SearchRequest(query="beach", k=5))
        finally:
            conn.close()

    def test_non_contract_5xx_body_maps_by_status_class(self):
        """Regression: a proxy answering 502 with non-contract JSON must
        surface as 'unavailable', not leak a bad_request from the error
        codec."""
        import http.server
        import threading

        class Proxyish(http.server.BaseHTTPRequestHandler):
            def do_POST(self):
                self.rfile.read(int(self.headers.get("Content-Length", 0)))
                body = json.dumps({"message": "upstream down"}).encode()
                self.send_response(502)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):
                pass

        httpd = http.server.HTTPServer(("127.0.0.1", 0), Proxyish)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        try:
            client = ShoalClient(
                f"http://127.0.0.1:{httpd.server_address[1]}", timeout=5
            )
            with pytest.raises(ApiError) as excinfo:
                client.search(SearchRequest(query="beach", k=3))
            assert excinfo.value.code == "unavailable"
        finally:
            httpd.shutdown()
            httpd.server_close()


class TestHttpOperationalEndpoints:
    def test_health(self, served):
        _, remote, _ = served
        health = remote.health()
        assert health["status"] == "ok"
        assert health["version"] == SCHEMA_VERSION

    def test_stats_shape(self, served, scenario_queries):
        _, remote, _ = served
        remote.search(SearchRequest(query=scenario_queries[0], k=3))
        stats = remote.stats()
        assert stats["backend"] == "gateway"
        assert "gateway_cache" in stats

    def test_get_unknown_path_is_404(self, served):
        server, _, _ = served
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(f"{server.url}/v1/no-such-thing", timeout=10)
        assert excinfo.value.code == 404

    def test_metrics_endpoint_scrapes_gateway_stats(self, served):
        """GET /v1/metrics returns the JSON scrape point."""
        import json as _json

        server, remote, _ = served
        with urllib.request.urlopen(
            f"{server.url}/v1/metrics", timeout=10
        ) as resp:
            payload = _json.loads(resp.read().decode("utf-8"))
        assert payload["backend"]["backend"] == "gateway"
        assert "gateway_cache" in payload["backend"]
        typed = remote.metrics()
        assert typed.backend["backend"] == "gateway"
        assert typed.to_dict()["backend"] == payload["backend"]

    def test_bare_metrics_alias_is_gone(self, served):
        """The unversioned /metrics alias was removed after its
        one-release deprecation: the path is now a plain 404."""
        server, _, _ = served
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(f"{server.url}/metrics", timeout=10)
        assert excinfo.value.code == 404


class TestHttpMiddlewareIntegration:
    def test_rate_limited_gateway_returns_429(self, snapshot_dir):
        backend = ServiceBackend.from_snapshot(snapshot_dir)
        gateway = Gateway(
            backend,
            [RateLimitMiddleware(0.001, burst=2)],  # ~no refill in-test
        )
        with AsyncShoalServer(gateway, port=0) as server:
            client = ShoalClient(server.url, timeout=10)
            request = SearchRequest(query="beach", k=3)
            client.search(request)
            client.search(request)
            with pytest.raises(ApiError) as excinfo:
                client.search(request)
            assert excinfo.value.code == "rate_limited"
            assert excinfo.value.http_status == 429

    def test_default_stack_serves_concurrent_clients(
        self, snapshot_dir, scenario_queries
    ):
        from concurrent.futures import ThreadPoolExecutor

        backend = ServiceBackend.from_snapshot(snapshot_dir)
        gateway = Gateway(backend, default_middlewares(cache_size=256))
        with AsyncShoalServer(gateway, port=0) as server:
            local = ServiceBackend.from_snapshot(snapshot_dir)
            expected = {
                q: local.search(SearchRequest(query=q, k=5))
                for q in scenario_queries
            }

            def probe(q):
                client = ShoalClient(server.url, timeout=10)
                return q, client.search(SearchRequest(query=q, k=5))

            with ThreadPoolExecutor(8) as pool:
                for q, got in pool.map(probe, scenario_queries * 5):
                    assert got == expected[q]


class _SheddingBackend(ShoalBackend):
    """Admits two events, then sheds load — the in-process twin of an
    ingest pipe whose queue fills mid-batch."""

    kind = "shedding"
    search = recommend = batch = None  # reads are not exercised

    def __init__(self):
        self.seq = 100

    def ingest(self, event):
        if self.seq == 102:
            raise ApiError("ingest_overloaded", "ingest queue is full")
        self.seq += 1
        return {"accepted": 1, "last_seq": self.seq}


class TestInProcessIngestBatch:
    def test_mid_batch_error_is_the_shared_partial_batch_message(self):
        client = ShoalClient(_SheddingBackend())
        with pytest.raises(ApiError) as excinfo:
            client.ingest_batch([{"n": 1}, {"n": 2}, {"n": 3}])
        shed = ApiError("ingest_overloaded", "ingest queue is full")
        assert excinfo.value.code == "ingest_overloaded"
        assert excinfo.value.message == (
            partial_batch_error(shed, 2, 102).message
        )
        assert "first 2 event(s)" in excinfo.value.message

    def test_error_on_the_first_event_is_passed_through(self):
        backend = _SheddingBackend()
        backend.seq = 102
        with pytest.raises(ApiError) as excinfo:
            ShoalClient(backend).ingest_batch([{"n": 1}])
        assert excinfo.value.message == "ingest queue is full"
