"""End-to-end tracing across the serving stack.

The acceptance bar for the observability PR:

* every span of a request shares the request's trace, and the parent
  ids form a tree rooted at ``edge.request``;
* a read is one chain ``edge.request → edge.dispatch → gateway →
  mw.* → backend.*`` under one request id, the same id the access log
  and ``cli trace --request-id`` use;
* tracing on vs. off never changes answer bytes — hypothesis drives
  the same queries through a traced and an untraced async edge over
  the single service and a 4-shard cluster;
* the structured access log and ``GET /v1/trace`` compose: the
  request id logged for a slow request resolves to a span tree whose
  stages nest coherently inside the edge-observed root span;
* ``GET /v1/metrics?format=prom`` passes the strict OpenMetrics
  parser and carries real histogram families.
"""

from __future__ import annotations

import http.client
import io
import json
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import (
    ClusterBackend,
    Gateway,
    SCHEMA_VERSION,
    ServiceBackend,
    ShoalClient,
)
from repro.api.aio import AsyncShoalServer
from repro.obs import Tracer, parse_openmetrics


def _raw(method, host, port, path, payload=None) -> tuple:
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


def _search_payload(query, k=5):
    return {"version": SCHEMA_VERSION, "query": query, "k": k}


def _assert_is_tree(spans) -> None:
    """One root, every parent id resolves, parents precede children."""
    assert spans, "a sampled trace must carry spans"
    roots = [s for s in spans if s["parent_id"] is None]
    assert len(roots) == 1, f"expected one root, got {roots}"
    seen = set()
    for span in spans:
        if span["parent_id"] is not None:
            assert span["parent_id"] in seen, (
                f"{span['span_id']} appears before its parent "
                f"{span['parent_id']}"
            )
        seen.add(span["span_id"])


@pytest.fixture(scope="module")
def snapshot_dir(tiny_model, tiny_categories, tmp_path_factory):
    d = tmp_path_factory.mktemp("api-tracing") / "snap"
    tiny_model.save(d, entity_categories=tiny_categories)
    return d


@pytest.fixture(scope="module")
def query_pool(tiny_marketplace):
    return sorted({q.text for q in tiny_marketplace.query_log.queries})


# -- byte identity: tracing must be invisible to clients ---------------------


@pytest.fixture(scope="module")
def identity_single(snapshot_dir):
    """(traced server, untraced server) over the same single service."""
    traced_srv = AsyncShoalServer(
        Gateway(ServiceBackend.from_snapshot(snapshot_dir)),
        port=0,
        tracer=Tracer(),
    ).start()
    plain_srv = AsyncShoalServer(
        Gateway(ServiceBackend.from_snapshot(snapshot_dir)), port=0
    ).start()
    try:
        yield traced_srv, plain_srv
    finally:
        traced_srv.shutdown()
        plain_srv.shutdown()


@pytest.fixture(scope="module")
def identity_cluster(tiny_model, tiny_categories):
    """Same pair over a 4-shard cluster backend."""

    def cluster():
        return ClusterBackend.from_model(
            tiny_model, 4, entity_categories=tiny_categories
        )

    traced_srv = AsyncShoalServer(
        Gateway(cluster()), port=0, tracer=Tracer()
    ).start()
    plain_srv = AsyncShoalServer(Gateway(cluster()), port=0).start()
    try:
        yield traced_srv, plain_srv
    finally:
        traced_srv.shutdown()
        plain_srv.shutdown()


identity_settings = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def wire_queries(draw, pool):
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
            max_size=40,
        )
    )


class TestTracingIsInvisible:
    def _assert_identical(self, pair, query, k):
        traced_srv, plain_srv = pair
        payload = _search_payload(query, k)
        t = _raw("POST", traced_srv.host, traced_srv.port,
                 "/v1/search", payload)
        p = _raw("POST", plain_srv.host, plain_srv.port,
                 "/v1/search", payload)
        assert t == p, f"tracing changed the answer for {query!r}"

    @identity_settings
    @given(data=st.data(), k=st.integers(min_value=1, max_value=8))
    def test_single_service(self, identity_single, query_pool, data, k):
        self._assert_identical(
            identity_single, data.draw(wire_queries(query_pool)), k
        )

    @identity_settings
    @given(data=st.data(), k=st.integers(min_value=1, max_value=8))
    def test_4_shard_cluster(self, identity_cluster, query_pool, data, k):
        self._assert_identical(
            identity_cluster, data.draw(wire_queries(query_pool)), k
        )


# -- span tree structure ------------------------------------------------------


class TestSpanPropagation:
    @pytest.fixture(scope="class")
    def served(self, tiny_model, tiny_categories):
        tracer = Tracer(slowest_per_endpoint=512)
        backend = ClusterBackend.from_model(
            tiny_model, 4, entity_categories=tiny_categories
        )
        # cache_size=0 so every request reaches the router's probes.
        from repro.api import default_middlewares

        server = AsyncShoalServer(
            Gateway(backend, default_middlewares(cache_size=0)),
            port=0,
            tracer=tracer,
        ).start()
        try:
            yield server, tracer
        finally:
            server.shutdown()

    def test_every_span_joins_the_request_trace(
        self, served, query_pool
    ):
        server, tracer = served
        status, body = _raw(
            "POST", server.host, server.port, "/v1/search",
            _search_payload(query_pool[0]),
        )
        assert status == 200
        trace = tracer.latest()
        assert trace is not None
        rid = trace["request_id"]
        for span in trace["spans"]:
            assert span["span_id"].startswith(f"{rid}:")

    def test_parent_ids_form_a_tree_through_all_layers(
        self, served, query_pool
    ):
        server, tracer = served
        _raw("POST", server.host, server.port, "/v1/search",
             _search_payload(query_pool[1]))
        trace = tracer.latest()
        spans = trace["spans"]
        _assert_is_tree(spans)
        names = [s["name"] for s in spans]
        # The read path must be visible end to end on a cluster tier.
        for expected in ("edge.request", "edge.dispatch", "gateway",
                         "backend.search", "router.search",
                         "router.shard_probe"):
            assert expected in names, f"missing span {expected}"
        # The router probes whichever shards the plan routes this
        # query to — each probe must name its shard.
        probes = [s for s in spans if s["name"] == "router.shard_probe"]
        assert probes
        assert {p["tags"]["shard"] for p in probes} <= {"0", "1", "2", "3"}

    def test_spans_nest_within_their_parents(self, served, query_pool):
        server, tracer = served
        _raw("POST", server.host, server.port, "/v1/search",
             _search_payload(query_pool[2]))
        spans = tracer.latest()["spans"]
        by_id = {s["span_id"]: s for s in spans}
        eps = 1.5  # ms; executor hand-offs jitter the clock reads
        for span in spans:
            parent = by_id.get(span["parent_id"])
            if parent is None:
                continue
            assert span["start_ms"] >= parent["start_ms"] - eps
            assert (
                span["start_ms"] + span["duration_ms"]
                <= parent["start_ms"] + parent["duration_ms"] + eps
            )


# -- access log + /v1/trace compose -------------------------------------------


class TestAccessLogToTrace:
    def test_logged_request_id_resolves_to_a_coherent_trace(
        self, snapshot_dir, query_pool
    ):
        log = io.StringIO()
        tracer = Tracer(slowest_per_endpoint=512)
        from repro.api import default_middlewares

        server = AsyncShoalServer(
            Gateway(
                ServiceBackend.from_snapshot(snapshot_dir),
                default_middlewares(cache_size=64),
                access_log=log,
            ),
            port=0,
            tracer=tracer,
        ).start()
        try:
            url = f"http://{server.host}:{server.port}"
            for query in query_pool[:6]:
                _raw("POST", server.host, server.port, "/v1/search",
                     _search_payload(query))
            # Repeat one query: the cache hit must be logged as such.
            _raw("POST", server.host, server.port, "/v1/search",
                 _search_payload(query_pool[0]))

            lines = [json.loads(l) for l in log.getvalue().splitlines()]
            assert len(lines) == 7
            assert all(l["status"] == 200 for l in lines)
            assert all(l["endpoint"] == "search" for l in lines)
            assert lines[-1]["cache"] == "hit"
            assert {l["cache"] for l in lines[:-1]} == {"miss"}

            slowest = max(lines, key=lambda l: l["duration_ms"])
            client = ShoalClient(url)
            response = client.trace(slowest["request_id"])
            assert response.request_id == slowest["request_id"]
            assert response.endpoint == "search"
            _assert_is_tree(response.spans)
            # The gateway stage the access log timed must fit inside
            # the edge-observed root span.
            root = response.spans[0]
            assert response.duration_ms == pytest.approx(
                root["duration_ms"], abs=0.01
            )
            gateway_spans = [
                s for s in response.spans if s["name"] == "gateway"
            ]
            assert gateway_spans
            assert (
                gateway_spans[0]["duration_ms"]
                <= root["duration_ms"] + 0.01
            )
        finally:
            server.shutdown()

    def test_one_request_is_one_id_and_one_chain(
        self, snapshot_dir, query_pool, capsys
    ):
        """Access log, root span, ``/v1/trace`` and ``cli trace`` all
        name the request by the same id, and its spans are a single
        chain from the edge down to the backend."""
        from repro.cli import main as cli_main

        log = io.StringIO()
        tracer = Tracer(slowest_per_endpoint=512)
        server = AsyncShoalServer(
            Gateway(
                ServiceBackend.from_snapshot(snapshot_dir), access_log=log
            ),
            port=0,
            tracer=tracer,
        ).start()
        try:
            status, _ = _raw(
                "POST", server.host, server.port, "/v1/search",
                _search_payload(query_pool[0]),
            )
            assert status == 200
            (line,) = [json.loads(l) for l in log.getvalue().splitlines()]
            assert "attempt" not in line
            trace = tracer.latest()
            assert trace["request_id"] == line["request_id"]

            spans = trace["spans"]
            _assert_is_tree(spans)
            by_parent = {}
            for span in spans:
                by_parent.setdefault(span["parent_id"], []).append(span)
            assert all(len(kids) == 1 for kids in by_parent.values())
            names = [s["name"] for s in spans]  # a chain, so root first
            assert names[:3] == ["edge.request", "edge.dispatch", "gateway"]
            middle, tail = names[3:-1], names[-1]
            assert middle and all(n.startswith("mw.") for n in middle)
            assert tail == "backend.search"

            code = cli_main([
                "trace", "--url", f"http://{server.host}:{server.port}",
                "--request-id", line["request_id"],
            ])
            out = capsys.readouterr().out
            assert code == 0
            assert out.startswith(f"trace {line['request_id']} ")
            assert "edge.dispatch" in out
        finally:
            server.shutdown()

    def test_cache_outcome_is_logged_without_a_tracer(
        self, snapshot_dir, query_pool
    ):
        """The access log names hit/miss with tracing off: the cache
        stage tags the request context on the one chain every request
        takes, not on a traced variant of it."""
        log = io.StringIO()
        from repro.api import default_middlewares

        server = AsyncShoalServer(
            Gateway(
                ServiceBackend.from_snapshot(snapshot_dir),
                default_middlewares(cache_size=64),
                access_log=log,
            ),
            port=0,
        ).start()
        try:
            for _ in range(2):
                status, _ = _raw(
                    "POST", server.host, server.port, "/v1/search",
                    _search_payload(query_pool[0]),
                )
                assert status == 200
        finally:
            server.shutdown()
        lines = [json.loads(l) for l in log.getvalue().splitlines()]
        assert [l["cache"] for l in lines] == ["miss", "hit"]


# -- the endpoints themselves --------------------------------------------------


class TestTraceEndpoint:
    @pytest.fixture(scope="class")
    def served(self, snapshot_dir):
        tracer = Tracer(slowest_per_endpoint=512)
        server = AsyncShoalServer(
            Gateway(ServiceBackend.from_snapshot(snapshot_dir)),
            port=0,
            tracer=tracer,
        ).start()
        try:
            yield server, tracer
        finally:
            server.shutdown()

    def test_latest_trace_is_served(self, served, query_pool):
        server, _ = served
        _raw("POST", server.host, server.port, "/v1/search",
             _search_payload(query_pool[0]))
        status, body = _raw("GET", server.host, server.port, "/v1/trace")
        assert status == 200
        trace = json.loads(body)
        assert trace["endpoint"] == "search"
        _assert_is_tree(trace["spans"])

    def test_unknown_request_id_is_404(self, served):
        server, _ = served
        status, body = _raw(
            "GET", server.host, server.port,
            "/v1/trace?request_id=req-999999",
        )
        assert status == 404
        assert json.loads(body)["error"]["code"] == "not_found"

    def test_tracing_disabled_is_404(self, snapshot_dir):
        server = AsyncShoalServer(
            Gateway(ServiceBackend.from_snapshot(snapshot_dir)), port=0
        ).start()
        try:
            status, body = _raw(
                "GET", server.host, server.port, "/v1/trace"
            )
            assert status == 404
            assert json.loads(body)["error"]["code"] == "not_found"
        finally:
            server.shutdown()

    def test_json_metrics_carry_the_tracer_section(
        self, served, query_pool
    ):
        server, tracer = served
        _raw("POST", server.host, server.port, "/v1/search",
             _search_payload(query_pool[1]))
        _, body = _raw("GET", server.host, server.port, "/v1/metrics")
        section = json.loads(body)["tracer"]
        assert section["traces_sampled"] >= 1
        assert section["spans_started"] >= 1
        assert section == tracer.stats()


class TestPromExposition:
    def _scrape(self, server):
        conn = http.client.HTTPConnection(
            server.host, server.port, timeout=10
        )
        try:
            conn.request("GET", "/v1/metrics?format=prom")
            resp = conn.getresponse()
            return (
                resp.status,
                resp.getheader("Content-Type"),
                resp.read().decode("utf-8"),
            )
        finally:
            conn.close()

    def test_scrape_passes_the_strict_parser(
        self, snapshot_dir, query_pool
    ):
        server = AsyncShoalServer(
            Gateway(ServiceBackend.from_snapshot(snapshot_dir)),
            port=0,
            tracer=Tracer(),
        ).start()
        try:
            for query in query_pool[:3]:
                _raw("POST", server.host, server.port, "/v1/search",
                     _search_payload(query))
            status, content_type, text = self._scrape(server)
            assert status == 200
            assert content_type.startswith("application/openmetrics-text")
            doc = parse_openmetrics(text)  # raises on any violation
            assert doc.value("shoal_backend_latency_search_count") == 3
            assert doc.types["shoal_gateway_search_latency_ms"] == (
                "histogram"
            )
            assert doc.value(
                "shoal_gateway_search_latency_ms_count"
            ) == 3
            assert doc.value("shoal_tracer_traces_sampled") >= 1
        finally:
            server.shutdown()

    def test_unknown_format_is_400(self, snapshot_dir):
        server = AsyncShoalServer(
            Gateway(ServiceBackend.from_snapshot(snapshot_dir)), port=0
        ).start()
        try:
            status, body = _raw(
                "GET", server.host, server.port,
                "/v1/metrics?format=yaml",
            )
            assert status == 400
            assert json.loads(body)["error"]["code"] == "bad_request"
        finally:
            server.shutdown()
