"""GET/POST /v1/analytics over a real server, plus the metrics scrape.

The analytics tier rides the same HTTP edge as serving: typed request
in, typed response out, stable error codes mapped to status lines, and
the tailer's progress folded into ``GET /v1/metrics``.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.parse
import urllib.request

import pytest

from repro.analytics import AnalyticsStore, QueryEngine, SegmentTailer
from repro.api import (
    AnalyticsRequest,
    ApiError,
    AsyncShoalServer,
    Gateway,
    ServiceBackend,
    ShoalClient,
)

from tests.analytics.conftest import fill_wal

N_EVENTS = 80


@pytest.fixture(scope="module")
def analytics_server(tiny_model, tiny_marketplace, tmp_path_factory):
    """A full stack: backend + engine + tailer behind one HTTP server."""
    root = tmp_path_factory.mktemp("analytics-http")
    backend = ServiceBackend.from_model(
        tiny_model,
        entity_categories={
            e.entity_id: e.category_id
            for e in tiny_marketplace.catalog.entities
        },
    )
    wal = fill_wal(root / "wal", N_EVENTS)
    wal.close()
    store = AnalyticsStore(root / "analytics.db")
    tailer = SegmentTailer(root / "wal", store)
    tailer.catch_up()
    server = AsyncShoalServer(
        Gateway(backend),
        port=0,
        analytics_engine=QueryEngine(store),
        analytics_tailer=tailer,
    ).start()
    try:
        yield server, ShoalClient(server.url, timeout=10)
    finally:
        server.shutdown()  # drains the tailer and closes the store


def _get(url) -> tuple:
    try:
        with urllib.request.urlopen(url, timeout=10) as resp:
            return resp.status, json.loads(resp.read().decode())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read().decode())


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


class TestAnalyticsOverHttp:
    def test_post_sql_returns_the_relation(self, analytics_server):
        server, _ = analytics_server
        status, body = _post(
            f"{server.url}/v1/analytics",
            {"sql": "SELECT COUNT(*) AS n FROM events"},
        )
        assert status == 200
        assert body["columns"] == ["n"]
        assert body["rows"] == [[N_EVENTS]]

    def test_typed_client_round_trip(self, analytics_server):
        _, client = analytics_server
        response = client.analytics(
            AnalyticsRequest(
                sql="SELECT day, COUNT(*) AS n FROM events GROUP BY day"
            )
        )
        assert response.columns == ("day", "n")
        assert sum(row[1] for row in response.rows) == N_EVENTS

    def test_get_with_query_parameters(self, analytics_server):
        server, _ = analytics_server
        sql = urllib.parse.quote("SELECT COUNT(*) AS n FROM events")
        status, body = _get(f"{server.url}/v1/analytics?sql={sql}")
        assert status == 200
        assert body["rows"] == [[N_EVENTS]]

    def test_get_report_equals_post_report(self, analytics_server):
        server, client = analytics_server
        _, get_body = _get(
            f"{server.url}/v1/analytics?report=daily&limit=5"
        )
        typed = client.analytics(
            AnalyticsRequest(report="daily", limit=5)
        ).to_dict()
        typed.pop("elapsed_ms")
        get_body.pop("elapsed_ms")  # wall-clock differs per execution
        assert typed == get_body

    def test_get_sample_flag(self, analytics_server):
        server, _ = analytics_server
        sql = urllib.parse.quote("SELECT COUNT(*) AS n FROM events")
        status, body = _get(
            f"{server.url}/v1/analytics?sql={sql}&sample=true"
        )
        assert status == 200
        assert body["sampled"] is True
        assert body["rows"][0][0] <= N_EVENTS


class TestAnalyticsHttpErrors:
    def test_bad_sql_is_400_analytics_bad_sql(self, analytics_server):
        server, _ = analytics_server
        status, body = _post(
            f"{server.url}/v1/analytics", {"sql": "DROP TABLE events"}
        )
        assert status == 400
        assert body["error"]["code"] == "analytics_bad_sql"

    def test_client_raises_the_typed_code(self, analytics_server):
        _, client = analytics_server
        with pytest.raises(ApiError) as excinfo:
            client.analytics(AnalyticsRequest(sql="DELETE FROM events"))
        assert excinfo.value.code == "analytics_bad_sql"

    def test_sql_and_report_together_is_400(self, analytics_server):
        server, _ = analytics_server
        status, body = _post(
            f"{server.url}/v1/analytics",
            {"sql": "SELECT 1", "report": "daily"},
        )
        assert status == 400
        assert body["error"]["code"] == "invalid_argument"

    def test_get_bad_limit_is_400(self, analytics_server):
        server, _ = analytics_server
        status, body = _get(
            f"{server.url}/v1/analytics?report=daily&limit=lots"
        )
        assert status == 400
        assert body["error"]["code"] == "bad_request"

    def test_timeout_is_504(self, analytics_server):
        server, _ = analytics_server
        runaway = (
            "WITH RECURSIVE c(x) AS (SELECT 1 UNION ALL SELECT x + 1 "
            "FROM c WHERE x < 100000000) SELECT COUNT(*) FROM c"
        )
        status, body = _post(
            f"{server.url}/v1/analytics", {"sql": runaway, "timeout_ms": 10}
        )
        assert status == 504
        assert body["error"]["code"] == "analytics_timeout"

    def test_server_without_analytics_tier_is_503(
        self, tiny_model, tiny_marketplace
    ):
        backend = ServiceBackend.from_model(
            tiny_model,
            entity_categories={
                e.entity_id: e.category_id
                for e in tiny_marketplace.catalog.entities
            },
        )
        with AsyncShoalServer(Gateway(backend), port=0) as server:
            status, body = _post(
                f"{server.url}/v1/analytics", {"sql": "SELECT 1"}
            )
            assert status == 503
            assert body["error"]["code"] == "analytics_unavailable"
            client = ShoalClient(server.url, timeout=10)
            with pytest.raises(ApiError) as excinfo:
                client.analytics(AnalyticsRequest(sql="SELECT 1"))
            assert excinfo.value.code == "analytics_unavailable"


class TestMetricsScrape:
    def test_metrics_fold_in_the_analytics_section(self, analytics_server):
        _, client = analytics_server
        client.analytics(AnalyticsRequest(report="daily"))
        metrics = client.metrics()
        analytics = metrics.analytics
        assert analytics is not None
        assert analytics["applied_seq"] == N_EVENTS
        assert analytics["events"] == N_EVENTS
        assert analytics["lag"] == 0
        assert analytics["queries_served"] >= 1

    def test_bare_metrics_alias_removed(self, analytics_server):
        """The deprecated unversioned /metrics alias is gone: 404."""
        server, _ = analytics_server
        status, body = _get(f"{server.url}/metrics")
        assert status == 404
        assert body["error"]["code"] == "not_found"
        _, versioned = _get(f"{server.url}/v1/metrics")
        assert versioned["analytics"]["applied_seq"] == N_EVENTS

    def test_metrics_without_analytics_has_no_section(
        self, tiny_model, tiny_marketplace
    ):
        backend = ServiceBackend.from_model(
            tiny_model,
            entity_categories={
                e.entity_id: e.category_id
                for e in tiny_marketplace.catalog.entities
            },
        )
        with AsyncShoalServer(Gateway(backend), port=0) as server:
            metrics = ShoalClient(server.url, timeout=10).metrics()
            assert metrics.analytics is None
            assert metrics.backend["backend"] == "gateway"
