"""Contract codecs: round-trip identity and error-code mapping.

The wire format is load-bearing: the HTTP edge and the in-process
client both run every payload through ``to_dict``/``from_dict``, so
``from_dict(to_dict(x)) == x`` must hold *exactly* (floats included)
for answers to stay byte-identical across transports. Hypothesis
drives the round-trips; the error tests pin each invalid payload to
its stable :class:`ApiError` code.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    ANALYTICS_REPORTS,
    AnalyticsRequest,
    AnalyticsResponse,
    ApiError,
    BatchRequest,
    BatchResponse,
    ERROR_CODES,
    MAX_ANALYTICS_ROWS,
    MAX_BATCH_QUERIES,
    MAX_K,
    MAX_QUERY_CHARS,
    MAX_SQL_CHARS,
    MetricsResponse,
    RecommendRequest,
    RecommendResponse,
    SCHEMA_VERSION,
    SearchRequest,
    SearchResponse,
    request_from_dict,
)
from repro.api.http import _json_bytes
from repro.core.serving import TopicHit

# -- strategies --------------------------------------------------------------

queries = st.text(min_size=1, max_size=40).filter(lambda s: s.strip())
ks = st.integers(min_value=1, max_value=MAX_K)
timeouts = st.one_of(
    st.none(), st.floats(min_value=0.001, max_value=1e6, allow_nan=False)
)
scores = st.floats(allow_nan=False, allow_infinity=False, width=64)

topic_hits = st.builds(
    TopicHit,
    topic_id=st.integers(min_value=0, max_value=10**9),
    score=scores,
    label=st.text(max_size=30),
    n_entities=st.integers(min_value=0, max_value=10**6),
    n_categories=st.integers(min_value=0, max_value=10**4),
)

search_requests = st.builds(
    SearchRequest, query=queries, k=ks, timeout_ms=timeouts
)
recommend_requests = st.builds(
    RecommendRequest, query=queries, k=ks, timeout_ms=timeouts
)
batch_requests = st.builds(
    BatchRequest,
    queries=st.lists(queries, min_size=1, max_size=8).map(tuple),
    k=ks,
    kind=st.sampled_from(["search", "recommend"]),
    timeout_ms=timeouts,
)
search_responses = st.builds(
    SearchResponse, hits=st.lists(topic_hits, max_size=6).map(tuple)
)
recommend_responses = st.builds(
    RecommendResponse,
    entity_ids=st.lists(
        st.integers(min_value=0, max_value=10**9), max_size=10
    ).map(tuple),
)


sqls = st.text(min_size=1, max_size=60).filter(lambda s: s.strip())
analytics_limits = st.integers(min_value=1, max_value=MAX_ANALYTICS_ROWS)

analytics_sql_requests = st.builds(
    AnalyticsRequest,
    sql=sqls,
    limit=analytics_limits,
    sample=st.booleans(),
    timeout_ms=timeouts,
)
analytics_report_requests = st.builds(
    AnalyticsRequest,
    report=st.sampled_from(ANALYTICS_REPORTS),
    limit=analytics_limits,
    sample=st.booleans(),
    timeout_ms=timeouts,
)
analytics_requests = st.one_of(
    analytics_sql_requests, analytics_report_requests
)

#: Every type a SQLite result cell can carry over the wire.
cells = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**12), max_value=10**12),
    scores,
    st.text(max_size=20),
)


def _analytics_responses():
    def build(n_cols):
        return st.builds(
            AnalyticsResponse,
            columns=st.lists(
                st.text(min_size=1, max_size=12),
                min_size=n_cols,
                max_size=n_cols,
            ).map(tuple),
            rows=st.lists(
                st.lists(cells, min_size=n_cols, max_size=n_cols).map(tuple),
                max_size=5,
            ).map(tuple),
            truncated=st.booleans(),
            sampled=st.booleans(),
            elapsed_ms=st.floats(
                min_value=0, max_value=1e6, allow_nan=False
            ),
        )

    return st.integers(min_value=1, max_value=4).flatmap(build)


analytics_responses = _analytics_responses()

#: A JSON-object stats section (what subsystem ``stats()`` dicts hold).
sections = st.dictionaries(
    st.text(min_size=1, max_size=12), st.one_of(cells), max_size=4
)
metrics_responses = st.builds(
    MetricsResponse,
    backend=sections,
    ingest=st.one_of(st.none(), sections),
    updater=st.one_of(st.none(), sections),
    analytics=st.one_of(st.none(), sections),
)


def batch_responses():
    def build(kind):
        if kind == "search":
            rows = st.lists(st.lists(topic_hits, max_size=4).map(tuple),
                            max_size=4).map(tuple)
        else:
            rows = st.lists(
                st.lists(
                    st.integers(min_value=0, max_value=10**9), max_size=6
                ).map(tuple),
                max_size=4,
            ).map(tuple)
        return st.builds(BatchResponse, kind=st.just(kind), results=rows)

    return st.sampled_from(["search", "recommend"]).flatmap(build)


# -- round-trips -------------------------------------------------------------


class TestRoundTrips:
    """from_dict(to_dict(x)) == x — including through real JSON text."""

    @settings(max_examples=150)
    @given(search_requests)
    def test_search_request(self, req):
        assert SearchRequest.from_dict(req.to_dict()) == req
        assert (
            SearchRequest.from_dict(json.loads(json.dumps(req.to_dict())))
            == req
        )

    @settings(max_examples=150)
    @given(recommend_requests)
    def test_recommend_request(self, req):
        assert RecommendRequest.from_dict(req.to_dict()) == req

    @settings(max_examples=150)
    @given(batch_requests)
    def test_batch_request(self, req):
        assert BatchRequest.from_dict(req.to_dict()) == req
        assert (
            BatchRequest.from_dict(json.loads(json.dumps(req.to_dict())))
            == req
        )

    @settings(max_examples=150)
    @given(search_responses)
    def test_search_response(self, resp):
        assert SearchResponse.from_dict(resp.to_dict()) == resp
        # Float scores must survive actual JSON text, not just dicts.
        assert (
            SearchResponse.from_dict(json.loads(json.dumps(resp.to_dict())))
            == resp
        )

    @settings(max_examples=150)
    @given(recommend_responses)
    def test_recommend_response(self, resp):
        assert RecommendResponse.from_dict(resp.to_dict()) == resp

    @settings(max_examples=150)
    @given(batch_responses())
    def test_batch_response(self, resp):
        assert BatchResponse.from_dict(resp.to_dict()) == resp
        assert (
            BatchResponse.from_dict(json.loads(json.dumps(resp.to_dict())))
            == resp
        )

    @settings(max_examples=150)
    @given(analytics_requests)
    def test_analytics_request(self, req):
        assert AnalyticsRequest.from_dict(req.to_dict()) == req
        assert (
            AnalyticsRequest.from_dict(json.loads(json.dumps(req.to_dict())))
            == req
        )

    @settings(max_examples=150)
    @given(analytics_responses)
    def test_analytics_response(self, resp):
        assert AnalyticsResponse.from_dict(resp.to_dict()) == resp
        # Result cells carry every JSON scalar type; they must survive
        # real JSON text, floats included.
        assert (
            AnalyticsResponse.from_dict(
                json.loads(json.dumps(resp.to_dict()))
            )
            == resp
        )

    @settings(max_examples=150)
    @given(metrics_responses)
    def test_metrics_response(self, resp):
        assert MetricsResponse.from_dict(resp.to_dict()) == resp
        assert (
            MetricsResponse.from_dict(json.loads(json.dumps(resp.to_dict())))
            == resp
        )


# -- the wire encoder ---------------------------------------------------------

#: Labels that stress JSON string escaping: quotes, backslashes, control
#: characters (C0, DEL, the JS line separators), non-ASCII text, emoji.
wire_labels = st.one_of(
    st.text(max_size=30),
    st.lists(
        st.sampled_from(
            ['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "\u2028",
             "é", "中文", "😀", "👩‍👩‍👧", "a", " ", "/", "score", ":"]
        ),
        max_size=12,
    ).map("".join),
)
#: Finite scores, with the edge cases of float formatting drawn often.
wire_scores = st.one_of(
    scores,
    st.sampled_from(
        [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 1e16, -1e16,
         1e-7, 1e-5, 1e-4, 123456789012345.6, 1.7976931348623157e308]
    ),
)
wire_hits = st.builds(
    TopicHit,
    topic_id=st.integers(min_value=0, max_value=10**12),
    score=wire_scores,
    label=wire_labels,
    n_entities=st.integers(min_value=0, max_value=10**9),
    n_categories=st.integers(min_value=0, max_value=10**6),
)
wire_hit_lists = st.lists(wire_hits, max_size=6).map(tuple)
wire_search_responses = st.builds(SearchResponse, hits=wire_hit_lists)
wire_batch_responses = st.builds(
    BatchResponse,
    kind=st.just("search"),
    results=st.lists(wire_hit_lists, max_size=5).map(tuple),
)


class TestWireEncoder:
    """Search answers are written straight to wire text; the bytes must
    be exactly what ``json.dumps`` makes of their ``to_dict``."""

    @settings(max_examples=300)
    @given(st.one_of(wire_search_responses, wire_batch_responses))
    def test_bytes_equal_json_dumps_of_to_dict(self, response):
        wire = _json_bytes(response)
        assert wire == _json_bytes(response.to_dict())
        assert wire == json.dumps(
            response.to_dict(), ensure_ascii=False, allow_nan=False
        ).encode("utf-8")

    @pytest.mark.parametrize(
        "response",
        [
            SearchResponse(hits=()),
            BatchResponse(kind="search", results=()),
            BatchResponse(kind="search", results=((), ())),
            BatchResponse(kind="recommend", results=((1, 2), ())),
        ],
        ids=["no-hits", "no-results", "empty-rows", "recommend"],
    )
    def test_empty_answers(self, response):
        assert _json_bytes(response) == _json_bytes(response.to_dict())

    @pytest.mark.parametrize(
        "bad", [float("nan"), float("inf"), float("-inf")]
    )
    def test_non_finite_scores_raise_like_json_dumps(self, bad):
        fine = TopicHit(1, 0.5, 'a "score": nan', 2, 3)
        hit = TopicHit(2, bad, "x", 1, 1)
        for response in (
            SearchResponse(hits=(fine, hit)),
            BatchResponse(kind="search", results=((fine,), (hit,))),
        ):
            with pytest.raises(ValueError):
                json.dumps(response.to_dict(), allow_nan=False)
            with pytest.raises(ValueError):
                _json_bytes(response)

    def test_a_label_that_spells_a_non_finite_score_is_text(self):
        """The non-finite check looks at scores, not at label text."""
        response = SearchResponse(
            hits=(TopicHit(1, 1.5, '"score": nan, "score": -inf', 2, 3),)
        )
        assert _json_bytes(response) == _json_bytes(response.to_dict())


# -- invalid payloads → stable error codes -----------------------------------


def _code_of(call) -> str:
    with pytest.raises(ApiError) as excinfo:
        call()
    return excinfo.value.code


class TestErrorCodes:
    def test_missing_query_is_bad_request(self):
        assert _code_of(lambda: SearchRequest.from_dict({"k": 3})) == (
            "bad_request"
        )

    def test_non_string_query_is_bad_request(self):
        payload = {"query": 42}
        assert _code_of(lambda: SearchRequest.from_dict(payload)) == (
            "bad_request"
        )

    def test_empty_query_is_invalid_argument(self):
        payload = {"query": "   "}
        assert _code_of(lambda: SearchRequest.from_dict(payload)) == (
            "invalid_argument"
        )

    def test_overlong_query_is_invalid_argument(self):
        payload = {"query": "x" * (MAX_QUERY_CHARS + 1)}
        assert _code_of(lambda: SearchRequest.from_dict(payload)) == (
            "invalid_argument"
        )

    @pytest.mark.parametrize("k", [0, -1, MAX_K + 1])
    def test_out_of_bounds_k_is_invalid_argument(self, k):
        payload = {"query": "beach", "k": k}
        assert _code_of(lambda: SearchRequest.from_dict(payload)) == (
            "invalid_argument"
        )

    @pytest.mark.parametrize("k", ["5", 2.5, True, None])
    def test_non_integer_k_is_bad_request(self, k):
        payload = {"query": "beach", "k": k}
        assert _code_of(lambda: SearchRequest.from_dict(payload)) == (
            "bad_request"
        )

    def test_unknown_field_is_bad_request(self):
        payload = {"query": "beach", "limit": 5}
        assert _code_of(lambda: SearchRequest.from_dict(payload)) == (
            "bad_request"
        )

    def test_wrong_version_is_unsupported_version(self):
        payload = {"query": "beach", "version": SCHEMA_VERSION + 1}
        assert _code_of(lambda: SearchRequest.from_dict(payload)) == (
            "unsupported_version"
        )

    def test_non_integer_version_is_bad_request(self):
        payload = {"query": "beach", "version": "1"}
        assert _code_of(lambda: SearchRequest.from_dict(payload)) == (
            "bad_request"
        )

    def test_negative_timeout_is_invalid_argument(self):
        payload = {"query": "beach", "timeout_ms": -5}
        assert _code_of(lambda: SearchRequest.from_dict(payload)) == (
            "invalid_argument"
        )

    def test_empty_batch_is_invalid_argument(self):
        payload = {"queries": []}
        assert _code_of(lambda: BatchRequest.from_dict(payload)) == (
            "invalid_argument"
        )

    def test_oversize_batch_is_invalid_argument(self):
        payload = {"queries": ["q"] * (MAX_BATCH_QUERIES + 1)}
        assert _code_of(lambda: BatchRequest.from_dict(payload)) == (
            "invalid_argument"
        )

    def test_batch_with_bad_kind_is_invalid_argument(self):
        payload = {"queries": ["q"], "kind": "delete"}
        assert _code_of(lambda: BatchRequest.from_dict(payload)) == (
            "invalid_argument"
        )

    def test_batch_queries_not_a_list_is_bad_request(self):
        payload = {"queries": "beach"}
        assert _code_of(lambda: BatchRequest.from_dict(payload)) == (
            "bad_request"
        )

    def test_batch_blank_member_is_invalid_argument(self):
        payload = {"queries": ["ok", ""]}
        assert _code_of(lambda: BatchRequest.from_dict(payload)) == (
            "invalid_argument"
        )

    def test_unknown_endpoint_is_not_found(self):
        assert _code_of(
            lambda: request_from_dict("delete", {"query": "x"})
        ) == "not_found"

    def test_non_object_payload_is_bad_request(self):
        assert _code_of(lambda: SearchRequest.from_dict([1, 2])) == (
            "bad_request"
        )

    def test_malformed_response_hits_is_bad_request(self):
        assert _code_of(
            lambda: SearchResponse.from_dict({"hits": "nope"})
        ) == "bad_request"

    def test_malformed_topic_hit_is_bad_request(self):
        assert _code_of(
            lambda: SearchResponse.from_dict(
                {"hits": [{"topic_id": "NaN-ish"}]}
            )
        ) == "bad_request"

    def test_analytics_sql_and_report_together_is_invalid_argument(self):
        payload = {"sql": "SELECT 1", "report": "trending"}
        assert _code_of(lambda: AnalyticsRequest.from_dict(payload)) == (
            "invalid_argument"
        )

    def test_analytics_neither_sql_nor_report_is_invalid_argument(self):
        assert _code_of(lambda: AnalyticsRequest.from_dict({})) == (
            "invalid_argument"
        )

    def test_analytics_blank_sql_is_invalid_argument(self):
        assert _code_of(
            lambda: AnalyticsRequest.from_dict({"sql": "   "})
        ) == "invalid_argument"

    def test_analytics_overlong_sql_is_invalid_argument(self):
        payload = {"sql": "SELECT " + "x" * MAX_SQL_CHARS}
        assert _code_of(lambda: AnalyticsRequest.from_dict(payload)) == (
            "invalid_argument"
        )

    def test_analytics_unknown_report_is_invalid_argument(self):
        payload = {"report": "top-secret"}
        assert _code_of(lambda: AnalyticsRequest.from_dict(payload)) == (
            "invalid_argument"
        )

    @pytest.mark.parametrize("limit", [0, -3, MAX_ANALYTICS_ROWS + 1])
    def test_analytics_out_of_bounds_limit_is_invalid_argument(self, limit):
        payload = {"report": "daily", "limit": limit}
        assert _code_of(lambda: AnalyticsRequest.from_dict(payload)) == (
            "invalid_argument"
        )

    @pytest.mark.parametrize("limit", ["10", 2.5, True, None])
    def test_analytics_non_integer_limit_is_bad_request(self, limit):
        payload = {"report": "daily", "limit": limit}
        assert _code_of(lambda: AnalyticsRequest.from_dict(payload)) == (
            "bad_request"
        )

    def test_analytics_non_boolean_sample_is_bad_request(self):
        payload = {"report": "daily", "sample": "yes"}
        assert _code_of(lambda: AnalyticsRequest.from_dict(payload)) == (
            "bad_request"
        )

    def test_analytics_unknown_field_is_bad_request(self):
        payload = {"sql": "SELECT 1", "format": "csv"}
        assert _code_of(lambda: AnalyticsRequest.from_dict(payload)) == (
            "bad_request"
        )

    def test_analytics_response_non_scalar_cell_is_bad_request(self):
        payload = {"columns": ["a"], "rows": [[{"nested": 1}]]}
        assert _code_of(
            lambda: AnalyticsResponse.from_dict(payload)
        ) == "bad_request"

    def test_analytics_response_string_rows_is_bad_request(self):
        payload = {"columns": ["a"], "rows": "not-an-array"}
        assert _code_of(
            lambda: AnalyticsResponse.from_dict(payload)
        ) == "bad_request"

    def test_metrics_missing_backend_is_bad_request(self):
        assert _code_of(
            lambda: MetricsResponse.from_dict({"ingest": {}})
        ) == "bad_request"

    def test_metrics_non_object_section_is_bad_request(self):
        payload = {"backend": {}, "analytics": [1, 2]}
        assert _code_of(
            lambda: MetricsResponse.from_dict(payload)
        ) == "bad_request"


class TestApiErrorType:
    def test_every_code_has_an_http_status(self):
        for code, status in ERROR_CODES.items():
            assert 400 <= ApiError(code, "m").http_status == status < 600

    def test_unknown_code_rejected_at_construction(self):
        with pytest.raises(ValueError):
            ApiError("teapot", "I'm one")

    def test_error_round_trip(self):
        err = ApiError("rate_limited", "slow down")
        parsed = ApiError.from_dict(err.to_dict())
        assert (parsed.code, parsed.message) == ("rate_limited", "slow down")

    def test_foreign_error_code_degrades_to_backend_error(self):
        parsed = ApiError.from_dict(
            {"error": {"code": "mystery", "message": "?"}}
        )
        assert parsed.code == "backend_error"
