"""The HTTP contract: transport-neutral dispatch core and typed client.

:class:`GatewayCore` is everything about serving a
:class:`~repro.api.backends.ShoalBackend` (usually a
:class:`~repro.api.middleware.Gateway`) over HTTP that is not socket
handling; the asyncio edge in :mod:`repro.api.aio` owns the sockets and
delegates every request here. The wire format is the
:mod:`repro.api.contract` JSON codec, so answers are byte-identical to
the in-process backend:

* ``POST /v1/search``     — :class:`SearchRequest` → :class:`SearchResponse`
* ``POST /v1/recommend``  — :class:`RecommendRequest` → :class:`RecommendResponse`
* ``POST /v1/batch``      — :class:`BatchRequest` → :class:`BatchResponse`
* ``POST /v1/ingest``     — write path: one event or ``{"events": [...]}``
  into the attached :class:`~repro.streaming.ingest.IngestPipe`
  (``404 not_found`` when ingest is not enabled; backpressure surfaces
  as ``429 ingest_overloaded`` / ``503 ingest_unavailable``)
* ``GET/POST /v1/analytics`` — :class:`AnalyticsRequest` →
  :class:`AnalyticsResponse` against the attached analytics tier
  (GET takes ``sql``/``report``/``limit``/``sample`` query params;
  ``503 analytics_unavailable`` when no analytics store is attached)
* ``GET  /v1/health``     — liveness + backend identity
* ``GET  /v1/stats``      — cache/latency/error counters
* ``GET  /v1/metrics``    — the versioned scrape point, a
  :class:`MetricsResponse`: backend stats plus ingest-pipe, updater,
  analytics-tier, and async-edge progress (the unversioned alias was
  removed after its one-release deprecation; scrape ``/v1/metrics``).
  ``?format=prom`` renders the same tree as OpenMetrics text instead
* ``GET  /v1/trace``      — one sampled span tree
  (:class:`~repro.api.contract.TraceResponse`); ``?request_id=`` for
  an exact lookup, bare for the most recent (``404 not_found`` when
  tracing is disabled or the trace was not kept)

Errors are :class:`ApiError` payloads with the contract's stable codes
and status mapping (400/404/429/504/500).

:class:`GatewayCore` holds route names, payload decoding and
ingest/analytics/metrics assembly. The edge mints a
:class:`~repro.api.context.RequestContext` per request and dispatches
under it, which is how deadlines and cancellation reach the layers
below.

:class:`ShoalClient` speaks the same typed contract either over HTTP
(pass a URL) or in-process (pass any backend). The in-process mode
still routes every request and response through the JSON codecs, so a
client cannot accidentally depend on behaviour the wire would not
carry.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.parse
import urllib.request
from typing import Any, Dict, Optional, Union

from repro.api.backends import ShoalBackend
from repro.api.context import RequestContext
from repro.api.contract import (
    AnalyticsRequest,
    AnalyticsResponse,
    ApiError,
    BatchRequest,
    BatchResponse,
    MetricsResponse,
    RecommendRequest,
    RecommendResponse,
    RESPONSE_TYPES,
    SearchRequest,
    SearchResponse,
    TraceResponse,
    request_from_dict,
)
from repro.obs.exposition import (
    CONTENT_TYPE as OPENMETRICS_CONTENT_TYPE,
    render_openmetrics,
)

__all__ = [
    "GatewayCore",
    "RawResponse",
    "ShoalClient",
    "API_PREFIX",
]

API_PREFIX = "/v1"

#: Bound on accepted request bodies; a contract-sized payload is a few
#: KiB, so anything near this is abuse, not traffic.
MAX_BODY_BYTES = 1 << 20


def _json_bytes(payload: Dict[str, Any]) -> bytes:
    return json.dumps(payload, ensure_ascii=False, allow_nan=False).encode(
        "utf-8"
    )


class RawResponse:
    """A non-JSON GET answer (e.g. OpenMetrics text) with its MIME type.

    ``GatewayCore.dispatch_get`` normally returns a JSON payload dict;
    when it returns one of these instead, the edge writes ``body``
    verbatim under ``content_type`` rather than JSON-encoding.
    """

    __slots__ = ("body", "content_type")

    def __init__(self, body: bytes, content_type: str) -> None:
        self.body = body
        self.content_type = content_type


class GatewayCore:
    """The transport-neutral heart of the HTTP edge.

    Endpoint routing, typed dispatch, ingest batch semantics, analytics
    query parsing and metrics assembly live here; the edge keeps only
    its I/O: socket handling, keep-alive hygiene, deadlines and
    coalescing.

    ``edge_stats`` is an optional zero-argument callable returning the
    serving edge's own counters (connections, deadline expiries,
    coalescer batches); when set, they appear as the ``edge`` section of
    ``GET /v1/metrics``. ``replication_stats`` is the same shape for
    the replication role — a shipper's publish counters on a primary,
    a follower's lag (segments behind, seqs behind, epoch) on a
    replica — surfacing as the ``replication`` section.
    """

    def __init__(
        self,
        backend: ShoalBackend,
        *,
        ingest_pipe=None,
        updater=None,
        analytics_engine=None,
        analytics_tailer=None,
        edge_stats=None,
        replication_stats=None,
        tracer=None,
        edge_histograms=None,
    ):
        self.backend = backend
        self.ingest_pipe = ingest_pipe
        self.updater = updater
        self.analytics_engine = analytics_engine
        self.analytics_tailer = analytics_tailer
        self.edge_stats = edge_stats
        self.replication_stats = replication_stats
        #: Optional :class:`repro.obs.tracer.Tracer`; enables
        #: ``GET /v1/trace`` and the ``tracer`` metrics section.
        self.tracer = tracer
        #: Optional zero-arg callable -> {name: Histogram} with the
        #: edge's own live latency recorders, rendered as real
        #: histogram families by ``?format=prom``.
        self.edge_histograms = edge_histograms

    # -- typed read dispatch -------------------------------------------------

    def dispatch_request(
        self, request, *, context: Optional[RequestContext] = None
    ):
        """Dispatch one decoded contract request to the backend.

        ``context`` (when the edge minted one) becomes the ambient
        :class:`RequestContext` for the whole call — middleware arms
        it, backend and router poll it.
        """
        if context is not None:
            with context.use():
                return self._dispatch(request)
        return self._dispatch(request)

    def _dispatch(self, request):
        if isinstance(request, AnalyticsRequest):
            return self.handle_analytics(request)
        if isinstance(request, SearchRequest):
            return self.backend.search(request)
        if isinstance(request, RecommendRequest):
            return self.backend.recommend(request)
        if isinstance(request, BatchRequest):
            return self.backend.batch(request)
        raise ApiError(
            "bad_request", f"not an API request: {type(request).__name__}"
        )

    def decode_post(self, endpoint: str, payload: Dict[str, Any]):
        """Decode + validate a POST payload for ``endpoint`` (reads
        only — ``ingest`` routes through the ingest entry points)."""
        return request_from_dict(endpoint, payload)

    # -- write path ----------------------------------------------------------

    def ingest_events_from_payload(self, payload: Dict[str, Any]) -> list:
        """Shape-check an ingest POST body and return its event dicts.

        The whole batch is validated *before* any event is admitted, so
        a malformed payload can never leave a prefix of the batch
        durably applied behind a 400 — retries of a rejected-for-shape
        batch are safe. Raises ``not_found`` when ingest is disabled.
        """
        if self.ingest_pipe is None:
            raise ApiError(
                "not_found", "ingest is not enabled on this server"
            )
        from repro.streaming.ingest import validate_event_payload

        events = payload.get("events")
        if events is None:
            events = [payload]  # single bare event object
        if isinstance(events, (str, bytes)) or not isinstance(events, list):
            raise ApiError("bad_request", "'events' must be an array")
        if not events:
            raise ApiError("invalid_argument", "no events to ingest")
        for event in events:  # shape-check everything before admitting
            validate_event_payload(event)
        return events

    # -- analytics -----------------------------------------------------------

    def handle_analytics(self, request: AnalyticsRequest):
        """Serve one analytics query from the attached tier."""
        if self.analytics_engine is None:
            raise ApiError(
                "analytics_unavailable",
                "no analytics store is attached to this server "
                "(start it with --analytics-db)",
            )
        return self.analytics_engine.query(request)

    def analytics_request_from_query(
        self, raw_query: str
    ) -> AnalyticsRequest:
        """GET /v1/analytics: build the request from query parameters."""
        params = urllib.parse.parse_qs(raw_query, keep_blank_values=True)
        payload: Dict[str, Any] = {}
        for key in ("sql", "report"):
            if key in params:
                payload[key] = params[key][-1]
        if "limit" in params:
            raw = params["limit"][-1]
            try:
                payload["limit"] = int(raw)
            except ValueError:
                raise ApiError(
                    "bad_request", f"'limit' must be an integer, got {raw!r}"
                )
        if "sample" in params:
            raw = params["sample"][-1].lower()
            if raw in ("", "1", "true", "yes"):
                payload["sample"] = True
            elif raw in ("0", "false", "no"):
                payload["sample"] = False
            else:
                raise ApiError(
                    "bad_request", f"'sample' must be a boolean, got {raw!r}"
                )
        return AnalyticsRequest.from_dict(payload)

    # -- operational surface -------------------------------------------------

    def metrics(self) -> MetricsResponse:
        """The one scrape point: read-path stats + write-path progress."""
        analytics: Optional[Dict[str, Any]] = None
        if (
            self.analytics_tailer is not None
            or self.analytics_engine is not None
        ):
            analytics = {}
            if self.analytics_tailer is not None:
                analytics.update(self.analytics_tailer.stats())
            if self.analytics_engine is not None:
                analytics.update(self.analytics_engine.stats())
        return MetricsResponse(
            backend=self.backend.stats(),
            ingest=(
                None if self.ingest_pipe is None else self.ingest_pipe.stats()
            ),
            updater=(
                None if self.updater is None else self.updater.stats_dict()
            ),
            analytics=analytics,
            edge=None if self.edge_stats is None else self.edge_stats(),
            replication=(
                None
                if self.replication_stats is None
                else self.replication_stats()
            ),
            tracer=None if self.tracer is None else self.tracer.stats(),
        )

    def render_prom(self) -> bytes:
        """The whole metrics tree as OpenMetrics text.

        Scalar leaves of ``GET /v1/metrics`` flatten into gauge
        families; live latency recorders (the gateway's per-endpoint
        histograms and the edge's read recorder) render as real
        histogram families with bucket counts.
        """
        histograms = {}
        backend_histograms = getattr(self.backend, "histograms", None)
        if callable(backend_histograms):
            histograms.update(backend_histograms())
        if self.edge_histograms is not None:
            histograms.update(self.edge_histograms())
        return render_openmetrics(
            self.metrics().to_dict(), histograms=histograms
        ).encode("utf-8")

    def handle_trace(self, raw_query: str = "") -> Dict[str, Any]:
        """GET /v1/trace: one sampled span tree, as a TraceResponse.

        ``?request_id=`` looks up an exact trace; with no parameter
        the most recently sampled trace is returned.
        """
        if self.tracer is None:
            raise ApiError(
                "not_found", "tracing is not enabled on this server"
            )
        params = urllib.parse.parse_qs(raw_query, keep_blank_values=True)
        request_id = params.get("request_id", [None])[-1]
        if request_id:
            trace = self.tracer.export(request_id)
            if trace is None:
                raise ApiError(
                    "not_found",
                    f"no sampled trace for request {request_id!r} "
                    "(it may not have been kept by the tail sampler, "
                    "or has been evicted)",
                )
        else:
            trace = self.tracer.latest()
            if trace is None:
                raise ApiError(
                    "not_found", "no traces have been sampled yet"
                )
        return TraceResponse(
            request_id=trace["request_id"],
            endpoint=trace["endpoint"],
            duration_ms=trace["duration_ms"],
            sampled=trace["sampled"],
            spans=tuple(trace["spans"]),
            ts=trace["ts"],
        ).to_dict()

    def dispatch_get(
        self, endpoint: str, raw_query: str = ""
    ) -> "Dict[str, Any] | RawResponse":
        """Serve one GET endpoint; returns the JSON payload dict (or a
        :class:`RawResponse` for non-JSON formats)."""
        if endpoint == "health":
            return self.backend.health()
        if endpoint == "stats":
            return self.backend.stats()
        if endpoint == "metrics":
            params = urllib.parse.parse_qs(
                raw_query, keep_blank_values=True
            )
            fmt = params.get("format", ["json"])[-1] or "json"
            if fmt == "prom":
                return RawResponse(
                    self.render_prom(), OPENMETRICS_CONTENT_TYPE
                )
            if fmt != "json":
                raise ApiError(
                    "bad_request",
                    f"unknown metrics format {fmt!r}; "
                    "expected 'json' or 'prom'",
                )
            return self.metrics().to_dict()
        if endpoint == "trace":
            return self.handle_trace(raw_query)
        if endpoint == "analytics":
            request = self.analytics_request_from_query(raw_query)
            return self.handle_analytics(request).to_dict()
        raise ApiError(
            "not_found", f"no such path: {API_PREFIX}/{endpoint}"
        )


def partial_batch_error(
    exc: ApiError, accepted: int, last_seq: int
) -> ApiError:
    """Re-raise a mid-batch ingest failure annotated with how much of
    the batch is already durable (the edge and the in-process client
    emit the identical message shape)."""
    if not accepted:
        return exc
    return ApiError(
        exc.code,
        f"{exc.message} (the first {accepted} event(s) of "
        f"this batch were admitted, last_seq={last_seq}; "
        "resubmit only the rest)",
    )


class ShoalClient(ShoalBackend):
    """The typed contract over HTTP — or in-process, same semantics.

    ``target`` is either a gateway base URL (``"http://host:port"``) or
    any :class:`ShoalBackend`. Both transports serialize the request to
    the wire dict and parse the response back through the contract
    codecs, so switching a frontend between in-process and remote
    serving changes exactly one constructor argument and nothing else.
    """

    kind = "client"

    def __init__(
        self, target: Union[str, ShoalBackend], *, timeout: float = 10.0
    ):
        if timeout <= 0:
            raise ValueError(f"timeout must be > 0 seconds, got {timeout}")
        self._timeout = timeout
        if isinstance(target, str):
            if not target.startswith(("http://", "https://")):
                raise ApiError(
                    "invalid_argument",
                    f"client target must be an http(s) URL or a backend, "
                    f"got {target!r}",
                )
            self._base_url: Optional[str] = target.rstrip("/")
            self._inner: Optional[ShoalBackend] = None
        elif isinstance(target, ShoalBackend):
            self._base_url = None
            self._inner = target
        else:
            raise ApiError(
                "invalid_argument",
                f"client target must be an http(s) URL or a backend, "
                f"got {type(target).__name__}",
            )

    @property
    def base_url(self) -> Optional[str]:
        """The remote gateway URL, or None for an in-process client."""
        return self._base_url

    # -- transports ----------------------------------------------------------

    def _http(
        self, method: str, endpoint: str, payload: Optional[Dict[str, Any]]
    ) -> Dict[str, Any]:
        url = f"{self._base_url}{API_PREFIX}/{endpoint}"
        data = None if payload is None else _json_bytes(payload)
        req = urllib.request.Request(
            url,
            data=data,
            method=method,
            headers={"Content-Type": "application/json; charset=utf-8"},
        )
        try:
            with urllib.request.urlopen(req, timeout=self._timeout) as resp:
                body = resp.read()
        except urllib.error.HTTPError as exc:
            raw = exc.read()
            parsed = None
            try:
                parsed = ApiError.from_dict(json.loads(raw.decode("utf-8")))
            except (UnicodeDecodeError, json.JSONDecodeError, ValueError,
                    ApiError):
                # Not a contract error payload (a proxy/LB answered for
                # the gateway, or the body is garbage): classify by the
                # HTTP status class instead of trusting the body.
                pass
            if parsed is not None:
                raise parsed
            code = (
                "unavailable" if exc.code in (502, 503)
                else "deadline_exceeded" if exc.code == 504
                else "rate_limited" if exc.code == 429
                else "backend_error" if exc.code >= 500
                else "bad_request"
            )
            raise ApiError(
                code, f"HTTP {exc.code} from {url}: {raw[:200]!r}"
            )
        except urllib.error.URLError as exc:
            raise ApiError("unavailable", f"cannot reach {url}: {exc.reason}")
        try:
            parsed = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ApiError(
                "backend_error", f"non-JSON response from {url}: {exc}"
            )
        if not isinstance(parsed, dict):
            raise ApiError(
                "backend_error", f"non-object response from {url}"
            )
        return parsed

    def _roundtrip(self, endpoint: str, request) -> Dict[str, Any]:
        """request → wire dict → transport → wire dict, validated."""
        request.validate()
        if self._base_url is not None:
            return self._http("POST", endpoint, request.to_dict())
        # In-process: exercise the same codecs the wire would.
        inner_request = request_from_dict(endpoint, request.to_dict())
        if endpoint == "search":
            response = self._inner.search(inner_request)
        elif endpoint == "recommend":
            response = self._inner.recommend(inner_request)
        else:
            response = self._inner.batch(inner_request)
        return response.to_dict()

    # -- typed contract ------------------------------------------------------

    def search(self, request: SearchRequest) -> SearchResponse:
        return SearchResponse.from_dict(self._roundtrip("search", request))

    def recommend(self, request: RecommendRequest) -> RecommendResponse:
        return RecommendResponse.from_dict(
            self._roundtrip("recommend", request)
        )

    def batch(self, request: BatchRequest) -> BatchResponse:
        response = BatchResponse.from_dict(self._roundtrip("batch", request))
        if response.kind != request.kind:
            raise ApiError(
                "backend_error",
                f"batch response kind {response.kind!r} does not match "
                f"request kind {request.kind!r}",
            )
        return response

    # -- write path ----------------------------------------------------------

    def ingest(self, event: Dict[str, Any]) -> Dict[str, Any]:
        """Submit one query event to the gateway's write path.

        Returns ``{"accepted": 1, "last_seq": N}``; raises
        :class:`ApiError` with the write path's stable codes
        (``ingest_overloaded`` under load shed, ``ingest_unavailable``
        when the pipe is closed, ``not_found`` when the server has no
        ingest enabled).
        """
        if self._base_url is not None:
            return self._http("POST", "ingest", dict(event))
        inner_ingest = getattr(self._inner, "ingest", None)
        if inner_ingest is None:
            raise ApiError(
                "not_found", "ingest is not enabled on this backend"
            )
        return inner_ingest(event)

    def ingest_batch(self, events: list) -> Dict[str, Any]:
        """Submit several events in one round trip.

        Both transports share the server's batch semantics: an empty
        batch is ``invalid_argument``, and a mid-batch failure reports
        how many leading events were already admitted (durably), so
        retry-the-tail logic is transport-independent.
        """
        events = list(events)
        if self._base_url is not None:
            return self._http("POST", "ingest", {"events": events})
        if not events:
            raise ApiError("invalid_argument", "no events to ingest")
        out = {"accepted": 0, "last_seq": 0}
        for event in events:
            try:
                result = self.ingest(event)
            except ApiError as exc:
                raise partial_batch_error(
                    exc, out["accepted"], out["last_seq"]
                )
            out["accepted"] += result.get("accepted", 1)
            out["last_seq"] = result.get("last_seq", out["last_seq"])
        return out

    # -- analytics -----------------------------------------------------------

    def analytics(self, request: AnalyticsRequest) -> AnalyticsResponse:
        """Run one analytics query (raw SQL or a canned report).

        Raises :class:`ApiError` with the analytics tier's stable codes:
        ``analytics_bad_sql`` for a rejected statement,
        ``analytics_timeout`` past the time budget, and
        ``analytics_unavailable`` when the server has no analytics
        store attached.
        """
        request.validate()
        if self._base_url is not None:
            return AnalyticsResponse.from_dict(
                self._http("POST", "analytics", request.to_dict())
            )
        inner_analytics = getattr(self._inner, "analytics", None)
        if inner_analytics is None:
            raise ApiError(
                "analytics_unavailable",
                "no analytics tier is attached to this backend",
            )
        return inner_analytics(request)

    # -- operational surface -------------------------------------------------

    def health(self) -> Dict[str, Any]:
        if self._base_url is not None:
            return self._http("GET", "health", None)
        return self._inner.health()

    def stats(self) -> Dict[str, Any]:
        if self._base_url is not None:
            return self._http("GET", "stats", None)
        return self._inner.stats()

    def metrics(self) -> MetricsResponse:
        """The gateway's versioned scrape point (GET /v1/metrics)."""
        if self._base_url is not None:
            return MetricsResponse.from_dict(
                self._http("GET", "metrics", None)
            )
        return MetricsResponse(backend=self._inner.stats())

    def metrics_prom(self) -> str:
        """GET /v1/metrics?format=prom — the OpenMetrics text body."""
        if self._base_url is None:
            raise ApiError(
                "not_found",
                "OpenMetrics exposition requires an HTTP gateway target",
            )
        endpoint = "metrics?format=prom"
        url = f"{self._base_url}{API_PREFIX}/{endpoint}"
        try:
            with urllib.request.urlopen(
                urllib.request.Request(url, method="GET"),
                timeout=self._timeout,
            ) as resp:
                return resp.read().decode("utf-8")
        except urllib.error.HTTPError as exc:
            raise ApiError(
                "backend_error",
                f"HTTP {exc.code} from {url}: {exc.read()[:200]!r}",
            )
        except urllib.error.URLError as exc:
            raise ApiError("unavailable", f"cannot reach {url}: {exc.reason}")

    def trace(self, request_id: Optional[str] = None) -> TraceResponse:
        """Fetch one sampled span tree (GET /v1/trace).

        With ``request_id`` an exact lookup; without, the most recently
        sampled trace. Raises ``not_found`` when the trace was not kept
        or tracing is disabled.
        """
        endpoint = "trace"
        if request_id is not None:
            endpoint += f"?request_id={urllib.parse.quote(request_id)}"
        if self._base_url is not None:
            return TraceResponse.from_dict(self._http("GET", endpoint, None))
        raise ApiError(
            "not_found", "tracing is not enabled on this backend"
        )

    def close(self) -> None:
        if self._inner is not None:
            self._inner.close()


def _assert_response_types_registered() -> None:
    """Guard: the endpoint tables of contract and client must agree."""
    assert set(RESPONSE_TYPES) == {
        "search", "recommend", "batch", "analytics", "trace",
    }


_assert_response_types_registered()
