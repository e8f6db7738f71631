"""The gateway API contract: typed requests, responses, and errors.

Every frontend — CLI, examples, benches, the CI gate scripts, the
HTTP edge — talks to the serving stack through the dataclasses in this
module. The contract is versioned (``SCHEMA_VERSION``), validated on
both construction-from-wire and dispatch, and JSON-codable: each type
carries ``to_dict`` / ``from_dict`` such that
``from_dict(to_dict(x)) == x`` exactly (floats survive because JSON
round-trips Python's shortest ``repr``).

``to_dict`` is the in-process dict form. On the wire,
:class:`SearchResponse` and a search :class:`BatchResponse` write their
hits straight to text (``to_json``: one format per hit, no per-hit
dict), and every other payload goes through ``json.dumps``; a
hypothesis property in ``tests/api/test_contract.py`` pins ``to_json``
to ``json.dumps(to_dict(), ensure_ascii=False, allow_nan=False)`` byte
for byte, NaN and infinities raising ``ValueError`` as there.

Requests are valid by construction: each request type validates its
fields in ``__post_init__``, so one that exists has passed
``validate`` exactly once, and no later layer checks it again.

Errors are :class:`ApiError` values with *stable* machine-readable
codes (see ``ERROR_CODES``) and a deterministic HTTP status mapping,
so a client can branch on ``err.code`` regardless of which backend or
transport produced it.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from json.encoder import encode_basestring as _json_string
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple

from repro.core.serving import TopicHit

__all__ = [
    "SCHEMA_VERSION",
    "MAX_K",
    "MAX_QUERY_CHARS",
    "MAX_BATCH_QUERIES",
    "MAX_ANALYTICS_ROWS",
    "MAX_SQL_CHARS",
    "ANALYTICS_REPORTS",
    "ERROR_CODES",
    "ApiError",
    "SearchRequest",
    "SearchResponse",
    "RecommendRequest",
    "RecommendResponse",
    "BatchRequest",
    "BatchResponse",
    "AnalyticsRequest",
    "AnalyticsResponse",
    "MetricsResponse",
    "TraceResponse",
    "SPAN_STATUSES",
    "request_from_dict",
    "topic_hit_to_dict",
    "topic_hit_from_dict",
]

#: Version stamped into every wire payload. Bump on incompatible
#: schema changes; servers reject mismatched versions with
#: ``unsupported_version``.
SCHEMA_VERSION = 1

#: Validation bounds every request checks when it is constructed.
MAX_K = 100
MAX_QUERY_CHARS = 1024
MAX_BATCH_QUERIES = 256

#: Analytics bounds: row cap per response and SQL text length.
MAX_ANALYTICS_ROWS = 1000
MAX_SQL_CHARS = 4096

#: Canned analytics reports the tier serves without raw SQL.
ANALYTICS_REPORTS = ("trending", "daily", "topics", "shed")

#: code -> HTTP status. The set of codes is part of the contract.
ERROR_CODES: Dict[str, int] = {
    "bad_request": 400,        # malformed payload / wrong field types
    "invalid_argument": 400,   # well-formed but out-of-bounds values
    "unsupported_version": 400,
    "not_found": 404,          # unknown endpoint or resource
    "rate_limited": 429,
    "deadline_exceeded": 504,
    "cancelled": 499,          # request abandoned (the edge stopped waiting)
    "backend_error": 500,      # the tier behind the gateway failed
    "unavailable": 502,        # transport could not reach the backend
    # Write-path (streaming ingest) backpressure — see repro.streaming:
    "ingest_overloaded": 429,  # bounded ingest queue is full (load shed)
    "ingest_unavailable": 503, # ingest pipe closed / not enabled
    # Analytics tier (HTAP read replica over the WAL) — repro.analytics:
    "analytics_bad_sql": 400,     # statement rejected by the allowlist
    "analytics_unavailable": 503, # no analytics store attached / closed
    "analytics_timeout": 504,     # query exceeded its time budget
}


class ApiError(Exception):
    """A contract-level failure with a stable, machine-readable code."""

    def __init__(self, code: str, message: str):
        if code not in ERROR_CODES:
            raise ValueError(
                f"unknown error code {code!r}; expected one of "
                f"{sorted(ERROR_CODES)}"
            )
        super().__init__(message)
        self.code = code
        self.message = message

    @property
    def http_status(self) -> int:
        return ERROR_CODES[self.code]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "version": SCHEMA_VERSION,
            "error": {"code": self.code, "message": self.message},
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ApiError":
        err = payload.get("error")
        if not isinstance(err, Mapping) or "code" not in err:
            raise ApiError(
                "bad_request", f"not an error payload: {payload!r}"
            )
        code = err["code"]
        if code not in ERROR_CODES:
            code = "backend_error"
        return cls(code, str(err.get("message", "")))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ApiError(code={self.code!r}, message={self.message!r})"


# -- field validators --------------------------------------------------------


def _check_version(version: Any) -> None:
    if not isinstance(version, int) or isinstance(version, bool):
        raise ApiError(
            "bad_request", f"'version' must be an integer, got {version!r}"
        )
    if version != SCHEMA_VERSION:
        raise ApiError(
            "unsupported_version",
            f"schema version {version} is not supported "
            f"(this server speaks version {SCHEMA_VERSION})",
        )


def _check_query(query: Any, *, name: str = "query") -> None:
    if not isinstance(query, str):
        raise ApiError(
            "bad_request", f"{name!r} must be a string, got {type(query).__name__}"
        )
    if not query.strip():
        raise ApiError("invalid_argument", f"{name!r} must not be empty")
    if len(query) > MAX_QUERY_CHARS:
        raise ApiError(
            "invalid_argument",
            f"{name!r} is {len(query)} characters; the limit is "
            f"{MAX_QUERY_CHARS}",
        )


def _check_k(k: Any) -> None:
    if not isinstance(k, int) or isinstance(k, bool):
        raise ApiError("bad_request", f"'k' must be an integer, got {k!r}")
    if not 1 <= k <= MAX_K:
        raise ApiError(
            "invalid_argument", f"'k' must be in [1, {MAX_K}], got {k}"
        )


def _check_timeout(timeout_ms: Any) -> None:
    if timeout_ms is None:
        return
    if isinstance(timeout_ms, bool) or not isinstance(timeout_ms, (int, float)):
        raise ApiError(
            "bad_request",
            f"'timeout_ms' must be a number or null, got {timeout_ms!r}",
        )
    if timeout_ms <= 0:
        raise ApiError(
            "invalid_argument", f"'timeout_ms' must be > 0, got {timeout_ms}"
        )


def _take(
    payload: Mapping[str, Any], allowed: Sequence[str], kind: str
) -> Dict[str, Any]:
    """The payload's fields, rejecting non-mappings and unknown keys."""
    if not isinstance(payload, Mapping):
        raise ApiError(
            "bad_request",
            f"{kind} payload must be a JSON object, got "
            f"{type(payload).__name__}",
        )
    unknown = sorted(set(payload) - set(allowed))
    if unknown:
        raise ApiError(
            "bad_request", f"unknown {kind} field(s): {', '.join(unknown)}"
        )
    return dict(payload)


# -- topic hits on the wire --------------------------------------------------


def topic_hit_to_dict(hit: TopicHit) -> Dict[str, Any]:
    return {
        "topic_id": hit.topic_id,
        "score": hit.score,
        "label": hit.label,
        "n_entities": hit.n_entities,
        "n_categories": hit.n_categories,
    }


#: One topic hit as ``json.dumps`` writes :func:`topic_hit_to_dict`'s
#: dict: the same key order, the default ``", "`` / ``": "`` separators.
_HIT_JSON = (
    '{"topic_id": %d, "score": %s, "label": %s, "n_entities": %d, '
    '"n_categories": %d}'
)
_float_repr = float.__repr__

#: A score ``float.__repr__`` wrote as ``nan``, ``inf`` or ``-inf``. Every
#: quote inside a JSON string is escaped, so ``"score": `` followed by
#: an ``n`` or an ``i`` only ever matches at a hit's score.
_NON_FINITE_SCORE = re.compile(r'"score": -?[ni]')


def _hits_json(hits: Sequence[TopicHit]) -> str:
    """A JSON array of topic hits, written straight to text; the caller
    checks the text with :func:`_finite`."""
    return "[" + ", ".join([
        _HIT_JSON % (
            h.topic_id, _float_repr(h.score), _json_string(h.label),
            h.n_entities, h.n_categories,
        )
        for h in hits
    ]) + "]"


def _finite(text: str) -> str:
    """``text`` unless a score in it is NaN or infinite, which raises as
    ``json.dumps(allow_nan=False)`` does."""
    if _NON_FINITE_SCORE.search(text) is not None:
        raise ValueError("Out of range float values are not JSON compliant")
    return text


def topic_hit_from_dict(payload: Mapping[str, Any]) -> TopicHit:
    fields = _take(
        payload,
        ("topic_id", "score", "label", "n_entities", "n_categories"),
        "topic hit",
    )
    try:
        return TopicHit(
            topic_id=int(fields["topic_id"]),
            score=float(fields["score"]),
            label=str(fields["label"]),
            n_entities=int(fields["n_entities"]),
            n_categories=int(fields["n_categories"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ApiError("bad_request", f"malformed topic hit: {exc}")


# -- requests ----------------------------------------------------------------


@dataclass(frozen=True)
class SearchRequest:
    """Scenario A (Query → Topic) over the gateway."""

    query: str
    k: int = 5
    timeout_ms: Optional[float] = None
    version: int = SCHEMA_VERSION

    def __post_init__(self):
        self.validate()

    def validate(self) -> "SearchRequest":
        _check_version(self.version)
        _check_query(self.query)
        _check_k(self.k)
        _check_timeout(self.timeout_ms)
        return self

    def cache_key(self) -> Tuple:
        """Result-cache identity: everything that can change the answer."""
        return ("search", self.query, self.k)

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "version": self.version, "query": self.query, "k": self.k,
        }
        if self.timeout_ms is not None:
            out["timeout_ms"] = self.timeout_ms
        return out

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SearchRequest":
        fields = _take(
            payload, ("version", "query", "k", "timeout_ms"), "search"
        )
        if "query" not in fields:
            raise ApiError("bad_request", "missing required field 'query'")
        return cls(
            query=fields["query"],
            k=fields.get("k", 5),
            timeout_ms=fields.get("timeout_ms"),
            version=fields.get("version", SCHEMA_VERSION),
        )


@dataclass(frozen=True)
class RecommendRequest:
    """Topic-matched entity recommendation (the Fig. 4b slate)."""

    query: str
    k: int = 10
    timeout_ms: Optional[float] = None
    version: int = SCHEMA_VERSION

    def __post_init__(self):
        self.validate()

    def validate(self) -> "RecommendRequest":
        _check_version(self.version)
        _check_query(self.query)
        _check_k(self.k)
        _check_timeout(self.timeout_ms)
        return self

    def cache_key(self) -> Tuple:
        return ("recommend", self.query, self.k)

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "version": self.version, "query": self.query, "k": self.k,
        }
        if self.timeout_ms is not None:
            out["timeout_ms"] = self.timeout_ms
        return out

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "RecommendRequest":
        fields = _take(
            payload, ("version", "query", "k", "timeout_ms"), "recommend"
        )
        if "query" not in fields:
            raise ApiError("bad_request", "missing required field 'query'")
        return cls(
            query=fields["query"],
            k=fields.get("k", 10),
            timeout_ms=fields.get("timeout_ms"),
            version=fields.get("version", SCHEMA_VERSION),
        )


@dataclass(frozen=True)
class BatchRequest:
    """A panel of queries answered in one round trip.

    ``kind`` selects the per-query operation: ``"search"`` returns one
    topic-hit list per query, ``"recommend"`` one entity slate per
    query. ``k`` applies to every query in the batch.
    """

    queries: Tuple[str, ...]
    k: int = 5
    kind: str = "search"
    timeout_ms: Optional[float] = None
    version: int = SCHEMA_VERSION

    def __post_init__(self):
        # Tolerate list input from direct construction; the wire codec
        # and dataclass equality both want tuples.
        if not isinstance(self.queries, tuple):
            object.__setattr__(self, "queries", tuple(self.queries))
        self.validate()

    def validate(self) -> "BatchRequest":
        _check_version(self.version)
        if self.kind not in ("search", "recommend"):
            raise ApiError(
                "invalid_argument",
                f"batch 'kind' must be 'search' or 'recommend', "
                f"got {self.kind!r}",
            )
        if not self.queries:
            raise ApiError("invalid_argument", "batch has no queries")
        if len(self.queries) > MAX_BATCH_QUERIES:
            raise ApiError(
                "invalid_argument",
                f"batch of {len(self.queries)} queries exceeds the limit "
                f"of {MAX_BATCH_QUERIES}",
            )
        for i, q in enumerate(self.queries):
            _check_query(q, name=f"queries[{i}]")
        _check_k(self.k)
        _check_timeout(self.timeout_ms)
        return self

    def cache_key(self) -> Tuple:
        return ("batch", self.kind, self.queries, self.k)

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "version": self.version,
            "kind": self.kind,
            "queries": list(self.queries),
            "k": self.k,
        }
        if self.timeout_ms is not None:
            out["timeout_ms"] = self.timeout_ms
        return out

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "BatchRequest":
        fields = _take(
            payload,
            ("version", "kind", "queries", "k", "timeout_ms"),
            "batch",
        )
        queries = fields.get("queries")
        if queries is None:
            raise ApiError("bad_request", "missing required field 'queries'")
        if isinstance(queries, str) or not isinstance(queries, Sequence):
            raise ApiError(
                "bad_request", "'queries' must be an array of strings"
            )
        return cls(
            queries=tuple(queries),
            k=fields.get("k", 5),
            kind=fields.get("kind", "search"),
            timeout_ms=fields.get("timeout_ms"),
            version=fields.get("version", SCHEMA_VERSION),
        )


# -- responses ---------------------------------------------------------------


@dataclass(frozen=True)
class SearchResponse:
    """Ranked topic hits for one query."""

    hits: Tuple[TopicHit, ...]
    version: int = SCHEMA_VERSION

    def __post_init__(self):
        if not isinstance(self.hits, tuple):
            object.__setattr__(self, "hits", tuple(self.hits))

    def to_dict(self) -> Dict[str, Any]:
        return {
            "version": self.version,
            "hits": [topic_hit_to_dict(h) for h in self.hits],
        }

    def to_json(self) -> str:
        """The wire text: ``json.dumps(self.to_dict(), ensure_ascii=False,
        allow_nan=False)`` to the byte, written without the per-hit dicts."""
        return _finite('{"version": %d, "hits": %s}' % (
            self.version, _hits_json(self.hits)
        ))

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SearchResponse":
        fields = _take(payload, ("version", "hits"), "search response")
        hits = fields.get("hits")
        if not isinstance(hits, Sequence) or isinstance(hits, str):
            raise ApiError("bad_request", "'hits' must be an array")
        version = fields.get("version", SCHEMA_VERSION)
        _check_version(version)
        return cls(
            hits=tuple(topic_hit_from_dict(h) for h in hits),
            version=version,
        )


@dataclass(frozen=True)
class RecommendResponse:
    """An entity slate for one query."""

    entity_ids: Tuple[int, ...]
    version: int = SCHEMA_VERSION

    def __post_init__(self):
        if not isinstance(self.entity_ids, tuple):
            object.__setattr__(self, "entity_ids", tuple(self.entity_ids))

    def to_dict(self) -> Dict[str, Any]:
        return {"version": self.version, "entity_ids": list(self.entity_ids)}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "RecommendResponse":
        fields = _take(
            payload, ("version", "entity_ids"), "recommend response"
        )
        ids = fields.get("entity_ids")
        if not isinstance(ids, Sequence) or isinstance(ids, str):
            raise ApiError("bad_request", "'entity_ids' must be an array")
        version = fields.get("version", SCHEMA_VERSION)
        _check_version(version)
        try:
            entity_ids = tuple(int(e) for e in ids)
        except (TypeError, ValueError) as exc:
            raise ApiError("bad_request", f"malformed entity id: {exc}")
        return cls(entity_ids=entity_ids, version=version)


@dataclass(frozen=True)
class BatchResponse:
    """Per-query results of a :class:`BatchRequest`, in request order.

    For ``kind == "search"`` each element of ``results`` is a tuple of
    :class:`TopicHit`; for ``kind == "recommend"`` a tuple of entity
    ids.
    """

    kind: str
    results: Tuple[Tuple, ...] = field(default_factory=tuple)
    version: int = SCHEMA_VERSION

    def __post_init__(self):
        object.__setattr__(
            self, "results", tuple(tuple(r) for r in self.results)
        )

    def to_dict(self) -> Dict[str, Any]:
        if self.kind == "search":
            results = [
                [topic_hit_to_dict(h) for h in hits] for hits in self.results
            ]
        else:
            results = [list(ids) for ids in self.results]
        return {"version": self.version, "kind": self.kind, "results": results}

    def to_json(self) -> str:
        """The wire text: ``json.dumps(self.to_dict(), ensure_ascii=False,
        allow_nan=False)`` to the byte; a search batch is written without
        the per-hit dicts."""
        if self.kind != "search":
            return json.dumps(
                self.to_dict(), ensure_ascii=False, allow_nan=False
            )
        return _finite(
            '{"version": %d, "kind": "search", "results": [%s]}' % (
                self.version, ", ".join([_hits_json(r) for r in self.results])
            )
        )

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "BatchResponse":
        fields = _take(
            payload, ("version", "kind", "results"), "batch response"
        )
        kind = fields.get("kind")
        if kind not in ("search", "recommend"):
            raise ApiError(
                "bad_request",
                f"batch response 'kind' must be 'search' or 'recommend', "
                f"got {kind!r}",
            )
        results = fields.get("results")
        if not isinstance(results, Sequence) or isinstance(results, str):
            raise ApiError("bad_request", "'results' must be an array")
        version = fields.get("version", SCHEMA_VERSION)
        _check_version(version)
        rows: list = []
        for row in results:
            if not isinstance(row, Sequence) or isinstance(row, str):
                raise ApiError(
                    "bad_request", "each batch result must be an array"
                )
            if kind == "search":
                rows.append(tuple(topic_hit_from_dict(h) for h in row))
            else:
                try:
                    rows.append(tuple(int(e) for e in row))
                except (TypeError, ValueError) as exc:
                    raise ApiError(
                        "bad_request", f"malformed entity id: {exc}"
                    )
        return cls(kind=kind, results=tuple(rows), version=version)


# -- analytics ---------------------------------------------------------------


#: JSON-scalar cell types an analytics row may carry on the wire.
_CELL_TYPES = (int, float, str, bool, type(None))


@dataclass(frozen=True)
class AnalyticsRequest:
    """One analytics query: raw read-only SQL *or* a canned report.

    Exactly one of ``sql`` / ``report`` must be set. ``sql`` is run
    through the tier's read-only allowlist (a single SELECT/WITH
    statement); ``report`` names one of :data:`ANALYTICS_REPORTS`.
    With ``sample=True`` the SQL sees the store's reservoir sample of
    the event stream instead of the full ``events`` table — the
    Logservatory pattern for iterative query development.
    """

    sql: Optional[str] = None
    report: Optional[str] = None
    limit: int = 100
    sample: bool = False
    timeout_ms: Optional[float] = None
    version: int = SCHEMA_VERSION

    def __post_init__(self):
        self.validate()

    def validate(self) -> "AnalyticsRequest":
        _check_version(self.version)
        if self.sql is not None and not isinstance(self.sql, str):
            raise ApiError(
                "bad_request",
                f"'sql' must be a string, got {type(self.sql).__name__}",
            )
        if self.report is not None and not isinstance(self.report, str):
            raise ApiError(
                "bad_request",
                f"'report' must be a string, got {type(self.report).__name__}",
            )
        if (self.sql is None) == (self.report is None):
            raise ApiError(
                "invalid_argument",
                "exactly one of 'sql' or 'report' must be set",
            )
        if self.sql is not None:
            if not self.sql.strip():
                raise ApiError("invalid_argument", "'sql' must not be empty")
            if len(self.sql) > MAX_SQL_CHARS:
                raise ApiError(
                    "invalid_argument",
                    f"'sql' is {len(self.sql)} characters; the limit is "
                    f"{MAX_SQL_CHARS}",
                )
        if self.report is not None and self.report not in ANALYTICS_REPORTS:
            raise ApiError(
                "invalid_argument",
                f"unknown report {self.report!r}; expected one of "
                f"{', '.join(ANALYTICS_REPORTS)}",
            )
        if not isinstance(self.limit, int) or isinstance(self.limit, bool):
            raise ApiError(
                "bad_request", f"'limit' must be an integer, got {self.limit!r}"
            )
        if not 1 <= self.limit <= MAX_ANALYTICS_ROWS:
            raise ApiError(
                "invalid_argument",
                f"'limit' must be in [1, {MAX_ANALYTICS_ROWS}], got "
                f"{self.limit}",
            )
        if not isinstance(self.sample, bool):
            raise ApiError(
                "bad_request",
                f"'sample' must be a boolean, got {self.sample!r}",
            )
        _check_timeout(self.timeout_ms)
        return self

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"version": self.version, "limit": self.limit}
        if self.sql is not None:
            out["sql"] = self.sql
        if self.report is not None:
            out["report"] = self.report
        if self.sample:
            out["sample"] = True
        if self.timeout_ms is not None:
            out["timeout_ms"] = self.timeout_ms
        return out

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "AnalyticsRequest":
        fields = _take(
            payload,
            ("version", "sql", "report", "limit", "sample", "timeout_ms"),
            "analytics",
        )
        return cls(
            sql=fields.get("sql"),
            report=fields.get("report"),
            limit=fields.get("limit", 100),
            sample=fields.get("sample", False),
            timeout_ms=fields.get("timeout_ms"),
            version=fields.get("version", SCHEMA_VERSION),
        )


@dataclass(frozen=True)
class AnalyticsResponse:
    """A relational result: named columns and JSON-scalar rows.

    ``truncated`` marks a result cut at the request's row limit;
    ``sampled`` marks an answer computed over the reservoir sample
    rather than the full event stream.
    """

    columns: Tuple[str, ...]
    rows: Tuple[Tuple, ...] = field(default_factory=tuple)
    truncated: bool = False
    sampled: bool = False
    elapsed_ms: float = 0.0
    version: int = SCHEMA_VERSION

    def __post_init__(self):
        object.__setattr__(self, "columns", tuple(self.columns))
        object.__setattr__(
            self, "rows", tuple(tuple(r) for r in self.rows)
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "version": self.version,
            "columns": list(self.columns),
            "rows": [list(r) for r in self.rows],
            "truncated": self.truncated,
            "sampled": self.sampled,
            "elapsed_ms": self.elapsed_ms,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "AnalyticsResponse":
        fields = _take(
            payload,
            ("version", "columns", "rows", "truncated", "sampled",
             "elapsed_ms"),
            "analytics response",
        )
        columns = fields.get("columns")
        if not isinstance(columns, Sequence) or isinstance(columns, str):
            raise ApiError("bad_request", "'columns' must be an array")
        if not all(isinstance(c, str) for c in columns):
            raise ApiError("bad_request", "column names must be strings")
        rows = fields.get("rows", [])
        if not isinstance(rows, Sequence) or isinstance(rows, str):
            raise ApiError("bad_request", "'rows' must be an array")
        parsed_rows = []
        for row in rows:
            if not isinstance(row, Sequence) or isinstance(row, str):
                raise ApiError(
                    "bad_request", "each analytics row must be an array"
                )
            for cell in row:
                if not isinstance(cell, _CELL_TYPES):
                    raise ApiError(
                        "bad_request",
                        f"analytics cells must be JSON scalars, got "
                        f"{type(cell).__name__}",
                    )
            parsed_rows.append(tuple(row))
        truncated = fields.get("truncated", False)
        sampled = fields.get("sampled", False)
        if not isinstance(truncated, bool) or not isinstance(sampled, bool):
            raise ApiError(
                "bad_request", "'truncated'/'sampled' must be booleans"
            )
        elapsed_ms = fields.get("elapsed_ms", 0.0)
        if isinstance(elapsed_ms, bool) or not isinstance(
            elapsed_ms, (int, float)
        ):
            raise ApiError("bad_request", "'elapsed_ms' must be a number")
        version = fields.get("version", SCHEMA_VERSION)
        _check_version(version)
        return cls(
            columns=tuple(columns),
            rows=tuple(parsed_rows),
            truncated=truncated,
            sampled=sampled,
            elapsed_ms=elapsed_ms,
            version=version,
        )


# -- tracing -----------------------------------------------------------------


#: Terminal span states a sampled trace may carry on the wire.
SPAN_STATUSES = ("ok", "error", "cancelled")


def _span_from_dict(payload: Mapping[str, Any]) -> Dict[str, Any]:
    fields = _take(
        payload,
        ("span_id", "parent_id", "name", "tags", "start_ms",
         "duration_ms", "status", "detail"),
        "span",
    )
    for key in ("span_id", "name", "status"):
        if not isinstance(fields.get(key), str):
            raise ApiError(
                "bad_request", f"span {key!r} must be a string"
            )
    if fields["status"] not in SPAN_STATUSES:
        raise ApiError(
            "bad_request",
            f"span status must be one of {', '.join(SPAN_STATUSES)}, "
            f"got {fields['status']!r}",
        )
    parent_id = fields.get("parent_id")
    if parent_id is not None and not isinstance(parent_id, str):
        raise ApiError("bad_request", "'parent_id' must be a string or null")
    detail = fields.get("detail")
    if detail is not None and not isinstance(detail, str):
        raise ApiError("bad_request", "'detail' must be a string or null")
    tags = fields.get("tags", {})
    if not isinstance(tags, Mapping) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in tags.items()
    ):
        raise ApiError(
            "bad_request", "span 'tags' must map strings to strings"
        )
    for key in ("start_ms", "duration_ms"):
        value = fields.get(key, 0.0)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ApiError("bad_request", f"span {key!r} must be a number")
    return {
        "span_id": fields["span_id"],
        "parent_id": parent_id,
        "name": fields["name"],
        "tags": dict(tags),
        "start_ms": fields.get("start_ms", 0.0),
        "duration_ms": fields.get("duration_ms", 0.0),
        "status": fields["status"],
        "detail": detail,
    }


@dataclass(frozen=True)
class TraceResponse:
    """One sampled span tree, as ``GET /v1/trace`` returns it.

    ``spans`` is in ``(start_ms, span_id)`` order; exactly one span has
    ``parent_id == None`` (the edge root), every other ``parent_id``
    names an earlier span, and ``start_ms`` values are relative to the
    root's start. ``sampled`` records why the tail-based sampler kept
    this trace (``"error"``, ``"deadline"``, or ``"slow"``); ``ts`` is
    the wall-clock finalize time (epoch seconds).
    """

    request_id: str
    endpoint: str
    duration_ms: float
    sampled: str
    spans: Tuple[Dict[str, Any], ...] = field(default_factory=tuple)
    ts: float = 0.0
    version: int = SCHEMA_VERSION

    def __post_init__(self):
        object.__setattr__(self, "spans", tuple(self.spans))

    def to_dict(self) -> Dict[str, Any]:
        return {
            "version": self.version,
            "request_id": self.request_id,
            "endpoint": self.endpoint,
            "duration_ms": self.duration_ms,
            "sampled": self.sampled,
            "ts": self.ts,
            "spans": [dict(s) for s in self.spans],
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "TraceResponse":
        fields = _take(
            payload,
            ("version", "request_id", "endpoint", "duration_ms",
             "sampled", "ts", "spans"),
            "trace response",
        )
        for key in ("request_id", "endpoint", "sampled"):
            if not isinstance(fields.get(key), str):
                raise ApiError(
                    "bad_request", f"trace {key!r} must be a string"
                )
        for key in ("duration_ms", "ts"):
            value = fields.get(key, 0.0)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ApiError(
                    "bad_request", f"trace {key!r} must be a number"
                )
        spans = fields.get("spans")
        if not isinstance(spans, Sequence) or isinstance(spans, str):
            raise ApiError("bad_request", "'spans' must be an array")
        if not spans:
            raise ApiError("bad_request", "a trace must carry spans")
        version = fields.get("version", SCHEMA_VERSION)
        _check_version(version)
        return cls(
            request_id=fields["request_id"],
            endpoint=fields["endpoint"],
            duration_ms=fields["duration_ms"],
            sampled=fields["sampled"],
            spans=tuple(_span_from_dict(s) for s in spans),
            ts=fields.get("ts", 0.0),
            version=version,
        )


def _check_section(value: Any, name: str) -> Optional[Dict[str, Any]]:
    """A metrics section: a JSON object or absent."""
    if value is None:
        return None
    if not isinstance(value, Mapping):
        raise ApiError(
            "bad_request",
            f"metrics section {name!r} must be a JSON object, got "
            f"{type(value).__name__}",
        )
    return dict(value)


@dataclass(frozen=True)
class MetricsResponse:
    """The versioned scrape point: one JSON object per subsystem.

    ``backend`` is always present (the read tier's stats); ``ingest``,
    ``updater``, ``analytics``, ``edge``, and ``replication`` appear
    when the corresponding subsystem is attached to the server
    (``edge`` is the async edge's connection, deadline-expiry, read
    latency and coalescer counters; ``replication`` is the shipper's
    publish counters on a primary or the follower's lag — segments
    behind, seqs behind, epoch — on a replica).
    """

    backend: Dict[str, Any] = field(default_factory=dict)
    ingest: Optional[Dict[str, Any]] = None
    updater: Optional[Dict[str, Any]] = None
    analytics: Optional[Dict[str, Any]] = None
    edge: Optional[Dict[str, Any]] = None
    replication: Optional[Dict[str, Any]] = None
    tracer: Optional[Dict[str, Any]] = None
    version: int = SCHEMA_VERSION

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "version": self.version,
            "backend": dict(self.backend),
        }
        if self.ingest is not None:
            out["ingest"] = dict(self.ingest)
        if self.updater is not None:
            out["updater"] = dict(self.updater)
        if self.analytics is not None:
            out["analytics"] = dict(self.analytics)
        if self.edge is not None:
            out["edge"] = dict(self.edge)
        if self.replication is not None:
            out["replication"] = dict(self.replication)
        if self.tracer is not None:
            out["tracer"] = dict(self.tracer)
        return out

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "MetricsResponse":
        fields = _take(
            payload,
            (
                "version",
                "backend",
                "ingest",
                "updater",
                "analytics",
                "edge",
                "replication",
                "tracer",
            ),
            "metrics response",
        )
        backend = fields.get("backend")
        if not isinstance(backend, Mapping):
            raise ApiError(
                "bad_request", "metrics 'backend' must be a JSON object"
            )
        version = fields.get("version", SCHEMA_VERSION)
        _check_version(version)
        return cls(
            backend=dict(backend),
            ingest=_check_section(fields.get("ingest"), "ingest"),
            updater=_check_section(fields.get("updater"), "updater"),
            analytics=_check_section(fields.get("analytics"), "analytics"),
            edge=_check_section(fields.get("edge"), "edge"),
            replication=_check_section(
                fields.get("replication"), "replication"
            ),
            tracer=_check_section(fields.get("tracer"), "tracer"),
            version=version,
        )


#: Wire-endpoint name -> request codec, shared by the HTTP server and
#: the in-process client transport.
REQUEST_TYPES = {
    "search": SearchRequest,
    "recommend": RecommendRequest,
    "batch": BatchRequest,
    "analytics": AnalyticsRequest,
}

RESPONSE_TYPES = {
    "search": SearchResponse,
    "recommend": RecommendResponse,
    "batch": BatchResponse,
    "analytics": AnalyticsResponse,
    # GET-only: served from the tracer ring, never POSTed, so it has
    # no REQUEST_TYPES row.
    "trace": TraceResponse,
}


def request_from_dict(endpoint: str, payload: Mapping[str, Any]):
    """Decode + validate a wire payload for ``endpoint``.

    Raises :class:`ApiError` with ``not_found`` for unknown endpoints,
    ``bad_request`` / ``invalid_argument`` / ``unsupported_version``
    for payload problems.
    """
    try:
        cls = REQUEST_TYPES[endpoint]
    except KeyError:
        raise ApiError("not_found", f"unknown endpoint {endpoint!r}")
    return cls.from_dict(payload)
