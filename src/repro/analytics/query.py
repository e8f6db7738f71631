"""The analytics read surface: guarded SQL plus canned reports.

:class:`QueryEngine` answers :class:`~repro.api.contract.AnalyticsRequest`
payloads against an :class:`~repro.analytics.store.AnalyticsStore`. The
surface is read-only by construction, in layers:

1. the statement must be a *single* ``SELECT``/``WITH`` statement
   (``analytics_bad_sql`` otherwise);
2. it runs on a fresh ``mode=ro`` connection, so even a statement that
   slipped the allowlist cannot mutate the file;
3. an authorizer callback denies every operation except reads and
   function calls — DDL, DML, PRAGMA, and ``ATTACH`` all fail inside
   SQLite itself;
4. a progress handler enforces the request's time budget
   (``analytics_timeout``), and results are cut at the request's row
   limit (reported via ``truncated``).

With ``sample=True`` a temporary view named ``events`` is created over
the store's reservoir table before the statement runs; SQLite resolves
temp objects first, so the user's SQL transparently reads the sample —
the Logservatory pattern for iterating on an expensive query cheaply.
"""

from __future__ import annotations

import re
import sqlite3
import threading
import time
from typing import Any, Dict, List, Tuple

from repro.analytics.store import EVENT_COLUMNS, AnalyticsStore
from repro.api.contract import (
    AnalyticsRequest,
    AnalyticsResponse,
    ApiError,
)

__all__ = ["QueryEngine", "REPORT_SQL"]

#: Default wall-clock budget when the request carries no timeout_ms.
DEFAULT_TIMEOUT_MS = 2000.0

_READ_ONLY_HEAD = re.compile(r"^\s*(select|with)\b", re.IGNORECASE)

#: Canned reports, each plain allowlisted SQL over the store schema.
REPORT_SQL: Dict[str, str] = {
    # Hot queries of the newest ingested day, busiest first.
    "trending": (
        "SELECT query_id, MAX(query_text) AS query_text, "
        "COUNT(*) AS n_events, SUM(n_clicks) AS n_clicks "
        "FROM events WHERE day = (SELECT MAX(day) FROM events) "
        "GROUP BY query_id "
        "ORDER BY n_events DESC, query_id"
    ),
    # Per-day traffic aggregates from the incremental rollup.
    "daily": (
        "SELECT day, n_events, n_clicks FROM daily_rollup ORDER BY day"
    ),
    # Per-day, per-topic aggregates (topic -1 = unattributed).
    "topics": (
        "SELECT day, topic_id, n_events, n_clicks FROM topic_rollup "
        "ORDER BY day, n_events DESC, topic_id"
    ),
    # Shed-rate breakdown from consecutive ingest-pipe snapshots.
    "shed": (
        "WITH deltas AS ("
        "  SELECT ts,"
        "         accepted - LAG(accepted, 1, 0) OVER w AS d_accepted,"
        "         shed - LAG(shed, 1, 0) OVER w AS d_shed,"
        "         dropped - LAG(dropped, 1, 0) OVER w AS d_dropped"
        "  FROM ops WINDOW w AS (ORDER BY id)) "
        "SELECT ts, d_accepted, d_shed, d_dropped,"
        "       CASE WHEN d_accepted + d_shed > 0"
        "            THEN 1.0 * d_shed / (d_accepted + d_shed)"
        "            ELSE 0.0 END AS shed_rate "
        "FROM deltas ORDER BY ts"
    ),
}

# sqlite3 authorizer action codes the read surface permits.
_ALLOWED_ACTIONS = {
    sqlite3.SQLITE_SELECT,
    sqlite3.SQLITE_READ,
    sqlite3.SQLITE_FUNCTION,
    sqlite3.SQLITE_RECURSIVE,
}


def _authorize(action, *_args) -> int:
    if action in _ALLOWED_ACTIONS:
        return sqlite3.SQLITE_OK
    return sqlite3.SQLITE_DENY


class QueryEngine:
    """Serve analytics requests against one store, safely and bounded."""

    def __init__(
        self,
        store: AnalyticsStore,
        *,
        default_timeout_ms: float = DEFAULT_TIMEOUT_MS,
    ):
        if default_timeout_ms <= 0:
            raise ValueError(
                f"default_timeout_ms must be > 0, got {default_timeout_ms}"
            )
        self._store = store
        self._default_timeout_ms = default_timeout_ms
        self._lock = threading.Lock()
        self._served = 0
        self._failed = 0

    @property
    def store(self) -> AnalyticsStore:
        return self._store

    # -- the entry point -----------------------------------------------------

    def query(self, request: AnalyticsRequest) -> AnalyticsResponse:
        """Guard, execute; every failure is a stable code (the request
        validated itself when it was constructed)."""
        try:
            if self._store.closed:
                raise ApiError(
                    "analytics_unavailable", "the analytics store is closed"
                )
            if request.report is not None:
                sql = REPORT_SQL[request.report]
            else:
                sql = self._guard(request.sql)
            response = self._execute(sql, request)
        except ApiError:
            with self._lock:
                self._failed += 1
            raise
        with self._lock:
            self._served += 1
        return response

    def report(self, name: str, *, limit: int = 100) -> AnalyticsResponse:
        """Canned-report convenience used by the CLI and examples."""
        return self.query(AnalyticsRequest(report=name, limit=limit))

    # -- guarding ------------------------------------------------------------

    @staticmethod
    def _guard(sql: str) -> str:
        """The statement allowlist: one SELECT/WITH, nothing else."""
        stripped = sql.strip().rstrip(";").strip()
        if not stripped:
            raise ApiError("analytics_bad_sql", "empty statement")
        if ";" in stripped:
            raise ApiError(
                "analytics_bad_sql",
                "multiple statements are not allowed (one SELECT per "
                "request)",
            )
        if not _READ_ONLY_HEAD.match(stripped):
            raise ApiError(
                "analytics_bad_sql",
                "only SELECT (or WITH ... SELECT) statements are allowed",
            )
        return stripped

    # -- execution -----------------------------------------------------------

    def _execute(
        self, sql: str, request: AnalyticsRequest
    ) -> AnalyticsResponse:
        timeout_ms = (
            request.timeout_ms
            if request.timeout_ms is not None
            else self._default_timeout_ms
        )
        t0 = time.perf_counter()
        deadline = t0 + timeout_ms / 1000.0
        try:
            conn = self._store.connect_readonly()
        except sqlite3.Error as exc:
            raise ApiError(
                "analytics_unavailable",
                f"cannot open the analytics store: {exc}",
            )
        try:
            if request.sample:
                # Temp objects shadow main-database names, so the
                # user's SQL reads the reservoir through the same
                # 'events' relation. Installed before the authorizer:
                # this CREATE is ours, not the request's.
                conn.execute(
                    "CREATE TEMP VIEW events AS SELECT "
                    + ", ".join(EVENT_COLUMNS)
                    + " FROM sample"
                )
            conn.set_authorizer(_authorize)
            conn.set_progress_handler(
                lambda: 1 if time.perf_counter() > deadline else 0, 2000
            )
            try:
                cursor = conn.execute(sql)
                raw_rows = cursor.fetchmany(request.limit + 1)
            except sqlite3.OperationalError as exc:
                if "interrupted" in str(exc).lower():
                    raise ApiError(
                        "analytics_timeout",
                        f"query exceeded its {timeout_ms:.0f}ms budget",
                    )
                raise ApiError("analytics_bad_sql", str(exc))
            except sqlite3.DatabaseError as exc:
                # "not authorized" from the authorizer lands here.
                raise ApiError("analytics_bad_sql", str(exc))
            except sqlite3.Warning as exc:
                raise ApiError("analytics_bad_sql", str(exc))
            columns = tuple(
                d[0] for d in (cursor.description or ())
            )
            truncated = len(raw_rows) > request.limit
            rows = _jsonable(raw_rows[: request.limit])
        finally:
            conn.close()
        return AnalyticsResponse(
            columns=columns,
            rows=rows,
            truncated=truncated,
            sampled=request.sample,
            elapsed_ms=(time.perf_counter() - t0) * 1000.0,
        )

    # -- introspection -------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "queries_served": self._served,
                "queries_failed": self._failed,
            }


def _jsonable(raw_rows: List[tuple]) -> Tuple[Tuple, ...]:
    """SQLite rows as JSON-scalar tuples (bytes decoded defensively)."""
    out = []
    for row in raw_rows:
        out.append(
            tuple(
                cell.decode("utf-8", errors="replace")
                if isinstance(cell, (bytes, bytearray, memoryview))
                else cell
                for cell in row
            )
        )
    return tuple(out)
