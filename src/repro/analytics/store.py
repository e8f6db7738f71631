"""The analytics store: a WAL-mode SQLite replica of the event stream.

This is the HTAP isolation boundary (the Polynesia shape): the
transactional side appends to the write-ahead log and keeps serving;
the analytics side — this store plus the
:class:`~repro.analytics.tailer.SegmentTailer` feeding it — lives in
its own SQLite file and never touches a serving structure, so analytics
queries cannot contend with read-path latency.

Schema (all maintained incrementally, one transaction per tailed
batch)::

    meta(key, value)                 -- applied_seq, stream_count, schema
    events(seq PK, day, user_id, query_id, n_clicks, clicked,
           query_text, topic_id)     -- one row per WAL event
    daily_rollup(day PK, n_events, n_clicks)
    topic_rollup(day, topic_id, n_events, n_clicks)
    query_rollup(day, query_id, n_events, n_clicks)
    ops(id PK, ts, accepted, shed, dropped, queue_depth)
    sample(slot PK, ...events columns)  -- fixed-size reservoir

**Exactness.** ``meta.applied_seq`` commits in the *same transaction*
as the event rows it covers, so a process killed anywhere leaves the
store describing exactly the WAL prefix it durably holds — the tailer
resumes from ``applied_seq`` and can neither lose nor double an event.
Within a transaction, seq (the events PRIMARY KEY) is a second line of
defence: re-applying an already-present seq is ignored *before* any
rollup is touched.

**Reservoir sample.** ``sample`` holds a uniform fixed-capacity sample
of the full event stream (Vitter's algorithm R). Replacement decisions
are derived deterministically from ``(seed, seq)``, so a crash/replay
reaches the same reservoir state it would have without the crash.
"""

from __future__ import annotations

import json
import random
import sqlite3
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, Optional, Union

from repro.streaming.wal import IngestEvent

__all__ = ["AnalyticsStore", "EVENT_COLUMNS"]

#: The relational shape of one event, shared by ``events`` and
#: ``sample`` (the reservoir must shadow ``events`` column-for-column
#: for sampled SQL to run unchanged).
EVENT_COLUMNS = (
    "seq", "day", "user_id", "query_id", "n_clicks", "clicked",
    "query_text", "topic_id",
)

_SCHEMA_VERSION = 1

_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value INTEGER NOT NULL
);
CREATE TABLE IF NOT EXISTS events (
    seq        INTEGER PRIMARY KEY,
    day        INTEGER NOT NULL,
    user_id    INTEGER NOT NULL,
    query_id   INTEGER NOT NULL,
    n_clicks   INTEGER NOT NULL,
    clicked    TEXT    NOT NULL,
    query_text TEXT,
    topic_id   INTEGER NOT NULL DEFAULT -1
);
CREATE INDEX IF NOT EXISTS idx_events_day ON events(day);
CREATE INDEX IF NOT EXISTS idx_events_query ON events(query_id);
CREATE TABLE IF NOT EXISTS daily_rollup (
    day      INTEGER PRIMARY KEY,
    n_events INTEGER NOT NULL,
    n_clicks INTEGER NOT NULL
);
CREATE TABLE IF NOT EXISTS topic_rollup (
    day      INTEGER NOT NULL,
    topic_id INTEGER NOT NULL,
    n_events INTEGER NOT NULL,
    n_clicks INTEGER NOT NULL,
    PRIMARY KEY (day, topic_id)
);
CREATE TABLE IF NOT EXISTS query_rollup (
    day      INTEGER NOT NULL,
    query_id INTEGER NOT NULL,
    n_events INTEGER NOT NULL,
    n_clicks INTEGER NOT NULL,
    PRIMARY KEY (day, query_id)
);
CREATE TABLE IF NOT EXISTS ops (
    id          INTEGER PRIMARY KEY AUTOINCREMENT,
    ts          REAL    NOT NULL,
    accepted    INTEGER NOT NULL,
    shed        INTEGER NOT NULL,
    dropped     INTEGER NOT NULL,
    queue_depth INTEGER NOT NULL
);
CREATE TABLE IF NOT EXISTS sample (
    slot       INTEGER PRIMARY KEY,
    seq        INTEGER NOT NULL,
    day        INTEGER NOT NULL,
    user_id    INTEGER NOT NULL,
    query_id   INTEGER NOT NULL,
    n_clicks   INTEGER NOT NULL,
    clicked    TEXT    NOT NULL,
    query_text TEXT,
    topic_id   INTEGER NOT NULL DEFAULT -1
);
"""

_ROLLUPS = (
    ("daily_rollup", "day", lambda ev, topic: (ev.day,)),
    ("topic_rollup", "day, topic_id", lambda ev, topic: (ev.day, topic)),
    ("query_rollup", "day, query_id", lambda ev, topic: (ev.day, ev.query_id)),
)


class AnalyticsStore:
    """One SQLite file holding the queryable replica of the WAL.

    The single writer is whoever calls :meth:`apply_batch` (the tailer
    thread in a live deployment, the CLI in offline mode); readers open
    their own connections via :meth:`connect_readonly` — SQLite's WAL
    journal mode lets them run against a live writer without blocking
    it.
    """

    def __init__(
        self,
        path: Union[str, Path],
        *,
        reservoir_capacity: int = 512,
        seed: int = 0,
    ):
        if reservoir_capacity < 1:
            raise ValueError(
                f"reservoir_capacity must be >= 1, got {reservoir_capacity}"
            )
        self._path = Path(path)
        self._path.parent.mkdir(parents=True, exist_ok=True)
        self._capacity = reservoir_capacity
        self._seed = seed
        self._lock = threading.Lock()
        self._closed = False
        # The writer connection crosses threads (constructed on the
        # main thread, driven by the tailer's daemon thread); the lock
        # serialises every use. isolation_level=None puts sqlite3 in
        # autocommit mode so apply_batch's explicit BEGIN/COMMIT is the
        # only transaction boundary.
        self._conn = sqlite3.connect(
            str(self._path), check_same_thread=False, isolation_level=None
        )
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA synchronous=NORMAL")
        self._conn.execute("PRAGMA busy_timeout=5000")
        self._conn.executescript(_SCHEMA)
        self._conn.execute(
            "INSERT OR IGNORE INTO meta VALUES ('schema', ?)",
            (_SCHEMA_VERSION,),
        )
        self._conn.execute(
            "INSERT OR IGNORE INTO meta VALUES ('applied_seq', 0)"
        )
        self._conn.execute(
            "INSERT OR IGNORE INTO meta VALUES ('stream_count', 0)"
        )
        self._applied_seq = self._meta("applied_seq")
        self._stream_count = self._meta("stream_count")

    def _meta(self, key: str) -> int:
        row = self._conn.execute(
            "SELECT value FROM meta WHERE key = ?", (key,)
        ).fetchone()
        return 0 if row is None else int(row[0])

    # -- identity ------------------------------------------------------------

    @property
    def path(self) -> Path:
        return self._path

    @property
    def applied_seq(self) -> int:
        """The WAL seq this store durably covers (crash-exact)."""
        with self._lock:
            return self._applied_seq

    @property
    def closed(self) -> bool:
        return self._closed

    # -- the one write path --------------------------------------------------

    def apply_batch(
        self,
        events: Iterable[IngestEvent],
        *,
        resolver: Optional[Callable[[IngestEvent], int]] = None,
    ) -> int:
        """Fold a batch of WAL events into the store, atomically.

        Events at or below ``applied_seq`` are skipped (idempotent
        replay); everything newer lands in ``events``, the three rollup
        tables, and possibly the reservoir — all in one transaction
        with the ``applied_seq`` advance, which is what makes a crash
        at any point exact. Returns the number of newly applied events.
        """
        with self._lock:
            if self._closed:
                raise ValueError("analytics store is closed")
            applied = 0
            try:
                self._conn.execute("BEGIN")
                for event in events:
                    if event.seq <= self._applied_seq:
                        continue
                    topic = -1 if resolver is None else int(resolver(event))
                    self._insert_event(event, topic)
                    self._applied_seq = event.seq
                    applied += 1
                self._conn.execute(
                    "UPDATE meta SET value = ? WHERE key = 'applied_seq'",
                    (self._applied_seq,),
                )
                self._conn.execute(
                    "UPDATE meta SET value = ? WHERE key = 'stream_count'",
                    (self._stream_count,),
                )
                self._conn.commit()
            except BaseException:
                self._conn.rollback()
                # The in-memory cursors must match the durable state.
                self._applied_seq = self._meta("applied_seq")
                self._stream_count = self._meta("stream_count")
                raise
            return applied

    def _insert_event(self, event: IngestEvent, topic: int) -> None:
        n_clicks = len(event.clicked_entity_ids)
        self._conn.execute(
            "INSERT INTO events VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
            (
                event.seq, event.day, event.user_id, event.query_id,
                n_clicks, json.dumps(list(event.clicked_entity_ids)),
                event.query_text, topic,
            ),
        )
        for table, keys, key_of in _ROLLUPS:
            key = key_of(event, topic)
            marks = ", ".join("?" for _ in key)
            self._conn.execute(
                f"INSERT INTO {table} VALUES ({marks}, 1, ?) "
                f"ON CONFLICT({keys}) DO UPDATE SET "
                f"n_events = n_events + 1, "
                f"n_clicks = n_clicks + excluded.n_clicks",
                key + (n_clicks,),
            )
        self._reservoir_offer(event, topic, n_clicks)

    def _reservoir_offer(
        self, event: IngestEvent, topic: int, n_clicks: int
    ) -> None:
        """Algorithm R with decisions keyed on (seed, seq): replaying
        the same stream — with or without crashes between — always
        produces the same reservoir."""
        self._stream_count += 1
        n = self._stream_count
        if n <= self._capacity:
            slot = n - 1
        else:
            j = random.Random((self._seed << 32) ^ event.seq).randrange(n)
            if j >= self._capacity:
                return
            slot = j
        self._conn.execute(
            "INSERT OR REPLACE INTO sample VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (
                slot, event.seq, event.day, event.user_id, event.query_id,
                n_clicks, json.dumps(list(event.clicked_entity_ids)),
                event.query_text, topic,
            ),
        )

    def record_ops(self, pipe_stats: Dict[str, Any]) -> None:
        """Snapshot ingest-pipe counters into the ``ops`` table.

        Sheds never reach the WAL (no seq is assigned), so shed-rate
        breakdowns can only come from periodic counter snapshots; the
        canned ``shed`` report differences consecutive rows.
        """
        with self._lock:
            if self._closed:
                raise ValueError("analytics store is closed")
            self._conn.execute(
                "INSERT INTO ops (ts, accepted, shed, dropped, "
                "queue_depth) VALUES (?, ?, ?, ?, ?)",
                (
                    time.time(),
                    int(pipe_stats.get("accepted", 0)),
                    int(pipe_stats.get("shed", 0)),
                    # dropped: the pipe only sheds now; the column stays
                    # so store files written before that still accept rows.
                    0,
                    int(pipe_stats.get("queue_depth", 0)),
                ),
            )

    # -- reads ---------------------------------------------------------------

    def connect_readonly(self) -> sqlite3.Connection:
        """A fresh read-only connection for one analytics query.

        Callers own the connection's lifetime. ``mode=ro`` keeps even a
        hostile statement from mutating the file; WAL mode lets the
        reader proceed while the tailer commits.
        """
        conn = sqlite3.connect(
            f"file:{self._path}?mode=ro", uri=True, check_same_thread=False
        )
        conn.execute("PRAGMA busy_timeout=2000")
        return conn

    def event_count(self) -> int:
        with self._lock:
            row = self._conn.execute("SELECT COUNT(*) FROM events").fetchone()
            return int(row[0])

    def counts(self) -> Dict[str, Any]:
        """Row counts and coverage, cheap enough for a metrics scrape."""
        with self._lock:
            events, lo, hi = self._conn.execute(
                "SELECT COUNT(*), MIN(day), MAX(day) FROM events"
            ).fetchone()
            return {
                "events": int(events),
                "min_day": lo,
                "max_day": hi,
                "applied_seq": self._applied_seq,
                "rows_ingested": self._stream_count,
            }

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._conn.close()
            self._closed = True

    def __enter__(self) -> "AnalyticsStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
