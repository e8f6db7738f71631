"""The segment tailer: WAL directory → analytics store, exactly once.

:class:`SegmentTailer` is an *isolated* WAL consumer: it reads the
segment files directly (it never holds the serving side's
:class:`~repro.streaming.wal.WriteAheadLog` lock), decodes records with
the same CRC-checked codec, and folds everything newer than the store's
``applied_seq`` into the :class:`~repro.analytics.store.AnalyticsStore`
in batched transactions. Sequence numbers make the whole pipeline
idempotent end to end:

* records are read with the WAL's own
  :class:`~repro.streaming.wal.SegmentReader` (the fold process reads
  the log the same way), resuming each poll where the last one stopped;
* a failed apply rewinds the reader to the store's ``applied_seq``, so
  the next poll re-offers exactly what the store lacks;
* a segment *compacted away* between polls simply stops appearing (a
  fresh store rebuilding from a compacted WAL holds exactly what the
  WAL retains);
* a torn or still-being-written final line in the active segment is
  left for the next poll (only newline-terminated records are decoded).

**Checkpoint sidecar.** After each apply the tailer atomically rewrites
``<db>.checkpoint.json`` next to the store with its progress
(``applied_seq``, rows ingested, segments seen). This is an
operator-facing record — recovery truth is the ``meta.applied_seq`` row
*inside* the store, committed with each batch; the sidecar exists so an
operator can inspect tailer progress without opening SQLite.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Union

from repro._util import atomic_write_json
from repro.analytics.store import AnalyticsStore
from repro.streaming.wal import IngestEvent, SegmentReader, WriteAheadLog

__all__ = ["SegmentTailer", "make_topic_resolver"]


def make_topic_resolver(backend) -> Callable[[IngestEvent], int]:
    """A memoizing (query → topic) resolver over any typed backend.

    WAL events carry ``query_text`` only when the query was first seen
    live, so the resolver caches the answer per ``query_id`` on first
    sighting; events whose query text is never seen roll up under topic
    ``-1``. One ``k=1`` search per *distinct* live query is the entire
    read-path cost of topic attribution.
    """
    from repro.api.contract import SearchRequest

    cache: Dict[int, int] = {}

    def resolve(event: IngestEvent) -> int:
        known = cache.get(event.query_id)
        if known is not None:
            return known
        if event.query_text is None:
            return -1
        try:
            response = backend.search(
                SearchRequest(query=event.query_text, k=1)
            )
            topic = response.hits[0].topic_id if response.hits else -1
        except Exception:  # noqa: BLE001 - attribution must never kill apply
            topic = -1
        cache[event.query_id] = topic
        return topic

    return resolve


class SegmentTailer:
    """Stream WAL segments into an analytics store (resumable, isolated).

    ``wal`` may be a directory path or a live
    :class:`~repro.streaming.wal.WriteAheadLog` (only its directory is
    used — reads never take its lock). Drive it synchronously with
    :meth:`run_once` (tests, the offline CLI) or as a daemon thread via
    :meth:`start` / :meth:`stop` (``serve-http --analytics-db``).
    """

    def __init__(
        self,
        wal: Union[str, Path, WriteAheadLog],
        store: AnalyticsStore,
        *,
        resolver: Optional[Callable[[IngestEvent], int]] = None,
        ingest_pipe=None,
        poll_interval_s: float = 0.2,
        batch_max_events: int = 1024,
        checkpoint_path: Optional[Union[str, Path]] = None,
    ):
        if batch_max_events < 1:
            raise ValueError(
                f"batch_max_events must be >= 1, got {batch_max_events}"
            )
        self._wal_dir = (
            wal.directory if isinstance(wal, WriteAheadLog) else Path(wal)
        )
        self._store = store
        self._resolver = resolver
        self._pipe = ingest_pipe
        self._poll_interval_s = poll_interval_s
        self._batch_max_events = batch_max_events
        self._checkpoint_path = (
            Path(checkpoint_path)
            if checkpoint_path is not None
            else store.path.with_name(store.path.name + ".checkpoint.json")
        )

        self._reader = SegmentReader(
            self._wal_dir, after_seq=store.applied_seq
        )
        self._segments_tailed = 0
        self._runs = 0
        self._head_seq = store.applied_seq
        self._last_ops: Optional[tuple] = None
        self._last_error: Optional[str] = None
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._state_lock = threading.Lock()

    # -- identity ------------------------------------------------------------

    @property
    def store(self) -> AnalyticsStore:
        return self._store

    @property
    def checkpoint_path(self) -> Path:
        return self._checkpoint_path

    # -- one poll ------------------------------------------------------------

    def run_once(self) -> int:
        """Read the WAL's new records once; returns newly applied events."""
        applied = 0
        try:
            while True:
                batch = self._reader.read(self._batch_max_events)
                if not batch:
                    break
                applied += self._store.apply_batch(
                    batch, resolver=self._resolver
                )
        except BaseException:
            # What the reader handed out but the store did not commit
            # must be offered again.
            self._reader = SegmentReader(
                self._wal_dir, after_seq=self._store.applied_seq
            )
            raise
        with self._state_lock:
            self._head_seq = max(self._head_seq, self._reader.head_seq)
            self._segments_tailed = self._reader.segments
            self._runs += 1
        self._record_ops()
        self._write_checkpoint()
        return applied

    def _record_ops(self) -> None:
        """Snapshot pipe counters into ops — only when they moved."""
        if self._pipe is None:
            return
        stats = self._pipe.stats()
        key = (int(stats.get("accepted", 0)), int(stats.get("shed", 0)))
        if key == self._last_ops:
            return
        self._last_ops = key
        self._store.record_ops(stats)

    def _write_checkpoint(self) -> None:
        counts = self._store.counts()
        with self._state_lock:
            payload = {
                "applied_seq": counts["applied_seq"],
                "rows_ingested": counts["rows_ingested"],
                "segments_seen": self._segments_tailed,
                "wal_head_seq": self._head_seq,
                "wal_dir": str(self._wal_dir),
            }
        atomic_write_json(self._checkpoint_path, payload)

    def catch_up(self) -> int:
        """Poll until a pass applies nothing (offline/drain helper)."""
        total = 0
        while True:
            applied = self.run_once()
            total += applied
            if applied == 0:
                return total

    # -- background operation ------------------------------------------------

    def start(self) -> "SegmentTailer":
        if self._thread is not None:
            raise RuntimeError("tailer already started")
        self._stop.clear()

        def loop() -> None:
            while not self._stop.is_set():
                try:
                    self.run_once()
                except Exception as exc:  # noqa: BLE001 - keep tailing
                    self._last_error = f"{type(exc).__name__}: {exc}"
                self._stop.wait(self._poll_interval_s)

        self._thread = threading.Thread(
            target=loop, name="shoal-analytics-tailer", daemon=True
        )
        self._thread.start()
        return self

    def stop(self, *, drain: bool = True, timeout_s: float = 30.0) -> None:
        """Stop the loop; with ``drain``, apply everything still
        unread so the store matches the WAL at shutdown."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=timeout_s)
            self._thread = None
        if drain and not self._store.closed:
            self.catch_up()

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    @property
    def last_error(self) -> Optional[str]:
        return self._last_error

    # -- introspection -------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """Tailer progress for the metrics scrape (lag vs WAL head)."""
        counts = self._store.counts()
        with self._state_lock:
            head = max(self._head_seq, counts["applied_seq"])
            return {
                "segments_tailed": self._segments_tailed,
                "rows_ingested": counts["rows_ingested"],
                "events": counts["events"],
                "applied_seq": counts["applied_seq"],
                "wal_head_seq": head,
                "lag": head - counts["applied_seq"],
                "runs": self._runs,
                "running": self.running,
            }
