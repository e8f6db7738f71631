"""Admission control for the write path: validate, shed, persist.

:class:`IngestPipe` sits between clients (the HTTP ``/v1/ingest``
endpoint) and the fold process (:mod:`repro.streaming.updater`), which
reads the write-ahead log on its own — the WAL is the queue:

1. **Validate** the submitted payload (types and bounds) — failures are
   :class:`~repro.api.contract.ApiError` with the contract's stable
   codes, exactly like the read path;
2. **Admit or shed** against the fold's lag: events the WAL holds past
   the cut the fold has applied count against ``max_queue``, and what
   does not fit is rejected with ``ingest_overloaded`` (HTTP 429)
   before any work is done, so the client retries with backoff.
   Shedding is the only policy — a waiting admission would park an
   edge worker behind the fold;
3. **Persist** the event to the :class:`~repro.streaming.wal.WriteAheadLog`
   *before* acknowledging — the ack means "written and flushed to the
   OS", not "applied" (see the WAL's fsync policies for power loss).
   The fold process picks it up from the segment files, in micro-batches
   bounded by count and age.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple

from repro.api.contract import ApiError
from repro.obs.tracer import traced
from repro.streaming.wal import IngestEvent, WriteAheadLog

__all__ = ["IngestPipe"]

#: Validation bounds (mirrors the read contract's defensive limits).
MAX_CLICKS_PER_EVENT = 256
MAX_QUERY_TEXT_CHARS = 1024
#: Ids and days land in the click window's and the snapshot's int64
#: columns; a larger integer would fail every fold after it.
MAX_INT = 2**63 - 1


def _check_int(name: str, value: Any, *, minimum: int = 0) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ApiError(
            "bad_request", f"{name!r} must be an integer, got {value!r}"
        )
    if not minimum <= value <= MAX_INT:
        raise ApiError(
            "invalid_argument",
            f"{name!r} must be in [{minimum}, {MAX_INT}], got {value}",
        )
    return value


def validate_event_payload(payload: Mapping[str, Any]) -> Dict[str, Any]:
    """Validate one wire-shaped ingest event; returns normalised fields.

    Raises :class:`ApiError` (``bad_request`` / ``invalid_argument``)
    exactly like the read contract, so HTTP clients get the same stable
    codes on both paths.
    """
    if not isinstance(payload, Mapping):
        raise ApiError(
            "bad_request",
            f"ingest event must be a JSON object, got "
            f"{type(payload).__name__}",
        )
    allowed = {"day", "user_id", "query_id", "clicked", "query_text"}
    unknown = sorted(set(payload) - allowed)
    if unknown:
        raise ApiError(
            "bad_request", f"unknown ingest field(s): {', '.join(unknown)}"
        )
    for required in ("day", "query_id"):
        if required not in payload:
            raise ApiError(
                "bad_request", f"missing required field {required!r}"
            )
    day = _check_int("day", payload["day"])
    query_id = _check_int("query_id", payload["query_id"])
    user_id = _check_int("user_id", payload.get("user_id", 0))
    clicked_raw = payload.get("clicked", [])
    if isinstance(clicked_raw, (str, bytes)) or not hasattr(
        clicked_raw, "__iter__"
    ):
        raise ApiError(
            "bad_request", "'clicked' must be an array of entity ids"
        )
    clicked: Tuple[int, ...] = tuple(
        _check_int("clicked[]", e) for e in clicked_raw
    )
    if len(clicked) > MAX_CLICKS_PER_EVENT:
        raise ApiError(
            "invalid_argument",
            f"{len(clicked)} clicks exceed the per-event limit of "
            f"{MAX_CLICKS_PER_EVENT}",
        )
    query_text = payload.get("query_text")
    if query_text is not None:
        if not isinstance(query_text, str):
            raise ApiError(
                "bad_request",
                f"'query_text' must be a string or null, got "
                f"{type(query_text).__name__}",
            )
        if not query_text.strip():
            raise ApiError(
                "invalid_argument", "'query_text' must not be empty"
            )
        if len(query_text) > MAX_QUERY_TEXT_CHARS:
            raise ApiError(
                "invalid_argument",
                f"'query_text' is {len(query_text)} characters; the limit "
                f"is {MAX_QUERY_TEXT_CHARS}",
            )
    return {
        "day": day,
        "user_id": user_id,
        "query_id": query_id,
        "clicked_entity_ids": clicked,
        "query_text": query_text,
    }


class IngestPipe:
    """WAL-backed admission that sheds once the fold lags too far.

    ``applied_seq`` returns the WAL cut the fold has applied (a
    :class:`~repro.streaming.fold.FoldProcess`'s); the lag is every
    appended event past it. With no fold attached nothing is applied,
    so at most ``max_queue`` events are admitted.
    """

    def __init__(
        self,
        wal: WriteAheadLog,
        *,
        max_queue: int = 4096,
        applied_seq: Callable[[], int] = lambda: 0,
    ):
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        self._wal = wal
        self._max_queue = max_queue
        self._applied_seq = applied_seq
        self._lock = threading.Lock()
        self._closed = False
        self._accepted = 0
        self._shed = 0

    @property
    def wal(self) -> WriteAheadLog:
        return self._wal

    # -- the write-path entry point ------------------------------------------

    def submit(self, payload: Mapping[str, Any]) -> IngestEvent:
        """Validate → admit → persist one event.

        Returns the durable :class:`IngestEvent` (with its assigned
        sequence number); raises exactly what :meth:`submit_many` does
        for a batch of one.
        """
        return self.submit_many([payload])[0]

    def submit_many(
        self, payloads: Sequence[Mapping[str, Any]]
    ) -> List[IngestEvent]:
        """Admit a batch under one lock hold and ONE WAL barrier — the
        coalescing edge's entry point, and :meth:`submit`'s body.

        Every payload is validated first, so a malformed one fails the
        call before anything is admitted (the edge validates
        per-request, so one malformed client cannot fail its
        batch-mates). Then, head-first:

        * closed pipe → ``ingest_unavailable`` (nothing admitted);
        * the fold ``max_queue`` or more events behind →
          ``ingest_overloaded`` (nothing admitted);
        * otherwise the prefix that fits is admitted and returned, and
          the rest counts as shed — the caller detects the short return
          and backpressures per-request.

        Durable-before-ack holds: events are written to the WAL and
        flushed (one fsync per batch under the ``"always"`` policy via
        :meth:`~repro.streaming.wal.WriteAheadLog.append_many`) before
        this returns, and the caller acks only after it returns.
        """
        if not payloads:
            return []
        fields = [validate_event_payload(p) for p in payloads]
        n = len(fields)
        with self._lock:
            if self._closed:
                raise ApiError(
                    "ingest_unavailable", "ingest pipe is closed"
                )
            n_admit = max(0, min(self._max_queue - self._lag(), n))
            if n_admit == 0:
                self._shed += n
                raise ApiError(
                    "ingest_overloaded",
                    f"the fold is {self._max_queue} or more events behind "
                    "the WAL; retry with backoff",
                )
            # Durability before acknowledgement, one barrier per batch.
            with traced(
                "ingest.wal_append", tags={"events": str(n_admit)}
            ):
                events = self._wal.append_many(fields[:n_admit])
            self._accepted += len(events)
            self._shed += n - n_admit
            return events

    def _lag(self) -> int:
        return max(0, self._wal.next_seq - 1 - self._applied_seq())

    def queue_depth(self) -> int:
        """Events in the WAL the fold has not applied yet."""
        return self._lag()

    def close(self) -> None:
        """Refuse new submissions."""
        with self._lock:
            self._closed = True

    @property
    def closed(self) -> bool:
        return self._closed

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "accepted": self._accepted,
                "shed": self._shed,
                "queue_depth": self._lag(),
                "max_queue": self._max_queue,
                "closed": self._closed,
                "wal": self._wal.stats(),
            }
