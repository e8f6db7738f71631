"""Durable write-ahead log for incoming query events.

The WAL is the durability boundary of the write path: an event is
acknowledged to the client only after its record is in the log, so a
crash between admission and model update loses nothing — the updater
replays the log on restart and rebuilds exactly the state it had.

On-disk layout (one directory per log)::

    wal-00000001.jsonl      closed segment
    wal-00000002.jsonl      ...
    wal-00000003.jsonl      active segment (appends go here)
    CHECKPOINT.json         applied-progress sidecar (atomic rename)

Each record is one JSON line::

    {"crc": 3735928559, "event": {"seq": 17, "day": 7, ...}}

``crc`` is the CRC-32 of the canonical (sorted-key, no-whitespace)
serialisation of ``event``, verified on every replay. Sequence numbers
are assigned by the log, strictly monotonic, and are the idempotency
key of the whole subsystem: replaying the same record twice is
detectable by ``seq`` alone.

**Crash recovery.** A process killed mid-append leaves a torn final
line in the *active* segment. Opening the log detects it, truncates
the segment back to the last intact record, and carries on — that is
the only place corruption is tolerated; a bad checksum anywhere else
raises :class:`WalCorruption` (the storage is damaged, not merely
interrupted).

**Fsync policy.** Every append is written and flushed to the OS before
it returns. ``"always"`` also fsyncs each append (durable against
power loss, slowest); ``"batch"`` fsyncs on :meth:`sync`, which the
ingest pipe calls each time the updater takes a batch — so an acked
event survives a process crash at once and a power loss once its
batch is taken; ``"never"`` leaves syncing to the OS (benchmarks
only).

**Compaction.** Events feed a sliding-window model, so segments whose
newest event predates the retention window are dead weight;
:meth:`compact` removes closed segments whose ``max_day`` falls before
the window start. The active segment is never compacted.
"""

from __future__ import annotations

import json
import os
import threading
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Any,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

__all__ = [
    "IngestEvent",
    "WalCorruption",
    "WriteAheadLog",
    "read_checkpoint",
    "write_checkpoint",
]

_SEGMENT_PREFIX = "wal-"
_SEGMENT_SUFFIX = ".jsonl"
_CHECKPOINT = "CHECKPOINT.json"

FSYNC_POLICIES = ("always", "batch", "never")


class WalCorruption(Exception):
    """A record failed its checksum outside the recoverable torn tail."""


@dataclass(frozen=True)
class IngestEvent:
    """One durable query event: a user issued a query and clicked.

    ``seq`` is the log-assigned, strictly monotonic sequence number —
    the idempotency key for replay. ``query_text`` rides along when the
    query string was first seen live (the serving side registers it
    before folding the event into the window).
    """

    seq: int
    day: int
    user_id: int
    query_id: int
    clicked_entity_ids: Tuple[int, ...]
    query_text: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "seq": self.seq,
            "day": self.day,
            "user_id": self.user_id,
            "query_id": self.query_id,
            "clicked": list(self.clicked_entity_ids),
        }
        if self.query_text is not None:
            out["query_text"] = self.query_text
        return out

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "IngestEvent":
        try:
            return cls(
                seq=int(payload["seq"]),
                day=int(payload["day"]),
                user_id=int(payload["user_id"]),
                query_id=int(payload["query_id"]),
                clicked_entity_ids=tuple(
                    int(e) for e in payload.get("clicked", ())
                ),
                query_text=(
                    None
                    if payload.get("query_text") is None
                    else str(payload["query_text"])
                ),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise WalCorruption(f"malformed WAL event {payload!r}: {exc}")


def _canonical(event_dict: Dict[str, Any]) -> bytes:
    return json.dumps(
        event_dict, sort_keys=True, separators=(",", ":"), allow_nan=False
    ).encode("utf-8")


def _crc(event_dict: Dict[str, Any]) -> int:
    return zlib.crc32(_canonical(event_dict)) & 0xFFFFFFFF


def _segment_number(path: Path) -> int:
    return int(path.name[len(_SEGMENT_PREFIX):-len(_SEGMENT_SUFFIX)])


def _segment_name(number: int) -> str:
    return f"{_SEGMENT_PREFIX}{number:08d}{_SEGMENT_SUFFIX}"


@dataclass
class _SegmentMeta:
    path: Path
    n_events: int = 0
    max_seq: Optional[int] = None
    max_day: Optional[int] = None

    def observe(self, event: IngestEvent) -> None:
        self.n_events += 1
        self.max_seq = event.seq
        self.max_day = (
            event.day
            if self.max_day is None
            else max(self.max_day, event.day)
        )


def write_checkpoint(directory: Union[str, Path], payload: Dict[str, Any]) -> Path:
    """Atomically persist applied-progress metadata next to the log.

    Written via temp-file + rename so a crash mid-write leaves the
    previous checkpoint intact, never a torn one. This is an
    operator-facing progress record (which seq the last shipped
    generation covered), not a recovery cursor — recovery always
    replays the full retained WAL because the window store is
    in-memory.
    """
    from repro._util import atomic_write_json

    return atomic_write_json(Path(directory) / _CHECKPOINT, payload)


def read_checkpoint(directory: Union[str, Path]) -> Optional[Dict[str, Any]]:
    """The last checkpoint payload, or None if none was ever written."""
    path = Path(directory) / _CHECKPOINT
    if not path.is_file():
        return None
    return json.loads(path.read_text())


class WriteAheadLog:
    """Append-only, segmented, checksummed event log (thread-safe).

    Opening an existing directory scans every segment: sequence
    numbering resumes after the highest intact record, per-segment
    day/seq ranges are rebuilt for compaction, and a torn tail on the
    active segment is truncated away (see module docstring).
    """

    def __init__(
        self,
        directory: Union[str, Path],
        *,
        segment_max_events: int = 4096,
        fsync: str = "batch",
    ):
        if segment_max_events < 1:
            raise ValueError(
                f"segment_max_events must be >= 1, got {segment_max_events}"
            )
        if fsync not in FSYNC_POLICIES:
            raise ValueError(
                f"fsync must be one of {FSYNC_POLICIES}, got {fsync!r}"
            )
        self._dir = Path(directory)
        self._dir.mkdir(parents=True, exist_ok=True)
        self._segment_max_events = segment_max_events
        self._fsync = fsync
        self._lock = threading.Lock()
        self._appended = 0
        self._fsyncs = 0
        self._compacted_segments = 0
        self._closed = False

        self._segments: List[_SegmentMeta] = []
        self._next_seq = 1
        self._recover()

        if not self._segments:
            self._segments.append(
                _SegmentMeta(self._dir / _segment_name(1))
            )
        active = self._segments[-1]
        self._handle = open(active.path, "a", encoding="utf-8")

    # -- lifecycle -----------------------------------------------------------

    @property
    def directory(self) -> Path:
        return self._dir

    @property
    def next_seq(self) -> int:
        """The sequence number the next appended event will get."""
        with self._lock:
            return self._next_seq

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._handle.flush()
            if self._fsync != "never":
                self._do_fsync()
            self._handle.close()
            self._closed = True

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- recovery ------------------------------------------------------------

    def _segment_paths(self) -> List[Path]:
        return sorted(
            (
                p
                for p in self._dir.iterdir()
                if p.name.startswith(_SEGMENT_PREFIX)
                and p.name.endswith(_SEGMENT_SUFFIX)
            ),
            key=_segment_number,
        )

    def _recover(self) -> None:
        """Scan all segments, rebuild metadata, repair a torn tail."""
        paths = self._segment_paths()
        for i, path in enumerate(paths):
            last = i == len(paths) - 1
            meta = _SegmentMeta(path)
            good_bytes = 0
            with open(path, "rb") as fh:
                for raw in fh:
                    try:
                        event = self._decode_line(raw)
                    except WalCorruption:
                        if last and not fh.readline():
                            # Torn tail: the final line of the final
                            # segment — truncate it away below.
                            break
                        raise WalCorruption(
                            f"corrupt record in {path.name} at byte "
                            f"{good_bytes} (not a recoverable torn tail)"
                        )
                    meta.observe(event)
                    good_bytes += len(raw)
            if path.stat().st_size > good_bytes:
                if not last:
                    raise WalCorruption(
                        f"trailing garbage in closed segment {path.name}"
                    )
                with open(path, "r+b") as fh:
                    fh.truncate(good_bytes)
            self._segments.append(meta)
            if meta.max_seq is not None:
                self._next_seq = max(self._next_seq, meta.max_seq + 1)

    @staticmethod
    def _decode_line(raw: bytes) -> IngestEvent:
        try:
            record = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise WalCorruption(f"undecodable WAL line: {exc}")
        if (
            not isinstance(record, dict)
            or "crc" not in record
            or not isinstance(record.get("event"), dict)
        ):
            raise WalCorruption(f"not a WAL record: {record!r}")
        event_dict = record["event"]
        if _crc(event_dict) != record["crc"]:
            raise WalCorruption(
                f"checksum mismatch for event {event_dict.get('seq')!r}"
            )
        return IngestEvent.from_dict(event_dict)

    # -- writes --------------------------------------------------------------

    def _do_fsync(self) -> None:
        """fsync the active handle, counting every real disk barrier
        (caller holds the lock). The counter is what the coalescing
        benchmark gates on: batched appends must amortize these."""
        os.fsync(self._handle.fileno())
        self._fsyncs += 1

    @staticmethod
    def _encode(event: IngestEvent) -> str:
        event_dict = event.to_dict()
        return json.dumps(
            {"crc": _crc(event_dict), "event": event_dict},
            sort_keys=True,
            separators=(",", ":"),
            allow_nan=False,
        )

    def append(
        self,
        *,
        day: int,
        user_id: int,
        query_id: int,
        clicked_entity_ids: Tuple[int, ...] = (),
        query_text: Optional[str] = None,
    ) -> IngestEvent:
        """Durably record one event; returns it with its assigned seq."""
        fields = dict(
            day=day,
            user_id=user_id,
            query_id=query_id,
            clicked_entity_ids=clicked_entity_ids,
            query_text=query_text,
        )
        return self.append_many([fields])[0]

    def append_many(
        self, batch: Sequence[Mapping[str, Any]]
    ) -> List[IngestEvent]:
        """Durably record a batch of events with ONE disk barrier.

        ``batch`` is a sequence of :meth:`append` keyword dicts
        (``day``, ``query_id`` required; ``user_id``,
        ``clicked_entity_ids``, ``query_text`` optional). Seqs are
        assigned contiguously under one lock hold, and under the
        ``"always"`` policy the whole batch is covered by a single
        trailing fsync — the amortization the coalescing async edge
        exists for. Durable-before-ack is preserved because the caller
        acks only after this returns. Returns the events in order.
        """
        if not batch:
            return []
        events: List[IngestEvent] = []
        with self._lock:
            if self._closed:
                raise ValueError("write-ahead log is closed")
            for fields in batch:
                event = IngestEvent(
                    seq=self._next_seq,
                    day=fields["day"],
                    user_id=fields.get("user_id", 0),
                    query_id=fields["query_id"],
                    clicked_entity_ids=tuple(
                        fields.get("clicked_entity_ids", ())
                    ),
                    query_text=fields.get("query_text"),
                )
                self._next_seq += 1
                self._handle.write(self._encode(event) + "\n")
                active = self._segments[-1]
                active.observe(event)
                self._appended += 1
                if active.n_events >= self._segment_max_events:
                    self._roll_segment()
                events.append(event)
            self._handle.flush()
            if self._fsync == "always":
                self._do_fsync()
        return events

    def _roll_segment(self) -> None:
        """Close the active segment and open the next (caller holds lock).

        The directory entry is fsynced after the close so a crash right
        after the roll cannot leave a closed segment whose name is not
        yet durable in the directory: its link must be as durable as
        its bytes.
        """
        self._handle.flush()
        if self._fsync != "never":
            self._do_fsync()
        self._handle.close()
        if self._fsync != "never":
            self._fsync_directory()
        number = _segment_number(self._segments[-1].path) + 1
        meta = _SegmentMeta(self._dir / _segment_name(number))
        self._segments.append(meta)
        self._handle = open(meta.path, "a", encoding="utf-8")

    def _fsync_directory(self) -> None:
        """Make the segment files' directory entries durable."""
        try:
            dir_fd = os.open(self._dir, os.O_RDONLY)
        except OSError:
            return  # platform cannot open directories (e.g. Windows)
        try:
            os.fsync(dir_fd)
        except OSError:
            pass  # directory fsync unsupported on this filesystem
        finally:
            os.close(dir_fd)

    def sync(self) -> None:
        """Flush + fsync the active segment (the "batch" policy hook)."""
        with self._lock:
            if self._closed:
                return
            self._handle.flush()
            if self._fsync != "never":
                self._do_fsync()

    # -- reads ---------------------------------------------------------------

    def replay(self, after_seq: int = 0) -> Iterator[IngestEvent]:
        """Yield every intact event with ``seq > after_seq``, in order.

        Safe to call on a live log (appends during iteration may or may
        not be seen — replay before starting writers for exact counts).
        """
        with self._lock:
            paths = [m.path for m in self._segments if m.path.is_file()]
        for i, path in enumerate(paths):
            last = i == len(paths) - 1
            with open(path, "rb") as fh:
                for raw in fh:
                    try:
                        event = self._decode_line(raw)
                    except WalCorruption:
                        if last and not fh.readline():
                            return  # torn live tail — recoverable
                        raise
                    if event.seq > after_seq:
                        yield event

    def event_count(self) -> int:
        """Total intact events currently retained in the log."""
        return sum(1 for _ in self.replay())

    def segments(self) -> List[Path]:
        with self._lock:
            return [m.path for m in self._segments]

    # -- compaction ----------------------------------------------------------

    def compact(self, retain_from_day: int) -> List[Path]:
        """Drop closed segments fully older than ``retain_from_day``.

        A segment is removable when every event in it has
        ``day < retain_from_day`` — i.e. nothing in it can ever be part
        of the sliding window again. Returns the removed paths.
        """
        removed: List[Path] = []
        with self._lock:
            keep: List[_SegmentMeta] = []
            for meta in self._segments[:-1]:  # never the active segment
                if meta.max_day is not None and meta.max_day < retain_from_day:
                    meta.path.unlink(missing_ok=True)
                    removed.append(meta.path)
                    self._compacted_segments += 1
                else:
                    keep.append(meta)
            keep.append(self._segments[-1])
            self._segments = keep
        return removed

    # -- introspection -------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "directory": str(self._dir),
                "segments": len(self._segments),
                "events_retained": sum(m.n_events for m in self._segments),
                "appended": self._appended,
                "fsyncs": self._fsyncs,
                "compacted_segments": self._compacted_segments,
                "next_seq": self._next_seq,
                "fsync": self._fsync,
            }
