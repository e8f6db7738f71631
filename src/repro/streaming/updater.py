"""The fold process: WAL events → window slides → generation snapshots.

``serve-http --ingest-wal`` runs no fold itself: it spawns
:func:`main` as a child process (``python -m repro.streaming``,
supervised by :class:`~repro.streaming.fold.FoldProcess`). The child's
:class:`StreamingUpdater`, each cycle,

1. reads the WAL's new records with a
   :class:`~repro.streaming.wal.SegmentReader` — from the segment
   files, without the writer's lock, as the analytics tailer does — and
   takes one micro-batch of them (bounded by count *and* by how long
   the oldest has waited),
2. folds the events into its :class:`~repro.graph.window.ClickWindow`
   (registering live-discovered query strings with the maintainer
   first) — idempotently, keyed on WAL sequence numbers,
3. once enough events are pending, slides the
   :class:`~repro.core.incremental.IncrementalShoal` window to the
   newest ingested day, producing a fresh model,
4. writes that model as a full generation snapshot ``gen-NNNNN/``
   (``window.npz`` included; the manifest's metadata carries the
   generation number, ``applied_seq``, the window's days and the
   retrain counter) under a ``.tmp`` name renamed into place, and
5. reports it — directory and fingerprint, one JSON line on its stdout
   — to the serving process, which loads, probes, swaps, checkpoints,
   compacts and ships it (:class:`~repro.streaming.fold.GenerationInstaller`).

**Restart.** :meth:`StreamingUpdater.restart` starts from the newest
complete generation in the generations directory — the ``--load``
snapshot when there is none — and reads the WAL after that
generation's ``applied_seq``. Model, window, query registry and retrain
counter are the ones the generation was written from, so a fold killed
anywhere writes the same next generation an uninterrupted one would.

The child's stdout carries only reports (``ready``, ``progress``,
``fold``, ``generation``, ``trace``); anything else it prints goes to
stderr. It exits when its stdin closes — the serving process holds the
other end, so the child never outlives it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Deque, Dict, Iterable, Optional, Tuple, Union

from repro.core.incremental import IncrementalShoal
from repro.graph.window import ClickWindow
from repro.obs.tracer import Tracer, set_default_tracer, traced
from repro.store.persistence import (
    load_entity_categories,
    load_model,
    load_window,
    read_manifest,
    snapshot_fingerprint,
)
from repro.streaming.fold import KEEP_GENERATIONS, generation_dirs, newest_generation
from repro.streaming.rollout import Generation
from repro.streaming.wal import IngestEvent, SegmentReader, WriteAheadLog

__all__ = ["StreamingUpdater", "UpdaterStats", "main"]

#: How often the fold looks for new WAL records while it waits.
POLL_INTERVAL_S = 0.05


@dataclass(frozen=True)
class UpdaterStats:
    """Point-in-time progress counters of the updater."""

    events_applied: int
    events_duplicate: int
    events_skipped: int
    applied_seq: int
    generations: int
    last_day: Optional[int]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "events_applied": self.events_applied,
            "events_duplicate": self.events_duplicate,
            "events_skipped": self.events_skipped,
            "applied_seq": self.applied_seq,
            "generations": self.generations,
            "last_day": self.last_day,
        }


class StreamingUpdater:
    """Folds a WAL into generation snapshots (one consumer per WAL).

    ``inc`` must already hold a fitted model (the generation the read
    tier serves). ``window`` is the click window that model was fitted
    on, by default the one it carries; a model loaded from a snapshot
    carries none, so pass ``load_window(dir)`` — or build the updater
    with :meth:`restart`, which does all of that from disk.
    ``applied_seq`` is the WAL cut ``inc`` already covers and
    ``generation_number`` the number of its generation.

    ``wal`` is a WAL directory or a :class:`WriteAheadLog` (only its
    directory is used: reads never take the writer's lock).
    ``min_batch_events`` batches trickle traffic across cycles so a
    lone event does not trigger a full refit, while
    ``batch_max_age_s`` bounds how long a read event waits for its
    batch to fill. ``on_generation`` receives each written
    generation's report (``number``, ``dir``, ``fingerprint``,
    ``applied_seq``, ``last_day``, ``first_day``); ``on_fold`` the
    number of a generation whose fold is starting.
    """

    def __init__(
        self,
        inc: IncrementalShoal,
        wal: Union[str, Path, WriteAheadLog],
        *,
        generations_dir: Union[str, Path],
        window: Optional[ClickWindow] = None,
        applied_seq: int = 0,
        generation_number: int = 0,
        batch_max_events: int = 256,
        batch_max_age_s: float = 0.5,
        min_batch_events: int = 1,
        max_day_skew: int = 2,
        on_generation: Optional[Callable[[Dict[str, Any]], Any]] = None,
        on_fold: Optional[Callable[[int], Any]] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        if inc.model is None:
            raise ValueError(
                "the IncrementalShoal must hold a fitted model before "
                "streaming updates start (advance() or from_model() first)"
            )
        if batch_max_events < 1:
            raise ValueError(
                f"batch_max_events must be >= 1, got {batch_max_events}"
            )
        if min_batch_events < 1:
            raise ValueError(
                f"min_batch_events must be >= 1, got {min_batch_events}"
            )
        if max_day_skew < 1:
            raise ValueError(
                f"max_day_skew must be >= 1, got {max_day_skew}"
            )
        window = window if window is not None else inc.model.window
        if window is None:
            raise ValueError(
                "no click window to fold events into: the model carries "
                "none (it was loaded from a snapshot), so pass "
                "window=load_window(snapshot_dir)"
            )
        self._inc = inc
        self._wal_dir = (
            wal.directory if isinstance(wal, WriteAheadLog) else Path(wal)
        )
        self._reader = SegmentReader(self._wal_dir, after_seq=applied_seq)
        self._window = window.between()
        self._generations_dir = Path(generations_dir)
        self._batch_max_events = batch_max_events
        self._batch_max_age_s = batch_max_age_s
        self._min_batch_events = min_batch_events
        self._max_day_skew = max_day_skew
        self._on_generation = on_generation
        self._on_fold = on_fold
        self._clock = clock

        #: Read but not yet batched: (event, when this process saw it).
        self._buffer: Deque[Tuple[IngestEvent, float]] = deque()
        self._applied_seq = applied_seq
        self._events_applied = 0
        self._events_duplicate = 0
        self._events_skipped = 0
        self._pending_since_generation = 0
        self._generation_number = generation_number
        self._last_report: Optional[Dict[str, Any]] = None
        self._last_error: Optional[str] = None

    @classmethod
    def restart(
        cls,
        snapshot: Union[str, Path],
        wal: Union[str, Path, WriteAheadLog],
        generations_dir: Union[str, Path],
        *,
        retrain_every: int = 7,
        **kwargs: Any,
    ) -> "StreamingUpdater":
        """An updater resumed from disk: the newest complete generation
        in ``generations_dir`` (``snapshot`` when there is none) — its
        model, click window, category map and retrain counter — reading
        the WAL after that generation's ``applied_seq``."""
        source = newest_generation(generations_dir) or Path(snapshot)
        meta = read_manifest(source).get("metadata", {})
        inc = IncrementalShoal.from_model(
            load_model(source),
            entity_categories=load_entity_categories(source) or {},
            retrain_every=retrain_every,
            fits_since_retrain=int(meta.get("fits_since_retrain", 1)),
        )
        updater = cls(
            inc,
            wal,
            generations_dir=generations_dir,
            window=load_window(source),
            applied_seq=int(meta.get("applied_seq", 0)),
            generation_number=int(meta.get("generation", 0)),
            **kwargs,
        )
        if updater._generation_number > 0:
            updater._last_report = updater._report(
                source, int(meta.get("last_day", 0)),
                int(meta.get("first_day", 0)),
            )
        return updater

    def _report(self, directory: Path, last_day: int, first_day: int):
        """What the serving process needs to install the current
        generation from ``directory``."""
        return {
            "number": self._generation_number,
            "dir": str(directory),
            "fingerprint": snapshot_fingerprint(directory),
            "applied_seq": self._applied_seq,
            "last_day": last_day,
            "first_day": first_day,
        }

    # -- state ---------------------------------------------------------------

    @property
    def window(self) -> ClickWindow:
        return self._window

    @property
    def applied_seq(self) -> int:
        return self._applied_seq

    @property
    def current_generation(self) -> int:
        return self._generation_number

    @property
    def last_report(self) -> Optional[Dict[str, Any]]:
        """The report of the newest generation written (or restarted
        from); None before the first."""
        return self._last_report

    @property
    def last_error(self) -> Optional[str]:
        return self._last_error

    def record_error(self, message: str) -> None:
        self._last_error = message

    def recover(self) -> int:
        """Apply every event the WAL holds past ``applied_seq``.

        Returns how many were newly applied. Recovered events count
        toward the next generation, so a fold killed mid-batch picks up
        exactly where durability left off.
        """
        self._fill()
        events = [event for event, _ in self._buffer]
        self._buffer.clear()
        return self._apply_events(events)

    def _apply_events(self, events: Iterable[IngestEvent]) -> int:
        """Fold events into the window, idempotently and defensively.

        An event the window cannot absorb — an unregistered ``query_id``
        with no ``query_text`` to register it under, or a ``day`` jump
        beyond ``max_day_skew`` (a single far-future day would purge
        the entire retention window) — is **skipped and counted**, not
        raised: one poison event must never kill its batch, and the
        WAL replays on every restart, so a raising apply would brick
        recovery permanently. ``applied_seq`` advances past skipped
        events so the decision is just as durable as an application.
        """
        applied = 0
        for event in events:
            if event.seq <= self._applied_seq:
                self._events_duplicate += 1
                continue
            self._applied_seq = event.seq
            if event.query_text is not None:
                # A known id keeps its original text (a conflicting live
                # redefinition still counts its clicks).
                self._inc.update_queries({event.query_id: event.query_text})
            head = self._window.last_day
            if head is not None and event.day > head + self._max_day_skew:
                self._events_skipped += 1
                self._last_error = (
                    f"skipped event seq={event.seq}: day {event.day} jumps "
                    f"more than {self._max_day_skew} past the window head "
                    f"{head} (would purge the retention window)"
                )
                continue
            if not self._inc.knows_query(event.query_id):
                self._events_skipped += 1
                self._last_error = (
                    f"skipped event seq={event.seq}: query "
                    f"{event.query_id} is not registered and the event "
                    "carried no query_text"
                )
                continue
            self._window.add_event(
                event.day, event.query_id, event.clicked_entity_ids
            )
            self._events_applied += 1
            self._pending_since_generation += 1
            applied += 1
        return applied

    # -- the micro-batch cycle -----------------------------------------------

    def _fill(self) -> None:
        now = self._clock()
        for event in self._reader.read():
            self._buffer.append((event, now))

    def _take_batch(self, timeout_s: float) -> list:
        """Up to ``batch_max_events`` read events, or whatever was read
        once the oldest has waited ``batch_max_age_s``.

        Waits up to ``timeout_s`` for the *first* event, then at most
        until the age threshold trips; ``[]`` on timeout.
        """
        deadline = self._clock() + timeout_s
        while True:
            self._fill()
            now = self._clock()
            if self._buffer:
                wait = self._buffer[0][1] + self._batch_max_age_s - now
                if len(self._buffer) >= self._batch_max_events or wait <= 0:
                    break
            else:
                wait = deadline - now
                if wait <= 0:
                    return []
            time.sleep(min(POLL_INTERVAL_S, wait))
        n = min(len(self._buffer), self._batch_max_events)
        return [self._buffer.popleft()[0] for _ in range(n)]

    def run_once(self, timeout_s: float = 1.0) -> Optional[Generation]:
        """One cycle: take a batch, apply it, maybe write a generation.

        Returns the new generation when one was written (enough events
        pending), else ``None``.
        """
        self._apply_events(self._take_batch(timeout_s))
        if self._pending_since_generation < self._min_batch_events:
            return None
        return self._advance_generation()

    def force_generation(self) -> Optional[Generation]:
        """Write a generation from whatever the WAL holds (drain hook)."""
        self.recover()
        if self._pending_since_generation == 0:
            return None
        return self._advance_generation()

    def _advance_generation(self) -> Generation:
        """Refit over the window and write the result as a generation."""
        number = self._generation_number + 1
        if self._on_fold is not None:
            self._on_fold(number)
        with traced(
            "updater.batch_fold",
            tags={
                "generation": str(number),
                "pending": str(self._pending_since_generation),
            },
        ):
            last_day = self._window.last_day or 0
            update = self._inc.advance(self._window, last_day)
            categories = self._inc.entity_categories
            target = self._write(number, update, last_day, categories)
        self._generation_number = number
        self._pending_since_generation = 0
        self._last_report = self._report(target, last_day, update.first_day)
        if self._on_generation is not None:
            self._on_generation(dict(self._last_report))
        self._prune()
        return Generation(
            number=number,
            serving=update.model.serving(categories),
            applied_seq=self._applied_seq,
            last_day=last_day,
            snapshot_dir=target,
        )

    def _write(self, number, update, last_day, categories) -> Path:
        """Save the generation under a ``.tmp`` name, then rename it in:
        a directory named ``gen-NNNNN`` is always complete."""
        target = self._generations_dir / f"gen-{number:05d}"
        staging = target.with_name(target.name + ".tmp")
        shutil.rmtree(staging, ignore_errors=True)
        update.model.save(
            staging,
            entity_categories=categories,
            metadata={
                "generation": number,
                "applied_seq": self._applied_seq,
                "last_day": last_day,
                "first_day": update.first_day,
                "fits_since_retrain": self._inc.fits_since_retrain,
            },
        )
        shutil.rmtree(target, ignore_errors=True)
        staging.rename(target)
        return target

    def _prune(self) -> None:
        """Keep the newest :data:`KEEP_GENERATIONS` generations."""
        for number, path in generation_dirs(self._generations_dir):
            if number <= self._generation_number - KEEP_GENERATIONS:
                shutil.rmtree(path, ignore_errors=True)

    # -- introspection -------------------------------------------------------

    def stats(self) -> UpdaterStats:
        return UpdaterStats(
            events_applied=self._events_applied,
            events_duplicate=self._events_duplicate,
            events_skipped=self._events_skipped,
            applied_seq=self._applied_seq,
            generations=self._generation_number,
            last_day=self._window.last_day,
        )

    def stats_dict(self) -> Dict[str, Any]:
        out = self.stats().to_dict()
        out["wal_head_seq"] = self._reader.head_seq
        if self._last_error is not None:
            out["last_error"] = self._last_error
        return out


# -- the child process ---------------------------------------------------------


class _Channel:
    """The report stream to the serving process: this process's original
    stdout, one JSON object per line. ``sys.stdout`` is pointed at
    stderr so nothing else can write into the stream."""

    def __init__(self) -> None:
        fd = os.dup(1)
        os.dup2(2, 1)
        sys.stdout = sys.stderr
        self._out = os.fdopen(fd, "w", encoding="utf-8")
        self._lock = threading.Lock()

    def send(self, kind: str, payload: Dict[str, Any]) -> None:
        line = json.dumps({"event": kind, **payload}, separators=(",", ":"))
        with self._lock:
            try:
                self._out.write(line + "\n")
                self._out.flush()
            except OSError:
                os._exit(0)  # the serving process is gone


class _ForwardingTracer(Tracer):
    """Sends each finished span tree to the serving process, whose
    tracer folds it (:meth:`Tracer.adopt`) as if it had run there."""

    def __init__(self, channel: _Channel) -> None:
        super().__init__(capacity=1)
        self._channel = channel

    def _close(self, ctx) -> None:
        spans = ctx.spans
        ctx.spans = ()
        root = spans[0]
        rows = [
            [
                span.name,
                span.parent,
                span.start,
                root.end if span.end is None else span.end,
                "cancelled" if span.end is None else span.status,
                "unfinished" if span.end is None else span.detail,
                {str(k): str(v) for k, v in (span.tags or {}).items()},
            ]
            for span in spans
        ]
        self._channel.send("trace", {"spans": rows})


def _exit_when_orphaned() -> None:
    """Block on stdin; the serving process never writes to it, so EOF
    means it closed the pipe or died."""
    try:
        sys.stdin.buffer.read()
    finally:
        os._exit(0)


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.streaming",
        description="The fold process of serve-http --ingest-wal.",
    )
    parser.add_argument("--load", required=True, metavar="DIR")
    parser.add_argument("--wal", required=True, metavar="DIR")
    parser.add_argument("--generations", required=True, metavar="DIR")
    parser.add_argument("--batch-events", type=int, required=True)
    parser.add_argument("--batch-age-s", type=float, required=True)
    parser.add_argument("--min-batch-events", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    channel = _Channel()
    # Ctrl-C reaches the whole process group; the serving process
    # decides when this one stops.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    threading.Thread(
        target=_exit_when_orphaned, name="shoal-fold-orphan", daemon=True
    ).start()
    if args.trace:
        set_default_tracer(_ForwardingTracer(channel))

    def report() -> Dict[str, Any]:
        return {**updater.stats_dict(), "cpu_s": time.process_time()}

    updater = StreamingUpdater.restart(
        args.load,
        args.wal,
        args.generations,
        batch_max_events=args.batch_events,
        batch_max_age_s=args.batch_age_s,
        min_batch_events=args.min_batch_events,
        on_fold=lambda number: channel.send(
            "fold", {**report(), "folding": number}
        ),
        on_generation=lambda record: channel.send(
            "generation", {**report(), "generation": record}
        ),
    )
    channel.send("ready", {**report(), "pid": os.getpid()})
    if updater.last_report is not None:
        # Announce the generation this process restarted from: the
        # serving process installs it unless it already has.
        channel.send("generation", {**report(), "generation": updater.last_report})
    updater.recover()
    while True:
        channel.send("progress", report())
        try:
            updater.run_once(timeout_s=1.0)
        except Exception as exc:  # noqa: BLE001 - keep folding
            updater.record_error(f"{type(exc).__name__}: {exc}")

