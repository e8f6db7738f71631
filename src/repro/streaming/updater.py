"""The micro-batch updater: WAL events → window slides → generations.

:class:`StreamingUpdater` is the single consumer of an
:class:`~repro.streaming.ingest.IngestPipe`. Each cycle it

1. takes one micro-batch (bounded by count *and* age),
2. folds the events into its :class:`~repro.graph.window.ClickWindow`
   (registering live-discovered query strings with the maintainer
   first) — idempotently, keyed on WAL sequence numbers, so replays
   never double-apply,
3. slides the :class:`~repro.core.incremental.IncrementalShoal` window
   to the newest ingested day, producing a fresh model,
4. stamps the result as a :class:`~repro.streaming.rollout.Generation`
   — persisted as a snapshot when ``generations_dir`` is set — and
   hands it to the :class:`~repro.streaming.rollout.GenerationSwitch`
   for a zero-downtime rollout,
5. checkpoints applied progress next to the WAL and compacts segments
   that fell out of the sliding window.

**Crash recovery.** The window starts as the one the serving model was
fitted on — the maintainer's model carries it, and a restarted process
reads it from the snapshot (``load_window``) — and :meth:`recover` then
replays the retained WAL into it. Because WAL append happens *before*
queue handoff and application is keyed by ``seq``, a process killed
anywhere — mid-batch, mid-advance, before the checkpoint — comes back
with exactly the admitted events, none lost, none doubled.

Run it synchronously (:meth:`run_once`, used by tests and the CLI) or
as a daemon thread (:meth:`start` / :meth:`stop`, used by
``serve-http --ingest-wal``).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, Optional, Union

from repro.core.incremental import IncrementalShoal
from repro.graph.window import ClickWindow
from repro.obs.tracer import traced
from repro.streaming.ingest import IngestPipe
from repro.streaming.rollout import Generation, GenerationSwitch, SwapError
from repro.streaming.wal import IngestEvent, write_checkpoint

__all__ = ["StreamingUpdater", "UpdaterStats"]


@dataclass(frozen=True)
class UpdaterStats:
    """Point-in-time progress counters of the updater."""

    events_applied: int
    events_duplicate: int
    events_skipped: int
    applied_seq: int
    generations: int
    swap_failures: int
    rollouts_skipped: int
    last_day: Optional[int]
    running: bool

    def to_dict(self) -> Dict[str, Any]:
        return {
            "events_applied": self.events_applied,
            "events_duplicate": self.events_duplicate,
            "events_skipped": self.events_skipped,
            "applied_seq": self.applied_seq,
            "generations": self.generations,
            "swap_failures": self.swap_failures,
            "rollouts_skipped": self.rollouts_skipped,
            "last_day": self.last_day,
            "running": self.running,
        }


class StreamingUpdater:
    """Drains the ingest pipe into model generations (one consumer).

    ``inc`` must already hold a fitted model (the *base* generation the
    read tier is serving). ``window`` is the click window that model was
    fitted on, by default the one it carries; a model loaded from a
    snapshot carries none, so pass ``load_window(dir)``. The updater
    folds events into its own copy. ``min_batch_events`` batches
    trickle traffic across cycles so a lone event does not trigger a
    full refit, while ``max_batch_age_s`` bounds how stale the window
    may get.
    """

    def __init__(
        self,
        inc: IncrementalShoal,
        pipe: IngestPipe,
        *,
        switch: Optional[GenerationSwitch] = None,
        window: Optional[ClickWindow] = None,
        generations_dir: Optional[Union[str, Path]] = None,
        batch_max_events: int = 256,
        batch_max_age_s: float = 0.5,
        min_batch_events: int = 1,
        max_day_skew: int = 2,
        drift_gate=None,
        on_generation=None,
    ):
        if inc.model is None:
            raise ValueError(
                "the IncrementalShoal must hold a fitted model before "
                "streaming updates start (advance() or from_model() first)"
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
        self._pipe = pipe
        self._switch = switch
        self._window = window.between()
        self._generations_dir = (
            None if generations_dir is None else Path(generations_dir)
        )
        self._batch_max_events = batch_max_events
        self._batch_max_age_s = batch_max_age_s
        self._min_batch_events = min_batch_events
        self._max_day_skew = max_day_skew

        #: Optional repro.analytics.DriftMonitor (duck-typed:
        #: should_skip(prev, new) + stats()); when set, a generation
        #: whose taxonomy partition is trivially different from what is
        #: serving is produced and checkpointed but NOT rolled out.
        self._drift_gate = drift_gate

        #: Optional callable(Generation) invoked after every advanced
        #: generation (e.g. a replication GenerationShipper's publish).
        #: Exceptions are contained.
        self._on_generation = on_generation

        self._applied_seq = 0
        self._events_applied = 0
        self._events_duplicate = 0
        self._events_skipped = 0
        self._pending_since_generation = 0
        self._generation_number = 0
        self._swap_failures = 0
        self._rollouts_skipped = 0
        self._last_error: Optional[str] = None
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._state_lock = threading.Lock()

    # -- state / recovery ----------------------------------------------------

    @property
    def window(self) -> ClickWindow:
        return self._window

    @property
    def switch(self) -> Optional[GenerationSwitch]:
        return self._switch

    @property
    def applied_seq(self) -> int:
        return self._applied_seq

    @property
    def current_generation(self) -> int:
        return self._generation_number

    def recover(self) -> int:
        """Replay the retained WAL into the window (idempotent by seq).

        Returns how many events were newly applied. Call once, before
        :meth:`start` — recovered events count
        toward the next generation, so a process killed mid-batch picks
        up exactly where durability left off.
        """
        with self._state_lock:
            return self._apply_events(self._pipe.wal.replay())

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

    def run_once(self, timeout_s: float = 1.0) -> Optional[Generation]:
        """One cycle: take a batch, apply it, maybe produce a generation.

        Returns the new generation when one was produced (enough events
        pending), else ``None``. Swap failures are counted and recorded
        but not raised — the read path keeps serving the previous
        generation, which is the whole point of the rollback design.
        """
        batch = self._pipe.take_batch(
            max_events=self._batch_max_events,
            max_age_s=self._batch_max_age_s,
            timeout_s=timeout_s,
        )
        with self._state_lock:
            self._apply_events(batch)
            if self._pending_since_generation < self._min_batch_events:
                return None
            return self._advance_generation()

    def force_generation(self) -> Optional[Generation]:
        """Produce a generation from whatever is pending (drain hook)."""
        with self._state_lock:
            if self._pending_since_generation == 0:
                return None
            return self._advance_generation()

    def _advance_generation(self) -> Generation:
        """Refit over the window and roll the result out."""
        with traced(
            "updater.batch_fold",
            tags={
                "generation": str(self._generation_number + 1),
                "pending": str(self._pending_since_generation),
            },
        ):
            return self._advance_generation_inner()

    def _advance_generation_inner(self) -> Generation:
        last_day = self._window.last_day or 0
        update = self._inc.advance(self._window, last_day)
        self._generation_number += 1
        number = self._generation_number
        categories = self._inc.entity_categories
        target = None
        if self._generations_dir is not None:
            target = self._generations_dir / f"gen-{number:05d}"
            update.model.save(
                target,
                entity_categories=categories,
                metadata={
                    "generation": number,
                    "applied_seq": self._applied_seq,
                    "last_day": last_day,
                },
            )
        generation = Generation(
            number=number,
            serving=update.model.serving(categories),
            applied_seq=self._applied_seq,
            last_day=last_day,
            snapshot_dir=target,
        )
        self._pending_since_generation = 0
        if self._switch is not None:
            skip_rollout = False
            previous = self._switch.current
            if self._drift_gate is not None and previous is not None:
                # A trivially-different generation is produced and
                # checkpointed (durability is unconditional) but not
                # rolled out: the swap's reference build + fleet-wide
                # cache invalidation buy no reader-visible change.
                try:
                    skip_rollout = self._drift_gate.should_skip(
                        previous, generation
                    )
                except Exception as exc:  # noqa: BLE001 - gate is advisory
                    self._last_error = (
                        f"drift gate failed ({type(exc).__name__}: {exc}); "
                        "rolling out unconditionally"
                    )
            if skip_rollout:
                self._rollouts_skipped += 1
            else:
                try:
                    self._switch.swap(generation)
                except SwapError as exc:
                    self._swap_failures += 1
                    self._last_error = str(exc)
        # Operator-facing progress record, NOT a recovery cursor: the
        # window rebuilds from the snapshot's window plus the full
        # retained WAL on every restart, so the
        # checkpoint exists to tell an operator — atomically, next to
        # the log — which WAL seq the last shipped generation covered.
        write_checkpoint(
            self._pipe.wal.directory,
            {
                "applied_seq": generation.applied_seq,
                "generation": generation.number,
                "last_day": generation.last_day,
            },
        )
        if self._on_generation is not None:
            try:
                self._on_generation(generation)
            except Exception as exc:  # noqa: BLE001 - subscriber is advisory
                self._last_error = (
                    f"on_generation hook failed "
                    f"({type(exc).__name__}: {exc})"
                )
        # Events older than the new window can never be refit again.
        self._pipe.wal.compact(update.first_day)
        return generation

    # -- background operation ------------------------------------------------

    def start(self) -> "StreamingUpdater":
        """Run the micro-batch loop on a daemon thread; returns self."""
        if self._thread is not None:
            raise RuntimeError("updater already started")
        self._stop.clear()

        def loop() -> None:
            while not self._stop.is_set():
                try:
                    self.run_once(timeout_s=0.25)
                except Exception as exc:  # noqa: BLE001 - keep serving
                    self._last_error = f"{type(exc).__name__}: {exc}"

        self._thread = threading.Thread(
            target=loop, name="shoal-streaming-updater", daemon=True
        )
        self._thread.start()
        return self

    def stop(self, *, drain: bool = True, timeout_s: float = 30.0) -> None:
        """Stop the loop; with ``drain`` apply EVERY still-queued event
        (they were all acknowledged as durable) and ship one final
        generation covering them."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=timeout_s)
            self._thread = None
        if drain:
            while True:
                batch = self._pipe.take_batch(
                    max_events=self._batch_max_events,
                    max_age_s=0.0,
                    timeout_s=0.0,
                )
                if not batch:
                    break
                with self._state_lock:
                    self._apply_events(batch)
            self.force_generation()

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    @property
    def last_error(self) -> Optional[str]:
        return self._last_error

    # -- introspection -------------------------------------------------------

    def stats(self) -> UpdaterStats:
        # Under the state lock: the metrics endpoint scrapes from HTTP
        # threads while the updater thread mutates the window, and an
        # unlocked last_day iterates its day dict mid-insert.
        with self._state_lock:
            return UpdaterStats(
                events_applied=self._events_applied,
                events_duplicate=self._events_duplicate,
                events_skipped=self._events_skipped,
                applied_seq=self._applied_seq,
                generations=self._generation_number,
                swap_failures=self._swap_failures,
                rollouts_skipped=self._rollouts_skipped,
                last_day=self._window.last_day,
                running=self.running,
            )

    def stats_dict(self) -> Dict[str, Any]:
        out = self.stats().to_dict()
        if self._switch is not None:
            out["switch"] = self._switch.stats()
        if self._drift_gate is not None:
            out["drift"] = self._drift_gate.stats()
        if self._last_error is not None:
            out["last_error"] = self._last_error
        return out
