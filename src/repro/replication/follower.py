"""Follower: rebuild generations from a shipped feed, swap on epoch.

A follower owns no ingest path. Its inputs are exactly what the
:class:`~repro.replication.shipper.SegmentShipper` published:

* the **base snapshot** (``base/``) — byte-identical model weights and
  click window (``window.npz``) the primary booted from, so
  :class:`IncrementalShoal.from_model` plus the loaded window start
  both processes in the same state (same embeddings, same
  fits-since-retrain counter, same window), and the probe queries and
  category map come from the same files;
* the **feed manifest** — the primary's ``retrain_every`` and
  ``max_day_skew``, so every knob that shapes a refit matches;
* the **closed WAL segments** — the replication truth. The follower
  replays them through the *same* :class:`StreamingUpdater` machinery
  the primary runs, via a :class:`_FeedPipe` adapter that cuts batches
  at the exact ``applied_seq`` boundaries recorded per generation in
  ``GENERATIONS.json``. Same events, same order, same batch cuts, same
  poison-skip rules ⇒ byte-identical generation snapshots (the
  hypothesis suite pins this).

A follower is a **whole-model replica**: it serves one
:class:`~repro.api.backends.ServiceBackend` over the full model, never
a sharded tier, so horizontal scale is more followers, not more shards.

Built generations are **staged**, not served: the follower's
:class:`GenerationSwitch` only swaps when the coordinator broadcasts an
epoch naming a generation + fingerprint. A follower whose own build
disagrees with the broadcast fingerprint refuses the swap and reports
itself divergent; a follower whose post-swap health probes fail rolls
back to what it was serving and reports unhealthy. Readers on that
follower never see a torn or wrong model either way.
"""

from __future__ import annotations

import hashlib
import secrets
import threading
import time
from collections import OrderedDict
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.api.backends import ServiceBackend, ShoalBackend
from repro.api.contract import (
    BatchRequest,
    BatchResponse,
    RecommendRequest,
    RecommendResponse,
    SearchRequest,
    SearchResponse,
)
from repro.core.incremental import IncrementalShoal
from repro.core.serving import ShoalService
from repro.obs.tracer import traced
from repro.replication.feed import Feed, FeedError
from repro.store.persistence import (
    load_entity_categories,
    load_model,
    load_window,
    snapshot_fingerprint,
)
from repro.streaming.rollout import (
    Generation,
    GenerationSwitch,
    SwapError,
    probe_queries,
)
from repro.streaming.updater import StreamingUpdater
from repro.streaming.wal import IngestEvent, WalCorruption, WriteAheadLog

#: How many built generations a follower keeps staged (and reports
#: fingerprints for). The coordinator only ever compares recent ones.
STAGE_DEPTH = 16


class _WalView:
    """What :class:`StreamingUpdater` needs ``pipe.wal`` to be.

    The follower has no write-ahead log of its own — the *feed* is its
    log. Replay is empty (recovery is re-tailing the feed), compaction
    is a no-op (the primary owns segment lifecycle), and the directory
    just gives the updater somewhere to drop its progress checkpoint.
    """

    def __init__(self, directory: Path):
        self.directory = directory

    def replay(self, after_seq: int = 0):
        return iter(())

    def compact(self, retain_from_day: int) -> int:
        return 0

    def sync(self) -> None:
        pass


class _FeedPipe:
    """Batch source that replays shipped segments at primary boundaries.

    ``take_batch`` ignores size/age knobs: a batch is exactly the
    events ``(previous boundary, next generation's applied_seq]`` from
    ``GENERATIONS.json``, and is only released once shipped segments
    fully cover it. That makes the follower's updater produce the same
    generation sequence as the primary's — the determinism on which
    fingerprint quorum rests.
    """

    def __init__(self, workdir: Path):
        self.wal = _WalView(workdir)
        self._events: List[IngestEvent] = []  # buffered, seq-ascending
        self._targets: List[Dict[str, Any]] = []
        self._next_target = 0
        self._consumed_seq = 0
        self._loaded_seq = 0
        self._lock = threading.Lock()

    def extend_events(self, events: List[IngestEvent], max_seq: int) -> None:
        with self._lock:
            self._events.extend(events)
            self._loaded_seq = max(self._loaded_seq, max_seq)

    def set_targets(self, targets: List[Dict[str, Any]]) -> None:
        with self._lock:
            self._targets = targets

    def pending_target(self) -> Optional[Dict[str, Any]]:
        with self._lock:
            if self._next_target < len(self._targets):
                return self._targets[self._next_target]
            return None

    def take_batch(
        self,
        *,
        max_events: int = 256,
        max_age_s: float = 0.5,
        timeout_s: float = 1.0,
    ) -> List[IngestEvent]:
        del max_events, max_age_s, timeout_s  # boundary-cut, not size-cut
        with self._lock:
            if self._next_target >= len(self._targets):
                return []
            boundary = int(self._targets[self._next_target]["applied_seq"])
            if self._loaded_seq < boundary:
                return []  # segments not fully shipped yet — wait
            batch = [
                e
                for e in self._events
                if self._consumed_seq < e.seq <= boundary
            ]
            self._events = [e for e in self._events if e.seq > boundary]
            self._consumed_seq = boundary
            self._next_target += 1
            return batch


class Follower:
    """Tail a replication feed, rebuild generations, swap on epoch."""

    def __init__(
        self,
        feed_dir: Union[str, Path],
        workdir: Union[str, Path],
        *,
        follower_id: Optional[str] = None,
        poll_interval_s: float = 0.2,
    ):
        self._feed = Feed(feed_dir)
        self._workdir = Path(workdir)
        self._workdir.mkdir(parents=True, exist_ok=True)
        self.follower_id = follower_id or f"follower-{secrets.token_hex(4)}"
        self._poll_interval_s = poll_interval_s

        self._nonce: Optional[str] = None
        self._pipe: Optional[_FeedPipe] = None
        self._updater: Optional[StreamingUpdater] = None
        self._switch: Optional[GenerationSwitch] = None
        self._inner: Optional[ServiceBackend] = None
        self._backend: Optional["FollowerBackend"] = None

        self._staged: "OrderedDict[int, Generation]" = OrderedDict()
        self._fingerprints: "OrderedDict[int, str]" = OrderedDict()
        self._epoch = 0
        self._serving_generation = 0
        self._healthy = True
        self._divergent = False
        self._swap_failures = 0
        self._epoch_swaps = 0
        self._last_error: Optional[str] = None

        self._loaded_segments: Dict[str, str] = {}  # name -> sha256
        self._feed_segment_count = 0
        self._feed_generation_count = 0
        self._feed_max_seq = 0
        self._feed_boundary_seq = 0  # last published generation's seq

        self._lock = threading.RLock()
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()

    # -- bootstrap -----------------------------------------------------

    def bootstrap(self) -> "FollowerBackend":
        """Load the base snapshot and its click window, and stand up the
        serving tier + updater. Serves the base model immediately
        (epoch 0); generations arrive as the feed is tailed."""
        manifest = self._feed.read_manifest()
        self._nonce = manifest["nonce"]
        base = self._feed.base_dir
        try:
            window = load_window(base)
        except FileNotFoundError as exc:
            raise FeedError(f"cannot bootstrap from the feed: {exc}") from None
        # The maintainer refits from the whole model; readers get its view.
        model = load_model(base)
        cats = load_entity_categories(base) or {}
        inc = IncrementalShoal.from_model(
            model,
            entity_categories=cats,
            retrain_every=int(manifest.get("retrain_every", 7)),
        )
        baseline = Generation(
            number=0,
            serving=model.serving(cats),
            last_day=window.last_day or 0,
        )
        self._inner = ServiceBackend(ShoalService(baseline.serving))
        self._switch = GenerationSwitch(
            probe_queries=probe_queries(model.taxonomy), baseline=baseline
        ).attach(self._inner)

        self._pipe = _FeedPipe(self._workdir)
        self._updater = StreamingUpdater(
            inc,
            self._pipe,  # type: ignore[arg-type] - duck-typed pipe
            switch=None,  # staged: swaps happen on epoch broadcast only
            window=window,
            generations_dir=self._workdir / "generations",
            min_batch_events=1,
            max_day_skew=int(manifest.get("max_day_skew", 2)),
            on_generation=self._stage_generation,
        )
        self._backend = FollowerBackend(self, self._inner)
        return self._backend

    # -- feed tailing --------------------------------------------------

    def _sync_feed(self) -> None:
        assert self._pipe is not None and self._nonce is not None
        self._feed.check_nonce(self._nonce)
        segment_index = self._feed.read_segment_index()
        self._feed_segment_count = len(segment_index)
        for entry in segment_index:
            name = entry["name"]
            if name in self._loaded_segments:
                continue
            raw = (self._feed.segments_dir / name).read_bytes()
            digest = hashlib.sha256(raw).hexdigest()
            if digest != entry["sha256"]:
                raise FeedError(
                    f"shipped segment {name} checksum mismatch "
                    f"({digest[:12]} != {entry['sha256'][:12]})"
                )
            events: List[IngestEvent] = []
            for line in raw.splitlines():
                if not line:
                    continue
                try:
                    events.append(WriteAheadLog._decode_line(line))
                except WalCorruption as exc:
                    raise FeedError(
                        f"corrupt record in shipped segment {name}: {exc}"
                    ) from exc
            self._pipe.extend_events(events, int(entry["max_seq"]))
            self._loaded_segments[name] = digest
            self._feed_max_seq = max(
                self._feed_max_seq, int(entry["max_seq"])
            )
        generation_index = self._feed.read_generation_index()
        self._feed_generation_count = len(generation_index)
        self._feed_boundary_seq = max(
            (int(e["applied_seq"]) for e in generation_index), default=0
        )
        self._pipe.set_targets(generation_index)

    def _stage_generation(self, generation: Generation) -> None:
        """``on_generation`` hook: fingerprint + stage, never serve."""
        if generation.snapshot_dir is None:
            raise FeedError("follower updater ran without generations_dir")
        fingerprint = snapshot_fingerprint(generation.snapshot_dir)
        with self._lock:
            self._staged[generation.number] = generation
            self._fingerprints[generation.number] = fingerprint
            while len(self._staged) > STAGE_DEPTH:
                self._staged.popitem(last=False)
            while len(self._fingerprints) > STAGE_DEPTH:
                self._fingerprints.popitem(last=False)
            for entry in self._feed.read_generation_index():
                if int(entry["number"]) == generation.number:
                    if entry["fingerprint"] != fingerprint:
                        self._divergent = True
                        self._last_error = (
                            f"generation {generation.number} rebuilt with "
                            f"fingerprint {fingerprint[:12]} but primary "
                            f"shipped {entry['fingerprint'][:12]}"
                        )
                    break

    # -- epoch handling ------------------------------------------------

    def _apply_epoch(self) -> bool:
        epoch = self._feed.read_epoch()
        if epoch is None:
            return False
        number = int(epoch.get("epoch", 0))
        target = int(epoch.get("generation", 0))
        with self._lock:
            if number <= self._epoch:
                return False
            generation = self._staged.get(target)
            if generation is None:
                return False  # not built yet — retry next poll
            fingerprint = self._fingerprints.get(target)
            if fingerprint != epoch.get("fingerprint"):
                self._divergent = True
                self._last_error = (
                    f"refusing epoch {number}: local generation {target} "
                    f"fingerprint {str(fingerprint)[:12]} != broadcast "
                    f"{str(epoch.get('fingerprint'))[:12]}"
                )
                return False
            switch = self._switch
        assert switch is not None
        try:
            with traced(
                "follower.swap",
                tags={
                    "follower": self.follower_id,
                    "epoch": str(number),
                    "generation": str(target),
                },
            ):
                switch.swap(generation)
        except SwapError as exc:
            # The switch already rolled the tier back to what it was
            # serving; record the epoch as seen so one bad broadcast
            # cannot wedge the follower in a swap loop.
            with self._lock:
                self._swap_failures += 1
                self._healthy = False
                self._epoch = number
                self._last_error = f"epoch {number} swap failed: {exc}"
            return False
        with self._lock:
            self._epoch = number
            self._serving_generation = target
            self._epoch_swaps += 1
            self._healthy = True
        return True

    # -- reporting -----------------------------------------------------

    def _publish_report(self) -> None:
        assert self._updater is not None and self._pipe is not None
        with self._lock:
            report = {
                "follower_id": self.follower_id,
                "applied_seq": self._updater.applied_seq,
                "built_generation": self._updater.current_generation,
                "serving_generation": self._serving_generation,
                "epoch": self._epoch,
                "healthy": self._healthy,
                "divergent": self._divergent,
                "swap_failures": self._swap_failures,
                "fingerprints": {
                    str(n): fp for n, fp in self._fingerprints.items()
                },
                "ts": time.time(),
            }
        self._feed.write_follower_report(self.follower_id, report)

    # -- drive ---------------------------------------------------------

    def run_once(self, timeout_s: float = 0.0) -> Dict[str, Any]:
        """One replication cycle: tail feed, build, maybe swap, report."""
        if self._updater is None:
            raise RuntimeError("bootstrap() the follower before running it")
        built = 0
        try:
            self._sync_feed()
            # Build every boundary the feed already covers, not one per
            # poll: catch-up after a cold start must not be rate-limited
            # by the poll interval.
            while True:
                with traced(
                    "follower.replay",
                    tags={"follower": self.follower_id},
                ) as span:
                    generation = self._updater.run_once(timeout_s=timeout_s)
                    if generation is not None:
                        span.tag("generation", str(generation.number))
                if generation is None:
                    break
                built += 1
            swapped = self._apply_epoch()
        except FeedError as exc:
            with self._lock:
                self._healthy = False
                self._last_error = str(exc)
            swapped = False
        self._publish_report()
        return {"built": built, "swapped": swapped}

    def catch_up(self, timeout_s: float = 60.0) -> int:
        """Drive cycles until the feed is fully consumed (or timeout).

        Returns the number of generations built. "Fully consumed" means
        every generation in ``GENERATIONS.json`` is built and any
        pending epoch broadcast has been applied."""
        deadline = time.monotonic() + timeout_s
        built = 0
        while time.monotonic() < deadline:
            out = self.run_once()
            built += out["built"]
            assert self._pipe is not None
            if self._pipe.pending_target() is None and not out["swapped"]:
                epoch = self._feed.read_epoch()
                if epoch is None or int(epoch["epoch"]) <= self._epoch:
                    break
            time.sleep(0.01)
        return built

    def start(self) -> "Follower":
        if self._thread is not None:
            raise RuntimeError("follower already started")
        self._stop.clear()

        def loop() -> None:
            while not self._stop.is_set():
                try:
                    out = self.run_once()
                except Exception as exc:  # noqa: BLE001 - keep serving
                    self._last_error = f"{type(exc).__name__}: {exc}"
                    out = {"built": 0, "swapped": False}
                if not out["built"] and not out["swapped"]:
                    self._stop.wait(self._poll_interval_s)

        self._thread = threading.Thread(
            target=loop, name=f"shoal-{self.follower_id}", daemon=True
        )
        self._thread.start()
        return self

    def stop(self, timeout_s: float = 10.0) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=timeout_s)
            self._thread = None

    # -- introspection -------------------------------------------------

    @property
    def backend(self) -> Optional["FollowerBackend"]:
        return self._backend

    @property
    def switch(self) -> Optional[GenerationSwitch]:
        return self._switch

    @property
    def epoch(self) -> int:
        with self._lock:
            return self._epoch

    @property
    def serving_generation(self) -> int:
        with self._lock:
            return self._serving_generation

    def fingerprint_of(self, number: int) -> Optional[str]:
        with self._lock:
            return self._fingerprints.get(number)

    def stats(self) -> Dict[str, Any]:
        applied = (
            self._updater.applied_seq if self._updater is not None else 0
        )
        built = (
            self._updater.current_generation
            if self._updater is not None
            else 0
        )
        with self._lock:
            return {
                "role": "follower",
                "follower_id": self.follower_id,
                "feed_dir": str(self._feed.directory),
                "epoch": self._epoch,
                "serving_generation": self._serving_generation,
                "built_generation": built,
                "applied_seq": applied,
                "feed_seq": self._feed_max_seq,
                # Lag against the *published* frontier: segments shipped
                # past the last generation boundary are not applicable
                # yet (the primary itself has not cut them into a
                # generation), so they are not "behind".
                "seqs_behind": max(0, self._feed_boundary_seq - applied),
                "segments_behind": max(
                    0, self._feed_segment_count - len(self._loaded_segments)
                ),
                "generations_behind": max(
                    0, self._feed_generation_count - built
                ),
                "epoch_swaps": self._epoch_swaps,
                "swap_failures": self._swap_failures,
                "healthy": self._healthy,
                "divergent": self._divergent,
                **(
                    {"last_error": self._last_error}
                    if self._last_error
                    else {}
                ),
            }


class FollowerBackend(ShoalBackend):
    """The follower's serving tier behind the standard backend contract.

    Reads delegate to the wrapped :class:`ServiceBackend`, which the
    follower hot-swaps on epoch bumps; ``stats()`` folds in replication
    lag. ``replicated_backend`` is the duck-typed unwrap hook
    :func:`repro.streaming.rollout._engine_of` uses so a
    :class:`GenerationSwitch` attached to this backend swaps the inner
    engine (and treats a direct attachment of it as the same engine).
    """

    kind = "follower"

    def __init__(self, follower: Follower, inner: ServiceBackend):
        self._follower = follower
        self._inner = inner

    @property
    def replicated_backend(self) -> ServiceBackend:
        return self._inner

    @property
    def follower(self) -> Follower:
        return self._follower

    def search(self, request: SearchRequest) -> SearchResponse:
        return self._inner.search(request)

    def recommend(self, request: RecommendRequest) -> RecommendResponse:
        return self._inner.recommend(request)

    def batch(self, request: BatchRequest) -> BatchResponse:
        return self._inner.batch(request)

    def health(self) -> Dict[str, Any]:
        out = self._inner.health()
        out["backend"] = self.kind
        out["replication"] = {
            "epoch": self._follower.epoch,
            "healthy": self._follower.stats()["healthy"],
        }
        return out

    def stats(self) -> Dict[str, Any]:
        out = self._inner.stats()
        out["backend"] = self.kind
        out["replication"] = self._follower.stats()
        return out

    def categories_of_topic(self, topic_id: int) -> List[int]:
        return self._inner.categories_of_topic(topic_id)  # type: ignore[attr-defined]

    def close(self) -> None:
        self._follower.stop()
        self._inner.close()
