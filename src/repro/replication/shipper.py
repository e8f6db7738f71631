"""Primary-side publisher: closed WAL segments + a generation index.

The :class:`SegmentShipper` hangs off the primary's
:class:`~repro.streaming.updater.StreamingUpdater` via its
``on_generation`` hook. Every time the updater advances a generation
the shipper:

1. **rolls the primary WAL** (:meth:`WriteAheadLog.roll`) so the events
   that produced this generation land in a *closed* — hence immutable,
   hence shippable — segment. This bounds publish lag deterministically:
   a follower never waits for an active segment to fill up;
2. **copies every not-yet-shipped closed segment** into the feed with a
   SHA-256 recorded in ``SEGMENTS.json`` (followers verify the copy);
3. **appends the generation to** ``GENERATIONS.json``: its
   ``applied_seq`` cut, which tells followers where to end the batch,
   and the :func:`~repro.store.persistence.snapshot_fingerprint` of its
   snapshot directory, which the epoch coordinator compares across
   followers. Followers rebuild the snapshot themselves, so no model
   bytes are shipped past the base snapshot.

Shipping happens on the updater's batch thread, *after* the swap and
*before* WAL compaction, so the segments backing a just-published
generation are guaranteed to still exist when copied.

The shipper remembers the feed nonce minted at :meth:`initialise` time
and re-verifies it on every publish, refusing to write into a feed that
some other primary re-initialised underneath it.
"""

from __future__ import annotations

import hashlib
import threading
import time
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro._util import atomic_write_bytes
from repro.obs.tracer import traced
from repro.replication.feed import Feed, FeedError
from repro.store.persistence import snapshot_fingerprint
from repro.streaming.rollout import Generation
from repro.streaming.wal import WriteAheadLog


class SegmentShipper:
    """Publish a primary's WAL segments and generation index to a feed.

    Parameters
    ----------
    wal:
        The primary's write-ahead log (rolled on publish).
    feed_dir:
        Feed directory; created/initialised by :meth:`initialise`.
    base_snapshot_dir:
        The snapshot the primary booted from (``--load``); copied into
        the feed's ``base/`` so followers can bootstrap their own
        incremental pipeline from byte-identical weights and click
        window.
    manifest:
        Deterministic-rebuild parameters for followers: the refit knobs
        ``retrain_every`` and ``max_day_skew``.
    """

    def __init__(
        self,
        wal: WriteAheadLog,
        feed_dir: Union[str, Path],
        *,
        base_snapshot_dir: Union[str, Path],
        manifest: Dict[str, Any],
    ):
        self._wal = wal
        self._feed = Feed(feed_dir)
        self._base_snapshot_dir = Path(base_snapshot_dir)
        self._manifest_extra = dict(manifest)
        self._nonce: Optional[str] = None
        self._lock = threading.Lock()
        self._shipped_segments: Dict[str, str] = {}  # name -> sha256
        self._segment_entries: list = []
        self._generation_entries: list = []
        self._stats: Dict[str, Any] = {
            "segments_shipped": 0,
            "generations_published": 0,
            "segment_bytes": 0,
            "last_publish_s": None,
            "errors": 0,
        }

    @property
    def feed(self) -> Feed:
        return self._feed

    def initialise(self) -> Dict[str, Any]:
        """Create the feed: manifest, base snapshot copy, empty indexes."""
        with self._lock:
            manifest = self._feed.initialise(self._manifest_extra)
            self._nonce = manifest["nonce"]
            # Stale state from a previous feed incarnation must not leak
            # into this one: indexes restart empty, the epoch broadcast
            # and follower reports are cleared.
            self._feed.write_segment_index([])
            self._feed.write_generation_index([])
            if self._feed.epoch_path.exists():
                self._feed.epoch_path.unlink()
            for stale in self._feed.followers_dir.glob("*.json"):
                stale.unlink()
            for src in sorted(self._base_snapshot_dir.iterdir()):
                if src.is_file() and not src.name.endswith(".tmp"):
                    atomic_write_bytes(
                        self._feed.base_dir / src.name, src.read_bytes()
                    )
            return manifest

    # -- publishing ----------------------------------------------------

    def publish_generation(self, generation: Generation) -> Dict[str, Any]:
        """Ship everything needed for followers to rebuild ``generation``.

        This is the :class:`StreamingUpdater` ``on_generation`` hook.
        Exceptions are contained (counted in ``stats()['errors']``) so a
        sick feed volume degrades replication, never the primary's
        ingest path.
        """
        try:
            return self._publish(generation)
        except (FeedError, OSError) as exc:
            with self._lock:
                self._stats["errors"] += 1
                self._stats["last_error"] = str(exc)
            return {"published": False, "error": str(exc)}

    def _publish(self, generation: Generation) -> Dict[str, Any]:
        started = time.monotonic()
        with traced(
            "replication.publish",
            tags={"generation": str(generation.number)},
        ), self._lock:
            if self._nonce is None:
                raise FeedError("shipper used before initialise()")
            self._feed.check_nonce(self._nonce)

            # 1. Close the active segment so this generation's events
            #    are shippable right now.
            self._wal.roll()

            # 2. Copy any closed segments we have not shipped yet.
            for meta in self._wal.closed_segments():
                path: Path = meta["path"]
                if path.name in self._shipped_segments:
                    continue
                raw = path.read_bytes()
                digest = hashlib.sha256(raw).hexdigest()
                atomic_write_bytes(self._feed.segments_dir / path.name, raw)
                self._shipped_segments[path.name] = digest
                self._segment_entries.append(
                    {
                        "name": path.name,
                        "sha256": digest,
                        "size": len(raw),
                        "n_events": meta["n_events"],
                        "min_seq": meta["min_seq"],
                        "max_seq": meta["max_seq"],
                        "max_day": meta["max_day"],
                    }
                )
                self._stats["segments_shipped"] += 1
                self._stats["segment_bytes"] += len(raw)
            self._feed.write_segment_index(list(self._segment_entries))

            # 3. Index the generation's cut and fingerprint.
            entry = self._generation_entry(generation)
            self._generation_entries.append(entry)
            self._feed.write_generation_index(list(self._generation_entries))

            self._stats["generations_published"] += 1
            self._stats["last_publish_s"] = time.monotonic() - started
            return dict(entry)

    @staticmethod
    def _generation_entry(generation: Generation) -> Dict[str, Any]:
        snapshot_dir = (
            Path(generation.snapshot_dir) if generation.snapshot_dir else None
        )
        if snapshot_dir is None or not snapshot_dir.is_dir():
            raise FeedError(
                f"generation {generation.number} has no snapshot directory; "
                "run the updater with generations_dir= to enable shipping"
            )
        return {
            "number": generation.number,
            "applied_seq": generation.applied_seq,
            "last_day": generation.last_day,
            "fingerprint": snapshot_fingerprint(snapshot_dir),
        }

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            out = dict(self._stats)
            out["feed_dir"] = str(self._feed.directory)
            out["role"] = "primary"
            return out
