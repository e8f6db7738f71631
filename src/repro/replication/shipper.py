"""Primary-side publisher: each generation's serving files + an index.

The :class:`GenerationShipper` hangs off the primary's
:class:`~repro.streaming.updater.StreamingUpdater` via its
``on_generation`` hook. Every time the updater advances a generation
the shipper:

1. **writes the generation's serving files** (what
   :func:`~repro.store.persistence.save_serving` writes) into
   ``generations/gen-NNNNN.tmp`` and renames the directory into place,
   so a reader never sees a half-written generation;
2. **appends the generation to** ``GENERATIONS.json``: its
   ``applied_seq`` cut and ``last_day``, and the
   :func:`~repro.store.persistence.snapshot_fingerprint` of the
   directory it just wrote, which followers verify before loading and
   the epoch coordinator compares across followers.

The snapshot the primary booted from is shipped the same way, as
generation 0, when the feed is initialised. Followers load these files;
they never fold events themselves.

The shipper remembers the feed nonce minted at :meth:`initialise` time
and re-verifies it on every publish, refusing to write into a feed that
some other primary re-initialised underneath it.
"""

from __future__ import annotations

import shutil
import threading
import time
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.obs.tracer import traced
from repro.replication.feed import Feed, FeedError
from repro.store.persistence import save_serving, snapshot_fingerprint
from repro.streaming.rollout import Generation


class GenerationShipper:
    """Publish a primary's generations and their index to a feed.

    Parameters
    ----------
    feed_dir:
        Feed directory; created/initialised by :meth:`initialise`.
    baseline:
        The generation the primary serves at boot (the ``--load``
        snapshot), shipped as generation 0 so followers start from
        byte-identical serving files.
    """

    def __init__(self, feed_dir: Union[str, Path], baseline: Generation):
        self._feed = Feed(feed_dir)
        self._baseline = baseline
        self._nonce: Optional[str] = None
        self._lock = threading.Lock()
        self._generation_entries: list = []
        self._stats: Dict[str, Any] = {
            "generations_published": 0,
            "generation_bytes": 0,
            "last_publish_s": None,
            "errors": 0,
        }

    @property
    def feed(self) -> Feed:
        return self._feed

    def initialise(self) -> Dict[str, Any]:
        """Create the feed: manifest, then generation 0 and its index."""
        with self._lock:
            manifest = self._feed.initialise()
            self._nonce = manifest["nonce"]
            # Stale state from a previous feed incarnation must not leak
            # into this one: the index restarts empty, the generation
            # directories, the epoch broadcast and follower reports are
            # cleared.
            self._feed.write_generation_index([])
            self._generation_entries = []
            for stale in self._feed.generations_dir.iterdir():
                shutil.rmtree(stale)
            self._feed.epoch_path.unlink(missing_ok=True)
            for stale in self._feed.followers_dir.glob("*.json"):
                stale.unlink()
            self._ship(self._baseline)
            return manifest

    # -- publishing ----------------------------------------------------

    def publish_generation(self, generation: Generation) -> Dict[str, Any]:
        """Ship ``generation``'s serving files and index entry.

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
            entry = self._ship(generation)
            self._stats["generations_published"] += 1
            self._stats["generation_bytes"] += sum(
                p.stat().st_size
                for p in self._feed.generation_dir(entry["number"]).iterdir()
            )
            self._stats["last_publish_s"] = time.monotonic() - started
            return dict(entry)

    def _ship(self, generation: Generation) -> Dict[str, Any]:
        """Write one generation directory, then index it (caller locks)."""
        target = self._feed.generation_dir(generation.number)
        staging = target.with_name(target.name + ".tmp")
        save_serving(generation.serving, staging)
        staging.rename(target)
        entry = {
            "number": generation.number,
            "applied_seq": generation.applied_seq,
            "last_day": generation.last_day,
            "fingerprint": snapshot_fingerprint(target),
        }
        self._generation_entries.append(entry)
        self._feed.write_generation_index(list(self._generation_entries))
        return entry

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            out = dict(self._stats)
            out["feed_dir"] = str(self._feed.directory)
            out["role"] = "primary"
            return out
