"""On-disk replication feed shared by primary, followers, coordinator.

The feed is a plain directory — the only coordination primitive in the
replication subsystem. Every file in it is written atomically
(tmp + rename via :func:`repro._util.atomic_write_json`), and every
generation directory is written under a ``.tmp`` name and renamed into
place before the index names it, so readers polling at any moment see
either the previous or the next complete version, never a torn one.
That makes the feed safe to serve over NFS, rsync, or object-store
sync without any locking.

Layout::

    FEED.json               manifest: format, nonce
    generations/gen-NNNNN/  one generation's serving files (save_serving);
                            gen-00000 is the snapshot the primary booted from
    GENERATIONS.json        generation index: seq boundary, fingerprint
    followers/<id>.json     per-follower status reports
    EPOCH.json              coordinator's swap broadcast

Every file has a reader: followers read the manifest, the generation
index, the generation directories and ``EPOCH.json``; the coordinator
reads the generation index, the follower reports and its own
``EPOCH.json``.

``FEED.json`` carries a random *nonce* minted when the feed is
initialised; shippers and followers remember it and refuse to operate
on a feed whose nonce changed underneath them — re-initialising a feed
directory for a different primary must not silently poison an existing
fleet.
"""

from __future__ import annotations

import json
import secrets
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro._util import atomic_write_json

FEED_FORMAT = "repro-replication-feed-v2"

MANIFEST_NAME = "FEED.json"
GENERATION_INDEX_NAME = "GENERATIONS.json"
EPOCH_NAME = "EPOCH.json"
GENERATIONS_DIR_NAME = "generations"
FOLLOWERS_DIR_NAME = "followers"


class FeedError(RuntimeError):
    """The feed directory is missing, foreign, or structurally invalid."""


class Feed:
    """Typed accessor for one replication feed directory."""

    def __init__(self, directory: Union[str, Path]):
        self.directory = Path(directory)

    # -- paths ---------------------------------------------------------

    @property
    def manifest_path(self) -> Path:
        return self.directory / MANIFEST_NAME

    @property
    def generations_dir(self) -> Path:
        return self.directory / GENERATIONS_DIR_NAME

    def generation_dir(self, number: int) -> Path:
        return self.generations_dir / f"gen-{number:05d}"

    @property
    def followers_dir(self) -> Path:
        return self.directory / FOLLOWERS_DIR_NAME

    @property
    def epoch_path(self) -> Path:
        return self.directory / EPOCH_NAME

    # -- manifest ------------------------------------------------------

    def initialise(self) -> Dict[str, Any]:
        """Create the feed skeleton and write the manifest.

        A fresh nonce is minted; the caller should persist the returned
        manifest's nonce and verify it on every subsequent touch.
        """
        self.directory.mkdir(parents=True, exist_ok=True)
        for sub in (self.generations_dir, self.followers_dir):
            sub.mkdir(exist_ok=True)
        payload = {"format": FEED_FORMAT, "nonce": secrets.token_hex(8)}
        atomic_write_json(self.manifest_path, payload)
        return payload

    def read_manifest(self) -> Dict[str, Any]:
        if not self.manifest_path.is_file():
            raise FeedError(
                f"{self.directory} is not a replication feed "
                f"(missing {MANIFEST_NAME})"
            )
        payload = _read_json(self.manifest_path)
        if payload.get("format") != FEED_FORMAT:
            raise FeedError(
                f"{self.manifest_path} has format {payload.get('format')!r}, "
                f"expected {FEED_FORMAT}"
            )
        return payload

    def check_nonce(self, nonce: str) -> None:
        current = self.read_manifest().get("nonce")
        if current != nonce:
            raise FeedError(
                f"feed {self.directory} was re-initialised "
                f"(nonce {current!r} != expected {nonce!r}); refusing to "
                "mix generations from different primaries"
            )

    # -- indexes -------------------------------------------------------

    def read_generation_index(self) -> List[Dict[str, Any]]:
        return _read_index(
            self.directory / GENERATION_INDEX_NAME, "generations"
        )

    def write_generation_index(self, entries: List[Dict[str, Any]]) -> None:
        atomic_write_json(
            self.directory / GENERATION_INDEX_NAME, {"generations": entries}
        )

    # -- follower reports / epoch --------------------------------------

    def write_follower_report(
        self, follower_id: str, report: Dict[str, Any]
    ) -> None:
        self.followers_dir.mkdir(parents=True, exist_ok=True)
        atomic_write_json(self.followers_dir / f"{follower_id}.json", report)

    def read_follower_reports(self) -> Dict[str, Dict[str, Any]]:
        reports: Dict[str, Dict[str, Any]] = {}
        if not self.followers_dir.is_dir():
            return reports
        for path in sorted(self.followers_dir.glob("*.json")):
            try:
                reports[path.stem] = _read_json(path)
            except FeedError:
                continue  # torn writes are impossible; skip foreign junk
        return reports

    def read_epoch(self) -> Optional[Dict[str, Any]]:
        if not self.epoch_path.is_file():
            return None
        return _read_json(self.epoch_path)

    def write_epoch(self, payload: Dict[str, Any]) -> None:
        atomic_write_json(self.epoch_path, payload)


def _read_json(path: Path) -> Dict[str, Any]:
    try:
        payload = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise FeedError(f"unreadable feed file {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise FeedError(f"feed file {path} is not a JSON object")
    return payload


def _read_index(path: Path, key: str) -> List[Dict[str, Any]]:
    if not path.is_file():
        return []
    payload = _read_json(path)
    entries = payload.get(key)
    if not isinstance(entries, list):
        raise FeedError(f"feed index {path} is missing {key!r}")
    return entries
