"""Epoch coordinator: quorum over follower fingerprints, swap broadcast.

The coordinator is deliberately tiny and stateless-restartable: all of
its inputs (``GENERATIONS.json``, ``followers/*.json``) and its single
output (``EPOCH.json``) live in the feed directory, atomically written.
It runs either embedded in the primary's serve loop (the default for
``serve-http --ship-feed``) or as its own process.

Decision rule, evaluated per tick:

1. read the shipper's generation index — each entry carries the
   primary's answer-surface fingerprint for that generation;
2. read every follower report; a follower **counts toward quorum at
   generation G** iff it is healthy, not divergent, and its reported
   fingerprint for G equals the primary's. Reports come from other
   processes, so one whose ``fingerprints`` is not an object keyed by
   generation numbers, or whose ``ts`` is not a finite number, does not
   vote and is counted as ``malformed``; it never stops the coordinator;
3. pick the **highest** G past the currently broadcast epoch's
   generation with at least ``quorum`` agreeing followers, and write
   ``EPOCH.json`` with ``epoch+1`` naming G and its fingerprint.

Followers swap only on that broadcast, so the fleet moves in lockstep:
either a quorum proved it holds byte-identical files, or nobody moves.
A follower that disagrees (divergent fingerprint) simply never counts —
it keeps serving its last healthy epoch and is visible in ``stats()``.
"""

from __future__ import annotations

import math
import time
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.replication.feed import Feed, FeedError


class EpochCoordinator:
    """Broadcast epoch bumps once a follower quorum agrees."""

    def __init__(
        self,
        feed_dir: Union[str, Path],
        *,
        quorum: int = 1,
        stale_after_s: float = 30.0,
    ):
        if quorum < 1:
            raise ValueError(f"quorum must be >= 1, got {quorum}")
        self._feed = Feed(feed_dir)
        self._quorum = quorum
        self._stale_after_s = stale_after_s
        self._epochs_broadcast = 0
        self._last_decision: Optional[Dict[str, Any]] = None

    @property
    def feed(self) -> Feed:
        return self._feed

    def current_epoch(self) -> Dict[str, Any]:
        epoch = self._feed.read_epoch()
        return epoch if epoch is not None else {"epoch": 0, "generation": 0}

    def tick(self, now: Optional[float] = None) -> Optional[Dict[str, Any]]:
        """Evaluate the quorum rule once; returns the broadcast (or None).

        ``now`` is injectable for tests; defaults to ``time.time()``.
        """
        now = time.time() if now is None else now
        generations = self._feed.read_generation_index()
        if not generations:
            return None
        primary_fp = {
            int(g["number"]): g["fingerprint"] for g in generations
        }
        current = self.current_epoch()
        floor = int(current.get("generation", 0))

        votes: Dict[int, int] = {}
        reports = self._feed.read_follower_reports()
        live_followers = 0
        malformed = 0
        for report in reports.values():
            ts = report.get("ts")
            if not _is_finite_number(ts):
                # Without a usable ts a report can never go stale, so
                # it would vote forever; it is malformed, not live.
                malformed += 1
                continue
            if now - ts > self._stale_after_s:
                continue  # process is gone; its old report must not vote
            live_followers += 1
            if not report.get("healthy", False) or report.get("divergent"):
                continue
            reported = _reported_fingerprints(report)
            if reported is None:
                malformed += 1
                continue
            for number, fingerprint in reported.items():
                if number > floor and primary_fp.get(number) == fingerprint:
                    votes[number] = votes.get(number, 0) + 1

        agreed = [n for n, count in votes.items() if count >= self._quorum]
        self._last_decision = {
            "live_followers": live_followers,
            "malformed": malformed,
            "votes": {str(n): c for n, c in sorted(votes.items())},
            "floor": floor,
        }
        if not agreed:
            return None
        target = max(agreed)
        broadcast = {
            "epoch": int(current.get("epoch", 0)) + 1,
            "generation": target,
            "fingerprint": primary_fp[target],
            "quorum": self._quorum,
            "votes": votes[target],
            "ts": now,
        }
        self._feed.write_epoch(broadcast)
        self._epochs_broadcast += 1
        return broadcast

    def stats(self) -> Dict[str, Any]:
        current = self.current_epoch()
        out: Dict[str, Any] = {
            "role": "coordinator",
            "quorum": self._quorum,
            "epoch": int(current.get("epoch", 0)),
            "generation": int(current.get("generation", 0)),
            "epochs_broadcast": self._epochs_broadcast,
        }
        if self._last_decision is not None:
            out["last_decision"] = self._last_decision
        return out


def _is_finite_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and math.isfinite(value)


def _reported_fingerprints(report: Dict[str, Any]) -> Optional[Dict[int, Any]]:
    """A report's ``{generation: fingerprint}``, or None if malformed."""
    fingerprints = report.get("fingerprints", {})
    if not isinstance(fingerprints, dict):
        return None
    if not all(key.isascii() and key.isdigit() for key in fingerprints):
        return None
    return {int(key): fp for key, fp in fingerprints.items()}


def coordinator_loop(
    coordinator: EpochCoordinator,
    *,
    stop,
    interval_s: float = 0.5,
) -> None:
    """Drive :meth:`EpochCoordinator.tick` until ``stop`` is set.

    ``stop`` is a :class:`threading.Event` (duck-typed: ``is_set`` +
    ``wait``). Feed errors are tolerated — a transiently unreadable
    index just skips a tick."""
    while not stop.is_set():
        try:
            coordinator.tick()
        except FeedError:
            pass
        stop.wait(interval_s)
