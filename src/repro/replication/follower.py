"""Follower: load the primary's generations from a feed, swap on epoch.

A follower owns no ingest path and folds no events. Its inputs are
exactly what the :class:`~repro.replication.shipper.GenerationShipper`
published: each generation's serving files under
``generations/gen-NNNNN/`` and their index, ``GENERATIONS.json``.

* **Generation 0** is the snapshot the primary booted from. The
  follower verifies it and serves it as soon as :meth:`bootstrap`
  returns; probe queries come from its taxonomy, as on the primary.
* **Every later generation** is verified as soon as it is indexed and
  whole: the follower recomputes the directory's
  :func:`~repro.store.persistence.snapshot_fingerprint` and compares it
  with the index entry. A mismatch — or a manifest that does not list
  exactly the files present — is a checksum refusal: the follower marks
  itself divergent, never reports that fingerprint, and never serves
  that generation.
* **A generation that is not all there yet** — its directory, its
  manifest or a file the manifest lists is missing, as when rsync ships
  ``GENERATIONS.json`` before ``generations/`` or an NFS client still
  caches the directory as absent — is checked again on the next poll.
  Meanwhile the follower reports itself unhealthy, so it does not vote.
* **A cold follower** checks only the generations it could still be
  asked to serve: the newest :data:`VERIFIED_DEPTH`, or from the one
  the current ``EPOCH.json`` names if that is older.

A follower is a **whole-model replica**: it serves one
:class:`~repro.api.backends.ServiceBackend` over the full model, never
a sharded tier, so horizontal scale is more followers, not more shards.

Verified generations are **not served** until the coordinator
broadcasts an epoch naming a generation + fingerprint; only then does
the follower :func:`~repro.store.persistence.load_serving` the named
generation, checks the loaded files against the verified fingerprint
once more, and swaps it in through its :class:`GenerationSwitch`. A
broadcast whose fingerprint disagrees with the verified one is refused
and marks the follower divergent; a follower whose post-swap health
probes fail rolls back to what it was serving and reports unhealthy.
Readers on that follower never see a torn or wrong model either way.
"""

from __future__ import annotations

import secrets
import threading
import time
from collections import OrderedDict
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Union

from repro.api.backends import ServiceBackend, ShoalBackend
from repro.api.contract import (
    BatchRequest,
    BatchResponse,
    RecommendRequest,
    RecommendResponse,
    SearchRequest,
    SearchResponse,
)
from repro.core.serving import ShoalService
from repro.obs.tracer import traced
from repro.replication.feed import Feed, FeedError
from repro.store.persistence import load_serving_verified, whole_fingerprint
from repro.streaming.rollout import (
    Generation,
    GenerationSwitch,
    SwapError,
    probe_queries,
)

#: How many verified generations a follower remembers (and reports
#: fingerprints for). The coordinator only ever compares recent ones.
VERIFIED_DEPTH = 16


class Follower:
    """Tail a replication feed, verify generations, load + swap on epoch."""

    def __init__(
        self,
        feed_dir: Union[str, Path],
        *,
        follower_id: Optional[str] = None,
        poll_interval_s: float = 0.2,
    ):
        self._feed = Feed(feed_dir)
        self.follower_id = follower_id or f"follower-{secrets.token_hex(4)}"
        self._poll_interval_s = poll_interval_s

        self._nonce: Optional[str] = None
        self._switch: Optional[GenerationSwitch] = None
        self._inner: Optional[ServiceBackend] = None
        self._backend: Optional["FollowerBackend"] = None

        #: Verified index entries, oldest first, keyed by number.
        self._verified: "OrderedDict[int, Dict[str, Any]]" = OrderedDict()
        self._indexed = 0  # index entries checked, verified or refused
        self._waiting: Optional[str] = None  # why the next one is not
        self._feed_boundary_seq = 0  # newest indexed generation's seq
        self._epoch = 0
        self._serving_generation = 0
        self._healthy = True
        self._divergent = False
        self._swap_failures = 0
        self._epoch_swaps = 0
        self._last_error: Optional[str] = None

        self._lock = threading.RLock()
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()

    # -- bootstrap -----------------------------------------------------

    def bootstrap(self) -> "FollowerBackend":
        """Verify and load generation 0, and stand up the serving tier.
        Serves it immediately (epoch 0); later generations arrive as
        the feed is tailed."""
        self._nonce = self._feed.read_manifest()["nonce"]
        index = self._feed.read_generation_index()
        if not index or int(index[0]["number"]) != 0:
            raise FeedError(
                f"feed {self._feed.directory} has not published "
                "generation 0 yet"
            )
        if not self._verify(index[0]):
            raise FeedError(
                f"cannot bootstrap: {self._waiting or self._last_error}"
            )
        baseline = self._load(index[0])
        self._indexed = _first_to_verify(index, self._feed.read_epoch())
        self._inner = ServiceBackend(ShoalService(baseline.serving))
        self._switch = GenerationSwitch(
            probe_queries=probe_queries(baseline.serving.taxonomy),
            baseline=baseline,
        ).attach(self._inner)
        self._backend = FollowerBackend(self, self._inner)
        return self._backend

    # -- feed tailing --------------------------------------------------

    def _sync_feed(self) -> int:
        """Verify, in order, the generations indexed since the last sync
        that are whole; returns how many passed."""
        assert self._nonce is not None
        self._feed.check_nonce(self._nonce)
        index = self._feed.read_generation_index()
        with self._lock:
            self._feed_boundary_seq = max(
                (int(e["applied_seq"]) for e in index), default=0
            )
        verified = 0
        for entry in index[self._indexed:]:
            outcome = self._verify(entry)
            if outcome is None:
                break  # not all there yet: check it again next poll
            verified += outcome
        return verified

    def _verify(self, entry: Dict[str, Any]) -> Optional[bool]:
        """Check one indexed generation's files against its fingerprint:
        True if they match, False if refused, None while incomplete."""
        number = int(entry["number"])
        try:
            fingerprint = whole_fingerprint(self._feed.generation_dir(number))
        except ValueError as exc:
            problem: Optional[str] = str(exc)
        else:
            if fingerprint is None:
                with self._lock:
                    self._waiting = (
                        f"generation {number} is not yet complete in the "
                        "feed; checking it again next poll"
                    )
                return None
            problem = (
                None
                if fingerprint == entry["fingerprint"]
                else f"files {fingerprint} != indexed {entry['fingerprint']}"
            )
        with self._lock:
            self._indexed += 1
            self._waiting = None
            if problem is not None:
                self._divergent = True
                self._last_error = (
                    f"generation {number} checksum mismatch: {problem}; "
                    "refusing to serve it"
                )
                return False
            self._verified[number] = entry
            while len(self._verified) > VERIFIED_DEPTH:
                self._verified.popitem(last=False)
            return True

    def _load(self, entry: Dict[str, Any]) -> Generation:
        """Load a verified generation; raises ``ValueError`` if the files
        it loaded from are no longer the ones that were verified."""
        number = int(entry["number"])
        directory = self._feed.generation_dir(number)
        with traced(
            "follower.load",
            tags={"follower": self.follower_id, "generation": str(number)},
        ):
            return Generation(
                number=number,
                serving=load_serving_verified(directory, entry["fingerprint"]),
                applied_seq=int(entry["applied_seq"]),
                last_day=int(entry["last_day"]),
            )

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
            entry = self._verified.get(target)
            if entry is None:
                return False  # not indexed yet (or refused) — retry next poll
            if entry["fingerprint"] != epoch.get("fingerprint"):
                self._divergent = True
                self._last_error = (
                    f"refusing epoch {number}: verified generation {target} "
                    f"fingerprint {str(entry['fingerprint'])[:12]} != "
                    f"broadcast {str(epoch.get('fingerprint'))[:12]}"
                )
                return False
            switch = self._switch
        assert switch is not None
        try:
            generation = self._load(entry)
            with traced(
                "follower.swap",
                tags={
                    "follower": self.follower_id,
                    "epoch": str(number),
                    "generation": str(target),
                },
            ):
                switch.swap(generation)
        except (SwapError, OSError, ValueError, KeyError) as exc:
            # A failed load never touched the tier, and a failed swap
            # was already rolled back to what it was serving; record the
            # epoch as seen so one bad broadcast cannot wedge the
            # follower in a swap loop.
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
        with self._lock:
            report = self.stats()
            report["fingerprints"] = {
                str(n): e["fingerprint"] for n, e in self._verified.items()
            }
        report["ts"] = time.time()
        self._feed.write_follower_report(self.follower_id, report)

    # -- drive ---------------------------------------------------------

    def run_once(self) -> Dict[str, Any]:
        """One replication cycle: verify new generations, maybe swap,
        report."""
        if self._switch is None:
            raise RuntimeError("bootstrap() the follower before running it")
        verified = 0
        try:
            verified = self._sync_feed()
            swapped = self._apply_epoch()
        except FeedError as exc:
            with self._lock:
                self._healthy = False
                self._last_error = str(exc)
            swapped = False
        self._publish_report()
        return {"verified": verified, "swapped": swapped}

    def catch_up(self, timeout_s: float = 60.0) -> int:
        """Drive cycles until one makes no progress (or timeout).

        Returns the number of generations verified. A cycle verifies
        every whole generation indexed so far, then applies the epoch
        broadcast if it names one of them; a generation that is not all
        there yet, or an epoch this follower refused, is left to the
        polling loop rather than waited for here."""
        deadline = time.monotonic() + timeout_s
        verified = 0
        while time.monotonic() < deadline:
            out = self.run_once()
            verified += out["verified"]
            if not out["verified"] and not out["swapped"]:
                break
        return verified

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
                    out = {"verified": 0, "swapped": False}
                if not out["verified"] and not out["swapped"]:
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
            entry = self._verified.get(number)
            return None if entry is None else entry["fingerprint"]

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            newest = next(reversed(self._verified.values()), None)
            applied = 0 if newest is None else int(newest["applied_seq"])
            return {
                "role": "follower",
                "follower_id": self.follower_id,
                "feed_dir": str(self._feed.directory),
                "epoch": self._epoch,
                "serving_generation": self._serving_generation,
                "verified_generation": (
                    0 if newest is None else int(newest["number"])
                ),
                "applied_seq": applied,
                # Lag of the newest verified generation behind the
                # newest indexed one: a refused generation stays behind.
                "seqs_behind": max(0, self._feed_boundary_seq - applied),
                "epoch_swaps": self._epoch_swaps,
                "swap_failures": self._swap_failures,
                "healthy": self._healthy and self._waiting is None,
                "divergent": self._divergent,
                **(
                    {"last_error": self._waiting or self._last_error}
                    if self._waiting or self._last_error
                    else {}
                ),
            }


def _first_to_verify(
    index: Sequence[Dict[str, Any]], epoch: Optional[Dict[str, Any]]
) -> int:
    """Where a cold follower starts checking ``index``: at the newest
    ``VERIFIED_DEPTH`` entries, or at the one ``epoch`` names if older;
    never before entry 1 (bootstrap checked generation 0)."""
    start = max(1, len(index) - VERIFIED_DEPTH)
    if epoch is not None:
        named = int(epoch.get("generation", 0))
        for position, entry in enumerate(index):
            if int(entry["number"]) == named:
                start = min(start, max(1, position))
    return start


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
