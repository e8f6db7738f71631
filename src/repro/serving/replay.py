"""Traffic replay: load-testing a service or cluster with real workloads.

Production query streams are not uniform: a few head queries dominate
(Zipf), traffic arrives in bursts, the head drifts as trends move, and
some of the stream is adversarial to caches. :class:`TrafficReplayer`
replays such workloads — built from the marketplace's own query set
(:mod:`repro.data.queries`) and scenario structure
(:mod:`repro.data.scenarios`) — against the typed gateway contract: a
:class:`~repro.api.backends.ShoalBackend` (including
:class:`~repro.api.http.ShoalClient` for a remote gateway) is driven
as-is; a raw :class:`~repro.core.serving.ShoalService` or
:class:`~repro.serving.router.ClusterRouter` is wrapped in the
matching backend adapter at construction; a string target is treated
as a backend URI and resolved through :func:`repro.api.open_backend`
(``snapshot:DIR`` / ``cluster:DIR`` / ``http://host:port``). One
replayer drives every tier, local or remote, through one dispatch
path.

Workload profiles:

``steady``
    i.i.d. Zipf-skewed draws over the query pool — the baseline shape.
``bursty``
    the same Zipf head, but each drawn query repeats for a burst
    (trending queries hammer the tier in runs, the cache-friendliest
    real pattern).
``drifting``
    the Zipf rank order rotates every ``drift_every`` requests, so the
    hot head moves through the pool — yesterday's tail is today's
    trend, stressing cache eviction.
``adversarial``
    cache-hostile: every request is a distinct query string. Odd
    requests are real queries salted with their own tokens (so they
    still retrieve, but never repeat); even requests are nonsense
    scenario-flavoured tokens that match nothing — the worst case for
    both the result cache and the token → shard index.

Arrival models:

``closed`` (the default)
    each worker issues its next request only after the previous answer
    returns. Simple, but latency-biased: when the server slows down,
    the workload slows down with it, so the worst moments are sampled
    *least* (coordinated omission).
``open``
    request *i* is scheduled at ``t0 + i/rate`` regardless of how the
    server is doing, and its latency is measured from that scheduled
    instant — queueing delay included. This is how real traffic
    arrives; a saturated tier shows up as growing tail latency instead
    of silently shrinking throughput.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro._util import ensure_rng
from repro.api.contract import ApiError, SearchRequest
from repro.api.cache import CacheStats
from repro.data.queries import Query
from repro.data.scenarios import Scenario
from repro.data.zipf import zipf_weights
from repro.serving.stats import LatencySummary, RequestStats

__all__ = [
    "WorkloadConfig",
    "ReplayReport",
    "TrafficReplayer",
    "build_workload",
    "build_write_workload",
    "WORKLOAD_PROFILES",
]

WORKLOAD_PROFILES = ("steady", "bursty", "drifting", "adversarial")


@dataclass(frozen=True)
class WorkloadConfig:
    """Shape of a replay workload.

    ``pool_variants`` expands the distinct-query pool: each base query
    spawns that many textual variants built by repeating its own first
    token (``"beach dress"`` → ``"beach dress beach"``, …). A variant
    introduces no new term, so shard routing and the candidate set
    stay exactly those of the base query, while cache keys multiply —
    the many-distinct-strings, few-distinct-intents shape of a real
    query log.
    """

    n_requests: int = 1000
    profile: str = "steady"
    zipf_exponent: float = 1.1
    burst_length: int = 16
    drift_every: int = 200
    pool_variants: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.profile not in WORKLOAD_PROFILES:
            raise ValueError(
                f"unknown workload profile {self.profile!r}; "
                f"expected one of {WORKLOAD_PROFILES}"
            )
        if self.n_requests < 1:
            raise ValueError("n_requests must be >= 1")
        if self.burst_length < 1:
            raise ValueError("burst_length must be >= 1")
        if self.drift_every < 1:
            raise ValueError("drift_every must be >= 1")
        if self.pool_variants < 1:
            raise ValueError("pool_variants must be >= 1")


def _query_pool(
    queries: Sequence[Query], variants: int, rng
) -> List[str]:
    """Distinct query strings, optionally expanded with salted variants."""
    base = sorted({q.text for q in queries})
    if variants == 1:
        pool = list(base)
    else:
        pool = []
        for text in base:
            first = text.split()[0]
            pool.append(text)
            for r in range(1, variants):
                pool.append(text + (" " + first) * r)
    # Shuffle so Zipf rank is not correlated with query id order.
    order = rng.permutation(len(pool))
    return [pool[i] for i in order]


def build_workload(
    queries: Sequence[Query],
    scenarios: Sequence[Scenario] = (),
    config: WorkloadConfig = WorkloadConfig(),
) -> List[str]:
    """The request stream: ``config.n_requests`` query strings in order."""
    rng = ensure_rng(config.seed)
    pool = _query_pool(queries, config.pool_variants, rng)
    if not pool and config.profile != "adversarial":
        raise ValueError("cannot build a workload from an empty query set")
    n = config.n_requests

    if config.profile == "steady":
        weights = zipf_weights(len(pool), config.zipf_exponent)
        picks = rng.choice(len(pool), size=n, p=weights)
        return [pool[i] for i in picks]

    if config.profile == "bursty":
        weights = zipf_weights(len(pool), config.zipf_exponent)
        out: List[str] = []
        while len(out) < n:
            q = pool[int(rng.choice(len(pool), p=weights))]
            burst = 1 + int(rng.integers(config.burst_length))
            out.extend([q] * burst)
        return out[:n]

    if config.profile == "drifting":
        weights = zipf_weights(len(pool), config.zipf_exponent)
        out = []
        offset = 0
        for start in range(0, n, config.drift_every):
            count = min(config.drift_every, n - start)
            picks = rng.choice(len(pool), size=count, p=weights)
            out.extend(pool[(int(i) + offset) % len(pool)] for i in picks)
            # Rotate the rank order: a new head becomes hot.
            offset += max(1, len(pool) // 7)
        return out

    # adversarial: unique strings only — real-but-salted and pure-miss.
    names = [s.name for s in scenarios] or ["probe"]
    out = []
    for i in range(n):
        if i % 2 and pool:
            text = pool[int(rng.integers(len(pool)))]
            out.append(f"{text} {text.split()[0]}{i}x")
        else:
            name = names[int(rng.integers(len(names)))]
            out.append(f"{name}-miss-{i}-zzq")
    return out


def build_write_workload(
    query_log,
    n_events: int,
    *,
    day: Optional[int] = None,
    seed: int = 0,
) -> List[dict]:
    """Wire-shaped ingest events sampled from a generated query log.

    Each element is a ``POST /v1/ingest`` payload (``day`` / ``user_id``
    / ``query_id`` / ``clicked``). Sampling real events keeps the write
    stream statistically faithful to the read stream — the same Zipf
    head, the same click structure. ``day`` re-stamps every event (the
    usual case: replaying history as *today's* live traffic).
    """
    rng = ensure_rng(seed)
    events = query_log.events
    if not events:
        raise ValueError("cannot build a write workload from an empty log")
    out: List[dict] = []
    for _ in range(n_events):
        e = events[int(rng.integers(len(events)))]
        out.append(
            {
                "day": int(e.day if day is None else day),
                "user_id": int(e.user_id),
                "query_id": int(e.query_id),
                "clicked": [int(c) for c in e.clicked_entity_ids],
            }
        )
    return out


@dataclass(frozen=True)
class ReplayReport:
    """Outcome of one replay run."""

    profile: str
    n_requests: int
    n_empty: int
    latency: LatencySummary
    cache_before: Optional[CacheStats]
    cache_after: Optional[CacheStats]
    n_writes: int = 0
    n_writes_rejected: int = 0
    arrival: str = "closed"
    rate: Optional[float] = None

    @property
    def qps(self) -> float:
        return self.latency.qps

    @property
    def hit_rate(self) -> float:
        """Result-cache hit rate over exactly this replay's requests.

        Computed from the counters of the target's gateway cache (one
        lookup per request); 0.0 for a target without one — a bare
        backend computes every answer.
        """
        if self.cache_before is None or self.cache_after is None:
            return 0.0
        hits = self.cache_after.hits - self.cache_before.hits
        misses = self.cache_after.misses - self.cache_before.misses
        total = hits + misses
        return hits / total if total else 0.0

    def summary(self) -> str:
        cache = (
            f", cache hit rate {self.hit_rate:.1%}"
            if self.cache_before is not None
            else ""
        )
        writes = (
            f", {self.n_writes} writes"
            + (
                f" ({self.n_writes_rejected} shed)"
                if self.n_writes_rejected
                else ""
            )
            if self.n_writes
            else ""
        )
        pacing = (
            f", open-loop @ {self.rate:g}/s" if self.arrival == "open" else ""
        )
        return (
            f"[{self.profile}] {self.latency.summary()}, "
            f"{self.n_empty} empty results{cache}{writes}{pacing}"
        )


class TrafficReplayer:
    """Replays a workload against a serving target.

    ``target`` is a gateway-API backend
    (:class:`~repro.api.backends.ShoalBackend`), a raw engine tier
    (:class:`ShoalService` or :class:`ClusterRouter` — wrapped in the
    matching backend adapter here, so dispatch is always the typed
    contract), or a backend URI string (``snapshot:DIR``,
    ``cluster:DIR``, ``http://host:port``) resolved through
    :func:`repro.api.open_backend`. ``concurrency`` drives the target
    from a thread pool (wall-clock QPS is measured either way;
    per-request latency always is).
    """

    def __init__(
        self,
        target,
        *,
        k: int = 5,
        concurrency: int = 1,
        ingest_target=None,
    ):
        if concurrency < 1:
            raise ValueError(f"concurrency must be >= 1, got {concurrency}")
        # Imported lazily: repro.api adapters import this package.
        from repro.api.backends import (
            ClusterBackend,
            ServiceBackend,
            ShoalBackend,
        )

        if isinstance(target, str):
            from repro.api import open_backend

            target = open_backend(target)
        elif not isinstance(target, ShoalBackend):
            # A raw engine tier: adopt it behind the typed contract so
            # the replay loop has exactly one dispatch path.
            if hasattr(target, "n_shards"):  # ClusterRouter
                target = ClusterBackend(target)
            else:
                target = ServiceBackend(target)
        self._target = target
        self._k = k
        self._concurrency = concurrency
        self._ingest_target = ingest_target

    def _cache_stats(self) -> Optional[CacheStats]:
        probe = getattr(self._target, "cache_stats", None)
        return probe() if callable(probe) else None

    def replay(
        self,
        workload: Sequence[str],
        *,
        profile: str = "custom",
        warmup: int = 0,
        writes: Sequence[dict] = (),
        write_every: int = 10,
        arrival: str = "closed",
        rate: Optional[float] = None,
    ) -> ReplayReport:
        """Issue every workload query in order; return the report.

        ``warmup`` first replays that many leading requests without
        recording them — the warm-tier measurement every serving bench
        should report (cold-start is a separate, one-off cost).

        ``arrival`` picks the load model. ``"closed"`` (default) is
        worker-paced: each worker waits for its answer before issuing
        the next request. ``"open"`` schedules request *i* at
        ``t0 + i/rate`` (``rate`` in requests/s, required) no matter
        how the target is doing, and measures latency from that
        scheduled instant — so queueing delay under saturation is
        *counted*, not coordinated away.

        ``writes`` turns the replay into **mixed read+write traffic**:
        every ``write_every``-th read also submits the next write-mode
        event (cycling through ``writes``) to the target's ingest
        surface — ``ingest(event)`` on an HTTP
        :class:`~repro.api.http.ShoalClient`, ``submit(event)`` on a
        local :class:`~repro.streaming.ingest.IngestPipe` passed as
        ``ingest_target`` at construction. Shed writes
        (``ingest_overloaded``) are counted, not raised: backpressure
        is an expected behaviour of a loaded write path, and the report
        is where it shows up.
        """
        if write_every < 1:
            raise ValueError(f"write_every must be >= 1, got {write_every}")
        if arrival not in ("closed", "open"):
            raise ValueError(
                f"arrival must be 'closed' or 'open', got {arrival!r}"
            )
        if arrival == "open" and (rate is None or rate <= 0):
            raise ValueError(
                "open-loop arrival needs rate > 0 (requests per second)"
            )
        target, k = self._target, self._k
        for q in workload[:warmup]:
            target.search(SearchRequest(query=q, k=k))

        stats = RequestStats()
        measured = workload[warmup:] if warmup else workload
        cache_before = self._cache_stats()
        n_empty = 0
        write_counters = {"sent": 0, "rejected": 0}
        submit = self._ingest_submitter() if writes else None
        writes_list = list(writes)
        write_lock = threading.Lock()

        def maybe_write(request_index: int) -> None:
            if submit is None or request_index % write_every:
                return
            with write_lock:
                event = writes_list[
                    (request_index // write_every) % len(writes_list)
                ]
                write_counters["sent"] += 1
            try:
                submit(event)
            except ApiError as exc:
                if exc.code not in ("ingest_overloaded", "ingest_unavailable"):
                    raise
                with write_lock:
                    write_counters["rejected"] += 1

        def issue(item) -> int:
            index, query = item
            maybe_write(index)
            t0 = time.perf_counter()
            response = target.search(SearchRequest(query=query, k=k))
            stats.record(time.perf_counter() - t0)
            return 0 if response.hits else 1

        def issue_open(item, due: float) -> int:
            # Latency is measured from the *scheduled* arrival, so time
            # a request spends queued behind a slow tier is counted.
            index, query = item
            maybe_write(index)
            response = target.search(SearchRequest(query=query, k=k))
            stats.record(time.perf_counter() - due)
            return 0 if response.hits else 1

        indexed = list(enumerate(measured))
        if arrival == "open":
            futures = []
            with ThreadPoolExecutor(self._concurrency) as pool:
                t0 = time.perf_counter()
                for i, item in enumerate(indexed):
                    due = t0 + i / rate
                    delay = due - time.perf_counter()
                    if delay > 0:
                        time.sleep(delay)
                    futures.append(pool.submit(issue_open, item, due))
                n_empty = sum(f.result() for f in futures)
        elif self._concurrency == 1:
            for item in indexed:
                n_empty += issue(item)
        else:
            with ThreadPoolExecutor(self._concurrency) as pool:
                n_empty = sum(pool.map(issue, indexed))

        return ReplayReport(
            profile=profile,
            n_requests=len(measured),
            n_empty=n_empty,
            latency=stats.summary(),
            cache_before=cache_before,
            cache_after=self._cache_stats(),
            n_writes=write_counters["sent"],
            n_writes_rejected=write_counters["rejected"],
            arrival=arrival,
            rate=rate if arrival == "open" else None,
        )

    def _ingest_submitter(self):
        """The write-path hook of the current target (or ingest_target)."""
        candidates = [self._ingest_target, self._target]
        for obj in candidates:
            if obj is None:
                continue
            for attr in ("ingest", "submit"):
                fn = getattr(obj, attr, None)
                if callable(fn):
                    return fn
        raise ValueError(
            "write-mode replay needs a target exposing ingest(event) "
            "(e.g. ShoalClient) or an ingest_target with submit(event) "
            "(e.g. IngestPipe)"
        )
