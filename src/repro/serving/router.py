"""Query routing over a sharded serving cluster.

:class:`ClusterRouter` is the single front door of a shard set: it owns
a token → shard index (derived from each shard's BM25 posting lists),
fans a query out to the shards that could possibly score it, merges the
per-shard top-k, and picks the least-loaded replica within each shard.

**Answer transparency.** Every shard scores its local postings against
the global collection statistics (see :mod:`repro.serving.sharding`),
so a document's score is bit-identical to the unsharded service's. The
unsharded service orders hits by descending score with ties broken
toward the lower document index, and its documents are laid out in
ascending topic-id order — so merging shard results by
``(-score, topic_id)`` reproduces the global ordering exactly. Shards
the router skips contain no query token, hence only zero-scoring
documents the unsharded service would have dropped too. The result:
``ClusterRouter.search_topics`` == ``ShoalService.search_topics``,
byte for byte, for every shard and replica count.

**Refresh.** :meth:`refresh` re-partitions a new model and rebuilds
only the shards whose content fingerprint changed, *provided* the
global inputs (collection statistics, correlation graph) are unchanged
— BM25 statistics are corpus-wide, so when any document anywhere
changes, every shard's scores move and every cache must drop. Replica
sets are swapped atomically behind a single state reference, so
readers on other threads always see a consistent cluster.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple, Union

from repro.api.cache import MISS, CacheStats, LRUCache
from repro.api.context import current_context
from repro.core.correlation import CorrelationGraph
from repro.core.pipeline import ShoalModel
from repro.core.serving import (
    CategoryHit,
    ShoalService,
    TopicHit,
)
from repro.core.taxonomy import Topic
from repro.serving.sharding import (
    ShardPlanner,
    ShardSet,
    shard_fingerprint,
)
from repro.obs.tracer import traced
from repro.serving.stats import LatencySummary, RequestStats
from repro.text.bm25 import CollectionStats
from repro.text.tokenizer import Tokenizer

__all__ = ["ClusterRouter", "ClusterStats", "ShardReplicas"]


def _checkpoint() -> None:
    """Cancellation check point between units of shard work.

    The router polls the ambient :class:`~repro.api.context.RequestContext`
    before each shard probe and between batch items, so a request whose
    deadline blew (or whose hedge twin already answered) stops costing
    replica time at the next boundary instead of running to completion.
    """
    ctx = current_context()
    if ctx is not None:
        ctx.raise_if_done()


class ShardReplicas:
    """One shard's replica group with least-loaded request placement.

    The first replica builds the serving indexes; the rest share them
    read-only and differ only in their private query caches (see
    :meth:`ShoalService.replica`). ``acquire`` picks the replica with
    the fewest in-flight requests, breaking ties by total requests
    served and then by replica index — so sequential traffic
    round-robins and concurrent bursts spread out.
    """

    def __init__(
        self,
        shard_index: int,
        service: ShoalService,
        n_replicas: int,
        fingerprint: str,
    ):
        if n_replicas < 1:
            raise ValueError(f"n_replicas must be >= 1, got {n_replicas}")
        self.shard_index = shard_index
        self.fingerprint = fingerprint
        self.tokens: FrozenSet[str] = service.posting_tokens()
        self._services = [service] + [
            service.replica() for _ in range(n_replicas - 1)
        ]
        self._inflight = [0] * n_replicas
        self._served = [0] * n_replicas
        self._busy_seconds = [0.0] * n_replicas
        self._lock = threading.Lock()

    @property
    def n_replicas(self) -> int:
        return len(self._services)

    @property
    def n_topics(self) -> int:
        return len(self._services[0].taxonomy)

    def replica_request_counts(self) -> List[int]:
        """Total requests each replica has served (index-aligned)."""
        with self._lock:
            return list(self._served)

    def acquire(self) -> Tuple[int, ShoalService]:
        with self._lock:
            idx = min(
                range(len(self._services)),
                key=lambda i: (self._inflight[i], self._served[i], i),
            )
            self._inflight[idx] += 1
            self._served[idx] += 1
            return idx, self._services[idx]

    def release(self, idx: int, busy_seconds: float = 0.0) -> None:
        with self._lock:
            self._inflight[idx] -= 1
            self._busy_seconds[idx] += busy_seconds

    def busy_seconds(self) -> float:
        """Cumulative service time spent inside this shard's replicas.

        In a real deployment each shard runs on its own node, so the
        cluster's wall-clock over a workload is bounded by its busiest
        shard, not the sum — benches use these accumulators to model
        aggregate cluster throughput from a single-process replay.
        """
        with self._lock:
            return sum(self._busy_seconds)

    def cache_stats(self) -> CacheStats:
        """Summed cache counters across this shard's replicas."""
        return _sum_cache_stats(
            [s.cache_stats() for s in self._services]
        )

    def invalidate_caches(self) -> None:
        for s in self._services:
            s.invalidate_cache()

    def services(self) -> List[ShoalService]:
        return list(self._services)


def _sum_cache_stats(stats: Sequence[CacheStats]) -> CacheStats:
    return CacheStats(
        hits=sum(s.hits for s in stats),
        misses=sum(s.misses for s in stats),
        size=sum(s.size for s in stats),
        max_size=sum(s.max_size for s in stats),
        invalidations=sum(s.invalidations for s in stats),
        expirations=sum(s.expirations for s in stats),
    )


@dataclass(frozen=True)
class ClusterStats:
    """Point-in-time cluster counters: caching + request latency."""

    n_shards: int
    n_replicas: int
    shard_caches: Tuple[CacheStats, ...]
    front_cache: CacheStats
    cache: CacheStats
    latency: LatencySummary

    def summary(self) -> str:
        return (
            f"cluster: {self.n_shards} shards x {self.n_replicas} "
            f"replicas; {self.cache.summary()}; {self.latency.summary()}"
        )


class _RouterState:
    """Immutable-by-convention bundle swapped atomically on refresh.

    The front cache travels with the state: a request that started
    against the previous cluster writes its result into the *previous*
    state's front cache, which nobody reads any more — so a refresh can
    never be polluted by in-flight stale answers.
    """

    def __init__(
        self,
        shards: List[ShardReplicas],
        collection_stats: CollectionStats,
        correlations: CorrelationGraph,
        front: LRUCache,
    ):
        self.shards = shards
        self.collection_stats = collection_stats
        self.correlations = correlations
        self.front = front
        by_token: Dict[str, List[int]] = {}
        for shard in shards:
            for tok in shard.tokens:
                by_token.setdefault(tok, []).append(shard.shard_index)
        self.shards_with_token: Dict[str, Tuple[int, ...]] = {
            tok: tuple(sorted(ids)) for tok, ids in by_token.items()
        }
        self.shard_of_topic: Dict[int, int] = {}
        for shard in shards:
            for t in shard.services()[0].taxonomy.topics():
                self.shard_of_topic[t.topic_id] = shard.shard_index


class ClusterRouter:
    """Serves the four demo scenarios over a sharded cluster.

    Construct with :meth:`from_model` (shard a fitted model in memory),
    :meth:`from_snapshot` (load a cluster snapshot directory written by
    :meth:`ShardPlanner.save`), or directly from a :class:`ShardSet`.

    ``cache_size`` is the per-replica query-cache budget — the
    scale-out resource model is "every node brings its own cache", so
    aggregate cache capacity grows with the cluster. The router node
    itself keeps a *front* result cache of the same budget, keyed on
    the raw ``(query, k)`` pair: a front hit skips tokenisation,
    routing and every shard probe — the edge-cache tier of a real
    serving stack.
    """

    def __init__(
        self,
        shard_set: ShardSet,
        *,
        n_replicas: int = 1,
        cache_size: int = 4096,
        tokenizer: Optional[Tokenizer] = None,
    ):
        if n_replicas < 1:
            raise ValueError(f"n_replicas must be >= 1, got {n_replicas}")
        self._tokenizer = tokenizer or Tokenizer()
        self._n_replicas = n_replicas
        self._cache_size = cache_size
        self._planner = ShardPlanner(shard_set.n_shards, self._tokenizer)
        self._stats = RequestStats()
        self._retired_lock = threading.Lock()
        self._retired_hits = 0
        self._retired_misses = 0
        self._retired_invalidations = 0
        self._state = self._build_state(shard_set)

    # -- construction --------------------------------------------------------

    @classmethod
    def from_model(
        cls,
        model: ShoalModel,
        n_shards: int,
        *,
        n_replicas: int = 1,
        entity_categories: Optional[Dict[int, int]] = None,
        cache_size: int = 4096,
        tokenizer: Optional[Tokenizer] = None,
    ) -> "ClusterRouter":
        """Shard a fitted model and stand up the cluster in memory."""
        tok = tokenizer or Tokenizer()
        shard_set = ShardPlanner(n_shards, tok).partition(
            model, entity_categories
        )
        return cls(
            shard_set,
            n_replicas=n_replicas,
            cache_size=cache_size,
            tokenizer=tok,
        )

    @classmethod
    def from_snapshot(
        cls,
        directory: Union[str, Path],
        *,
        n_replicas: int = 1,
        cache_size: int = 4096,
        tokenizer: Optional[Tokenizer] = None,
    ) -> "ClusterRouter":
        """Warm-start the whole cluster from a cluster snapshot dir."""
        return cls(
            ShardPlanner.load(directory),
            n_replicas=n_replicas,
            cache_size=cache_size,
            tokenizer=tokenizer,
        )

    def _build_state(
        self,
        shard_set: ShardSet,
        reuse: Optional[_RouterState] = None,
    ) -> _RouterState:
        """Build router state, reusing unchanged shards from ``reuse``.

        A shard carries over (warm cache and all) only when its content
        fingerprint AND both global inputs are unchanged; anything else
        gets a freshly built replica group, with the old group's cache
        counters folded into the retired totals so aggregate stats stay
        monotonic.
        """
        globals_unchanged = reuse is not None and (
            reuse.collection_stats == shard_set.collection_stats
            and _correlations_equal(
                reuse.correlations, _shard_set_correlations(shard_set)
            )
        )
        shards: List[ShardReplicas] = []
        for i in range(shard_set.n_shards):
            fp = shard_fingerprint(
                shard_set.models[i], shard_set.entity_categories[i]
            )
            old = (
                reuse.shards[i]
                if reuse is not None and i < len(reuse.shards)
                else None
            )
            if globals_unchanged and old is not None and old.fingerprint == fp:
                shards.append(old)
                continue
            if old is not None:
                self._retire(old)
            service = ShoalService(
                shard_set.models[i],
                self._tokenizer,
                cache_size=self._cache_size,
                entity_categories=shard_set.entity_categories[i],
                collection_stats=shard_set.collection_stats,
            )
            shards.append(
                ShardReplicas(i, service, self._n_replicas, fp)
            )
        if reuse is not None:
            for old in reuse.shards[shard_set.n_shards:]:
                self._retire(old)
        any_rebuilt = reuse is None or len(shards) != len(
            reuse.shards
        ) or any(
            s is not o for s, o in zip(shards, reuse.shards)
        )
        if reuse is not None and not any_rebuilt:
            front = reuse.front
        else:
            # Any rebuilt shard can change merged answers: the front
            # cache drops with it, its counters folded into the totals.
            if reuse is not None:
                stats = reuse.front.stats()
                with self._retired_lock:
                    self._retired_hits += stats.hits
                    self._retired_misses += stats.misses
                    self._retired_invalidations += (
                        stats.invalidations + 1
                    )
            front = LRUCache(self._cache_size)
        return _RouterState(
            shards,
            shard_set.collection_stats,
            _shard_set_correlations(shard_set),
            front,
        )

    def _retire(self, shard: ShardReplicas) -> None:
        """Fold a replaced shard's cache counters into the running totals."""
        stats = shard.cache_stats()
        with self._retired_lock:
            self._retired_hits += stats.hits
            self._retired_misses += stats.misses
            # A replaced shard is one big invalidation of its caches.
            self._retired_invalidations += stats.invalidations + 1

    def refresh(
        self,
        model: ShoalModel,
        entity_categories: Optional[Dict[int, int]] = None,
    ) -> List[int]:
        """Re-partition a new model; rebuild only the affected shards.

        Returns the indices of the shards that were rebuilt. Shards
        whose pruned content is unchanged — and whose global inputs
        (collection statistics, correlations) are unchanged — keep
        their replicas and warm caches. The new state is swapped in
        behind one reference, so concurrent readers see either the old
        or the new cluster, never a mix.
        """
        old = self._state
        new_set = self._planner.partition(model, entity_categories)
        new_state = self._build_state(new_set, reuse=old)
        rebuilt = [
            s.shard_index
            for i, s in enumerate(new_state.shards)
            if i >= len(old.shards) or s is not old.shards[i]
        ]
        self._state = new_state
        return rebuilt

    # -- cluster shape -------------------------------------------------------

    @property
    def n_shards(self) -> int:
        return len(self._state.shards)

    @property
    def n_replicas(self) -> int:
        return self._n_replicas

    @property
    def cache_size(self) -> int:
        """Per-node cache budget (front cache and every replica)."""
        return self._cache_size

    @property
    def plan_summary(self) -> str:
        state = self._state
        lines = []
        for shard in state.shards:
            lines.append(
                f"shard {shard.shard_index}: {shard.n_topics} topics, "
                f"{len(shard.tokens)} index tokens, "
                f"{shard.n_replicas} replicas"
            )
        return "\n".join(lines)

    def shards(self) -> List[ShardReplicas]:
        return list(self._state.shards)

    # -- scenario A: Query → Topic ------------------------------------------

    def search_topics(self, query: str, k: int = 5) -> List[TopicHit]:
        """Cluster-wide keyword search; identical to the unsharded answer."""
        t0 = time.perf_counter()
        hits = self._serve_search(self._state, query, k)
        self._stats.record(time.perf_counter() - t0)
        return hits

    def _serve_search(
        self, state: _RouterState, query: str, k: int
    ) -> List[TopicHit]:
        """Front cache → tokenise → fan out, all against one state."""
        key = (query, k)
        cached = state.front.get(key)
        if cached is not MISS:
            return list(cached)
        with traced("router.search", tags={"front_cache": "miss"}):
            tokens = tuple(self._tokenizer.tokenize(query))
            hits = self._search_tokens(state, tokens, k)
        state.front.put(key, tuple(hits))
        return hits

    def _search_tokens(
        self, state: _RouterState, tokens: Tuple[str, ...], k: int
    ) -> List[TopicHit]:
        if not tokens:
            return []
        candidate_ids: set = set()
        for tok in tokens:
            candidate_ids.update(state.shards_with_token.get(tok, ()))
        merged: List[TopicHit] = []
        for i in sorted(candidate_ids):
            _checkpoint()
            shard = state.shards[i]
            ridx, service = shard.acquire()
            t0 = time.perf_counter()
            try:
                with traced(
                    "router.shard_probe",
                    tags={"shard": str(i), "replica": str(ridx)},
                ):
                    merged.extend(service.search_tokens(tokens, k))
            finally:
                shard.release(ridx, time.perf_counter() - t0)
        # Global doc order is ascending topic id, and the unsharded
        # index breaks score ties toward the lower doc index — so this
        # sort reproduces the unsharded ordering exactly.
        merged.sort(key=lambda h: (-h.score, h.topic_id))
        return merged[:k]

    def search_topics_batch(
        self, queries: Sequence[str], k: int = 5
    ) -> List[List[TopicHit]]:
        """One result list per query, in order."""
        state = self._state
        results = []
        for q in queries:
            _checkpoint()
            t0 = time.perf_counter()
            results.append(self._serve_search(state, q, k))
            self._stats.record(time.perf_counter() - t0)
        return results

    def best_topic(self, query: str) -> Optional[Topic]:
        state = self._state
        hits = self._serve_search(state, query, 1)
        if not hits:
            return None
        return self._topic_in(state, hits[0].topic_id)

    # -- topic-local scenarios (B, C) ---------------------------------------

    @staticmethod
    def _shard_in(state: _RouterState, topic_id: int) -> ShardReplicas:
        try:
            return state.shards[state.shard_of_topic[topic_id]]
        except KeyError:
            raise KeyError(f"topic {topic_id} is not in any shard")

    @staticmethod
    def _topic_in(state: _RouterState, topic_id: int) -> Topic:
        shard = ClusterRouter._shard_in(state, topic_id)
        return shard.services()[0].taxonomy.topic(topic_id)

    def _shard_of(self, topic_id: int) -> ShardReplicas:
        return self._shard_in(self._state, topic_id)

    def topic(self, topic_id: int) -> Topic:
        """The topic object, fetched from its owning shard."""
        return self._topic_in(self._state, topic_id)

    def subtopics(self, topic_id: int) -> List[Topic]:
        shard = self._shard_of(topic_id)
        ridx, service = shard.acquire()
        try:
            return service.subtopics(topic_id)
        finally:
            shard.release(ridx)

    def topic_path(self, topic_id: int) -> List[Topic]:
        shard = self._shard_of(topic_id)
        ridx, service = shard.acquire()
        try:
            return service.topic_path(topic_id)
        finally:
            shard.release(ridx)

    def categories_of_topic(self, topic_id: int) -> List[int]:
        return list(self.topic(topic_id).category_ids)

    def entities_of_topic_category(
        self, topic_id: int, category_id: int
    ) -> List[int]:
        shard = self._shard_of(topic_id)
        ridx, service = shard.acquire()
        try:
            return service.entities_of_topic_category(topic_id, category_id)
        finally:
            shard.release(ridx)

    # -- scenario D: Category → Category ------------------------------------

    def related_categories(
        self, category_id: int, k: int = 8
    ) -> List[CategoryHit]:
        """Correlated categories — the graph is global, not sharded."""
        graph = self._state.correlations
        return [
            CategoryHit(c, s)
            for c, s in graph.related_categories(category_id, k)
        ]

    # -- recommendation ------------------------------------------------------

    def recommend_entities_for_query(
        self, query: str, k: int = 10
    ) -> List[int]:
        """Topic-matched entity slate; identical to the unsharded answer.

        The search and the topic lookup run against one state snapshot,
        so a concurrent refresh can never make the winning topic
        "disappear" mid-request.
        """
        t0 = time.perf_counter()
        state = self._state
        hits = self._serve_search(state, query, 1)
        slate = (
            [] if not hits
            else self._topic_in(state, hits[0].topic_id).entity_ids[:k]
        )
        self._stats.record(time.perf_counter() - t0)
        return slate

    def recommend_batch(
        self, queries: Sequence[str], k: int = 10
    ) -> List[List[int]]:
        state = self._state
        slates: List[List[int]] = []
        for q in queries:
            _checkpoint()
            t0 = time.perf_counter()
            hits = self._serve_search(state, q, 1)
            slates.append(
                [] if not hits
                else self._topic_in(state, hits[0].topic_id).entity_ids[:k]
            )
            self._stats.record(time.perf_counter() - t0)
        return slates

    # -- stats & cache lifecycle ---------------------------------------------

    def cache_stats(self) -> CacheStats:
        """Aggregate cache counters (front + every shard replica),
        cumulative across shard rebuilds."""
        state = self._state
        live = _sum_cache_stats(
            [state.front.stats()]
            + [s.cache_stats() for s in state.shards]
        )
        with self._retired_lock:
            return CacheStats(
                hits=live.hits + self._retired_hits,
                misses=live.misses + self._retired_misses,
                size=live.size,
                max_size=live.max_size,
                invalidations=live.invalidations
                + self._retired_invalidations,
                expirations=live.expirations,
            )

    def front_cache_stats(self) -> CacheStats:
        """Counters of the router's raw-query front cache alone."""
        return self._state.front.stats()

    def request_stats(self) -> LatencySummary:
        return self._stats.summary()

    def shard_busy_seconds(self) -> List[float]:
        """Cumulative per-shard service time (see ShardReplicas.busy_seconds)."""
        return [s.busy_seconds() for s in self._state.shards]

    def reset_request_stats(self) -> None:
        self._stats.reset()

    def cluster_stats(self) -> ClusterStats:
        state = self._state
        return ClusterStats(
            n_shards=len(state.shards),
            n_replicas=self._n_replicas,
            shard_caches=tuple(s.cache_stats() for s in state.shards),
            front_cache=state.front.stats(),
            cache=self.cache_stats(),
            latency=self._stats.summary(),
        )

    def invalidate_caches(self) -> None:
        state = self._state
        state.front.clear()
        for shard in state.shards:
            shard.invalidate_caches()


def _shard_set_correlations(shard_set: ShardSet) -> CorrelationGraph:
    """The (global) correlation graph carried by the shard models."""
    for m in shard_set.models:
        return m.correlations
    raise ValueError("shard set has no shards")


def _correlations_equal(a: CorrelationGraph, b: CorrelationGraph) -> bool:
    if a is b:
        return True
    return (
        a.min_strength == b.min_strength
        and sorted(a.pairs()) == sorted(b.pairs())
    )
