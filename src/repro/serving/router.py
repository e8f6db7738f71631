"""Query routing over a sharded serving cluster.

:class:`ClusterRouter` is the single front door of a shard set: it owns
a token → shard index (derived from each shard's BM25 posting lists),
fans a query out to the shards that could possibly score it, and merges
the per-shard top-k. The router computes every answer it is asked for:
like the engine under it, it holds no result cache (the gateway's
:class:`~repro.api.middleware.CacheMiddleware` is the only one) and no
state a search mutates apart from its latency and busy-time counters.

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
byte for byte, for every shard count.

**Refresh.** :meth:`refresh` re-partitions a new model and rebuilds
only the shards whose content fingerprint changed, *provided* the
global inputs (collection statistics, correlation graph) are unchanged
— BM25 statistics are corpus-wide, so when any document anywhere
changes, every shard's scores move and every shard is rebuilt. Shards
are swapped atomically behind a single state reference, so readers on
other threads always see a consistent cluster.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple, Union

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

__all__ = ["ClusterRouter", "ClusterStats"]


def _checkpoint() -> None:
    """Cancellation check point between units of shard work.

    The router polls the ambient :class:`~repro.api.context.RequestContext`
    before each shard probe and between batch items, so a request whose
    deadline blew stops costing shard time at the next boundary instead
    of running to completion.
    """
    ctx = current_context()
    if ctx is not None:
        ctx.raise_if_done()


class _Shard:
    """One shard: its service, posting tokens, content fingerprint and
    the service time spent in it."""

    def __init__(
        self, shard_index: int, service: ShoalService, fingerprint: str
    ):
        self.shard_index = shard_index
        self.service = service
        self.fingerprint = fingerprint
        self.tokens: FrozenSet[str] = service.posting_tokens()
        self._busy_seconds = 0.0
        self._lock = threading.Lock()

    def add_busy(self, seconds: float) -> None:
        with self._lock:
            self._busy_seconds += seconds

    def busy_seconds(self) -> float:
        """Cumulative service time spent inside this shard.

        In a real deployment each shard runs on its own node, so the
        cluster's wall-clock over a workload is bounded by its busiest
        shard, not the sum — benches use these accumulators to model
        aggregate cluster throughput from a single-process replay.
        """
        with self._lock:
            return self._busy_seconds


@dataclass(frozen=True)
class ClusterStats:
    """Point-in-time cluster counters: shape + request latency."""

    n_shards: int
    latency: LatencySummary

    def summary(self) -> str:
        return f"cluster: {self.n_shards} shards; {self.latency.summary()}"


class _RouterState:
    """Immutable-by-convention bundle swapped atomically on refresh."""

    def __init__(
        self,
        shards: List[_Shard],
        collection_stats: CollectionStats,
        correlations: CorrelationGraph,
    ):
        self.shards = shards
        self.collection_stats = collection_stats
        self.correlations = correlations
        by_token: Dict[str, List[int]] = {}
        for shard in shards:
            for tok in shard.tokens:
                by_token.setdefault(tok, []).append(shard.shard_index)
        self.shards_with_token: Dict[str, Tuple[int, ...]] = {
            tok: tuple(sorted(ids)) for tok, ids in by_token.items()
        }
        self.shard_of_topic: Dict[int, int] = {}
        for shard in shards:
            for t in shard.service.taxonomy.topics():
                self.shard_of_topic[t.topic_id] = shard.shard_index


class ClusterRouter:
    """Serves the four demo scenarios over a sharded cluster.

    Construct with :meth:`from_model` (shard a fitted model in memory),
    :meth:`from_snapshot` (load a cluster snapshot directory written by
    :meth:`ShardPlanner.save`), or directly from a :class:`ShardSet`.
    """

    def __init__(
        self,
        shard_set: ShardSet,
        *,
        tokenizer: Optional[Tokenizer] = None,
    ):
        self._tokenizer = tokenizer or Tokenizer()
        self._planner = ShardPlanner(shard_set.n_shards, self._tokenizer)
        self._stats = RequestStats()
        self._state = self._build_state(shard_set)

    # -- construction --------------------------------------------------------

    @classmethod
    def from_model(
        cls,
        model: ShoalModel,
        n_shards: int,
        *,
        entity_categories: Optional[Dict[int, int]] = None,
        tokenizer: Optional[Tokenizer] = None,
    ) -> "ClusterRouter":
        """Shard a fitted model and stand up the cluster in memory."""
        tok = tokenizer or Tokenizer()
        shard_set = ShardPlanner(n_shards, tok).partition(
            model, entity_categories
        )
        return cls(shard_set, tokenizer=tok)

    @classmethod
    def from_snapshot(
        cls,
        directory: Union[str, Path],
        *,
        tokenizer: Optional[Tokenizer] = None,
    ) -> "ClusterRouter":
        """Warm-start the whole cluster from a cluster snapshot dir."""
        return cls(ShardPlanner.load(directory), tokenizer=tokenizer)

    def _build_state(
        self,
        shard_set: ShardSet,
        reuse: Optional[_RouterState] = None,
    ) -> _RouterState:
        """Build router state, reusing unchanged shards from ``reuse``.

        A shard carries over only when its content fingerprint AND both
        global inputs are unchanged; anything else gets a freshly built
        service.
        """
        correlations = _shard_set_correlations(shard_set)
        globals_unchanged = reuse is not None and (
            reuse.collection_stats == shard_set.collection_stats
            and _correlations_equal(reuse.correlations, correlations)
        )
        shards: List[_Shard] = []
        for i in range(shard_set.n_shards):
            fp = shard_fingerprint(
                shard_set.models[i], shard_set.entity_categories[i]
            )
            if (
                globals_unchanged
                and i < len(reuse.shards)
                and reuse.shards[i].fingerprint == fp
            ):
                shards.append(reuse.shards[i])
                continue
            service = ShoalService(
                shard_set.models[i],
                self._tokenizer,
                entity_categories=shard_set.entity_categories[i],
                collection_stats=shard_set.collection_stats,
            )
            shards.append(_Shard(i, service, fp))
        return _RouterState(
            shards, shard_set.collection_stats, correlations
        )

    def refresh(
        self,
        model: ShoalModel,
        entity_categories: Optional[Dict[int, int]] = None,
    ) -> List[int]:
        """Re-partition a new model; rebuild only the affected shards.

        Returns the indices of the shards that were rebuilt. Shards
        whose pruned content is unchanged — and whose global inputs
        (collection statistics, correlations) are unchanged — keep
        their built indexes. The new state is swapped in
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
    def plan_summary(self) -> str:
        state = self._state
        lines = []
        for shard in state.shards:
            lines.append(
                f"shard {shard.shard_index}: "
                f"{len(shard.service.taxonomy)} topics, "
                f"{len(shard.tokens)} index tokens"
            )
        return "\n".join(lines)

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
        """Tokenise → fan out, all against one state."""
        with traced("router.search"):
            tokens = self._tokenizer.tokenize(query)
            return self._search_tokens(state, tokens, k)

    def _search_tokens(
        self, state: _RouterState, tokens: Sequence[str], k: int
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
            t0 = time.perf_counter()
            try:
                with traced("router.shard_probe", tags={"shard": str(i)}):
                    merged.extend(shard.service.search_tokens(tokens, k))
            finally:
                shard.add_busy(time.perf_counter() - t0)
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
    def _service_in(state: _RouterState, topic_id: int) -> ShoalService:
        try:
            return state.shards[state.shard_of_topic[topic_id]].service
        except KeyError:
            raise KeyError(f"topic {topic_id} is not in any shard")

    @staticmethod
    def _topic_in(state: _RouterState, topic_id: int) -> Topic:
        service = ClusterRouter._service_in(state, topic_id)
        return service.taxonomy.topic(topic_id)

    def _service_of(self, topic_id: int) -> ShoalService:
        return self._service_in(self._state, topic_id)

    def topic(self, topic_id: int) -> Topic:
        """The topic object, fetched from its owning shard."""
        return self._topic_in(self._state, topic_id)

    def subtopics(self, topic_id: int) -> List[Topic]:
        return self._service_of(topic_id).subtopics(topic_id)

    def topic_path(self, topic_id: int) -> List[Topic]:
        return self._service_of(topic_id).topic_path(topic_id)

    def categories_of_topic(self, topic_id: int) -> List[int]:
        return list(self.topic(topic_id).category_ids)

    def entities_of_topic_category(
        self, topic_id: int, category_id: int
    ) -> List[int]:
        return self._service_of(topic_id).entities_of_topic_category(
            topic_id, category_id
        )

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

    # -- stats ---------------------------------------------------------------

    def request_stats(self) -> LatencySummary:
        return self._stats.summary()

    def shard_busy_seconds(self) -> List[float]:
        """Cumulative per-shard service time (see _Shard.busy_seconds)."""
        return [s.busy_seconds() for s in self._state.shards]

    def reset_request_stats(self) -> None:
        self._stats.reset()

    def cluster_stats(self) -> ClusterStats:
        return ClusterStats(
            n_shards=len(self._state.shards),
            latency=self._stats.summary(),
        )


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
