"""Query routing over a sharded serving cluster.

:class:`ClusterRouter` is the single front door of a shard set: it owns
a token → shard index (derived from each shard's BM25 posting lists),
fans a query out to the shards that could possibly score it, and merges
the per-shard top-k; a batch probes each touched shard once. A shard
probe answers with ranked ``(position, score)`` pairs and its per-topic
hit fields; the router merges ``(score, topic_id)`` keys and builds a
:class:`~repro.core.serving.TopicHit` only for the ≤ k entries a query
keeps (a query only one shard answered keeps that shard's order). The
router computes every answer it is asked for: like the engine under
it, it holds no result cache (the gateway's
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

**Read-only.** A router is built once, from a shard set of
:class:`~repro.core.serving.ServingModel` slices (partitioned from a
fitted model, or loaded from a cluster snapshot), and never changes
afterwards: BM25 statistics are corpus-wide, so a new model moves
every shard's scores and would rebuild every shard anyway. A model
that changes is served by a single service or by followers, which a
:class:`~repro.streaming.rollout.GenerationSwitch` hot-swaps.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple, Union

from repro.api.context import current_context
from repro.core.pipeline import ShoalModel
from repro.core.serving import (
    CategoryHit,
    ShoalService,
    TopicHit,
    topic_hits,
)
from repro.core.taxonomy import Topic
from repro.serving.sharding import ShardPlanner, ShardSet
from repro.obs.histogram import Histogram, LatencySummary
from repro.obs.tracer import traced
from repro.text.tokenizer import Tokenizer

__all__ = ["ClusterRouter", "ClusterStats"]


def _checkpoint() -> None:
    """Cancellation check point between units of shard work.

    The router polls the ambient :class:`~repro.api.context.RequestContext`
    before each shard probe, so a request whose deadline blew stops
    costing shard time at the next boundary instead of running to
    completion.
    """
    ctx = current_context()
    if ctx is not None:
        ctx.raise_if_done()


def _merge(parts: list, k: int) -> List[TopicHit]:
    """One query's top-``k`` hits from the ranked answers of the shards
    that matched it; a :class:`TopicHit` is built only for a kept entry.

    The unsharded index breaks score ties toward the lower document
    index, and its documents are laid out in ascending topic-id order,
    so ``(-score, topic_id)`` reproduces the unsharded ordering exactly.
    A shard orders its own answer the same way, so a query only one
    shard answered keeps that shard's order as is.
    """
    if not parts:
        return []
    if len(parts) == 1:
        fields, pairs = parts[0]
        return topic_hits(fields, pairs)
    keyed = sorted([
        (-score, fields[pos][0], fields[pos])
        for fields, pairs in parts
        for pos, score in pairs
    ])
    return [
        TopicHit(topic_id, -neg, label, n_entities, n_categories)
        for neg, _, (topic_id, label, n_entities, n_categories) in keyed[:k]
    ]


class _Shard:
    """One shard: its service, posting tokens and the service time
    spent in it."""

    def __init__(self, shard_index: int, service: ShoalService):
        self.shard_index = shard_index
        self.service = service
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


class ClusterRouter:
    """Serves the four demo scenarios over a sharded cluster.

    Construct with :meth:`from_model` (shard a fitted model in memory),
    :meth:`from_snapshot` (load a cluster snapshot directory written by
    :meth:`ShardPlanner.save`), or directly from a :class:`ShardSet`.
    The shards are built once, here, and never replaced. A single
    query and a batch run one path (:meth:`_search`); either call is
    one latency sample.
    """

    def __init__(
        self,
        shard_set: ShardSet,
        *,
        tokenizer: Optional[Tokenizer] = None,
    ):
        self._tokenizer = tokenizer or Tokenizer()
        self._stats = Histogram()
        if not shard_set.models:
            raise ValueError("shard set has no shards")
        self._shards: List[_Shard] = [
            _Shard(
                i,
                ShoalService(
                    serving,
                    self._tokenizer,
                    collection_stats=shard_set.collection_stats,
                ),
            )
            for i, serving in enumerate(shard_set.models)
        ]
        # The correlation graph is global: every shard carries it whole.
        self._correlations = shard_set.models[0].correlations
        by_token: Dict[str, List[int]] = {}
        self._shard_of_topic: Dict[int, int] = {}
        for shard in self._shards:
            for tok in shard.tokens:
                by_token.setdefault(tok, []).append(shard.shard_index)
            for t in shard.service.taxonomy.topics():
                self._shard_of_topic[t.topic_id] = shard.shard_index
        self._shards_with_token: Dict[str, Tuple[int, ...]] = {
            tok: tuple(sorted(ids)) for tok, ids in by_token.items()
        }

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

    # -- cluster shape -------------------------------------------------------

    @property
    def n_shards(self) -> int:
        return len(self._shards)

    @property
    def plan_summary(self) -> str:
        return "\n".join(
            f"shard {shard.shard_index}: "
            f"{len(shard.service.taxonomy)} topics, "
            f"{len(shard.tokens)} index tokens"
            for shard in self._shards
        )

    # -- scenario A: Query → Topic ------------------------------------------

    def search_topics(self, query: str, k: int = 5) -> List[TopicHit]:
        """Cluster-wide keyword search; identical to the unsharded answer."""
        t0 = time.perf_counter()
        hits = self._search("router.search", [query], k)[0]
        self._stats.record(time.perf_counter() - t0)
        return hits

    def search_topics_batch(
        self, queries: Sequence[str], k: int = 5
    ) -> List[List[TopicHit]]:
        """One result list per query, in order."""
        t0 = time.perf_counter()
        rows = self._search("router.batch", queries, k)
        self._stats.record(time.perf_counter() - t0)
        return rows

    def _search(
        self, span: str, queries: Sequence[str], k: int
    ) -> List[List[TopicHit]]:
        """Tokenise → route each query to the shards holding one of its
        tokens → probe each touched shard once, in ascending order, with
        all its queries (one ``router.shard_probe`` span tagged
        ``shard`` and ``queries``) → merge per query."""
        with traced(span):
            token_lists = self._tokenizer.tokenize_all(queries)
            with_token = self._shards_with_token
            routed: List[List[int]] = [[] for _ in self._shards]
            for q, tokens in enumerate(token_lists):
                for i in {i for tok in tokens for i in with_token.get(tok, ())}:
                    routed[i].append(q)
            # Per query: the (hit fields, ranked pairs) of each shard
            # that answered it.
            answers: List[list] = [[] for _ in token_lists]
            for i, positions in enumerate(routed):
                if not positions:
                    continue
                _checkpoint()
                shard = self._shards[i]
                t0 = time.perf_counter()
                try:
                    with traced(
                        "router.shard_probe",
                        tags={"shard": str(i), "queries": str(len(positions))},
                    ):
                        fields, rows = shard.service.search_tokens(
                            [token_lists[q] for q in positions], k
                        )
                finally:
                    shard.add_busy(time.perf_counter() - t0)
                for q, pairs in zip(positions, rows):
                    if pairs:
                        answers[q].append((fields, pairs))
            return [_merge(parts, k) for parts in answers]

    # -- topic-local scenarios (B, C) ---------------------------------------

    def _service_of(self, topic_id: int) -> ShoalService:
        try:
            return self._shards[self._shard_of_topic[topic_id]].service
        except KeyError:
            raise KeyError(f"topic {topic_id} is not in any shard")

    def topic(self, topic_id: int) -> Topic:
        """The topic object, fetched from its owning shard."""
        return self._service_of(topic_id).taxonomy.topic(topic_id)

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
        return [
            CategoryHit(c, s)
            for c, s in self._correlations.related_categories(category_id, k)
        ]

    # -- recommendation ------------------------------------------------------

    def recommend_entities_for_query(
        self, query: str, k: int = 10
    ) -> List[int]:
        """Topic-matched entity slate; identical to the unsharded answer."""
        return self._recommend("router.search", [query], k)[0]

    def recommend_batch(
        self, queries: Sequence[str], k: int = 10
    ) -> List[List[int]]:
        return self._recommend("router.batch", queries, k)

    def _recommend(
        self, span: str, queries: Sequence[str], k: int
    ) -> List[List[int]]:
        """Each query's best topic's first ``k`` entities; one latency
        sample per call."""
        t0 = time.perf_counter()
        slates = [
            self.topic(hits[0].topic_id).entity_ids[:k] if hits else []
            for hits in self._search(span, queries, 1)
        ]
        self._stats.record(time.perf_counter() - t0)
        return slates

    # -- stats ---------------------------------------------------------------

    def request_stats(self) -> LatencySummary:
        return self._stats.summary()

    def shard_busy_seconds(self) -> List[float]:
        """Cumulative per-shard service time (see _Shard.busy_seconds)."""
        return [s.busy_seconds() for s in self._shards]

    def cluster_stats(self) -> ClusterStats:
        return ClusterStats(
            n_shards=len(self._shards),
            latency=self._stats.summary(),
        )

