"""Serving engine: the four demo scenarios of paper Fig. 5, built for
read throughput over a :class:`ServingModel`.

* **Query→Topic (A)** — keyword search over topic descriptions and
  content returns the matching topics (the "visual star graph");
* **Topic→Sub-topic (B)** — hierarchy navigation;
* **Topic→Category→Item (C)** — categories under a topic and the items
  of each category within it;
* **Category→Category (D)** — related categories from the Sec. 2.4
  correlation graph.

The scenarios need only the taxonomy, the entity titles, the
correlation graph and the entity → category map, so that is all a read
tier holds (``ShoalModel.serving()``, or ``load_serving`` from disk).

The engine separates the *build* path from the *serve* path, the way a
production read tier must when the paper claims "millions of searches
per day":

1. **Precomputed indexes** — per-topic description token sets, the
   inverted token→topic index, the category→topic index, per-topic
   subtree sets, and the entity→category map are all built once per
   serving model into an immutable :class:`_ServiceState`, never per
   request.
2. **Candidate pruning** — :meth:`search_topics` only adds up the
   BM25 posting terms of the query's tokens, each term computed once
   at index build; :meth:`related_topics` scores only topics sharing
   at least one description token or category with the centre topic.
   Both prunings are exact: a topic outside the candidate set scores
   zero and could never be returned.
3. **Batch APIs** — :meth:`search_topics_batch` and
   :meth:`recommend_batch` tokenise a request batch in one pass and
   answer it through :meth:`search_tokens`, against one state snapshot.

**No result cache.** The engine computes every answer it is asked for
and holds no state a request mutates. Repeated requests are absorbed
one layer up, by the gateway's
:class:`~repro.api.middleware.CacheMiddleware` — the only result cache
of the serving stack; in-process callers that want caching wrap their
backend in a :class:`~repro.api.middleware.Gateway`.

**Hot swap.** Every per-model structure lives in one
:class:`_ServiceState` object and every request reads
``self._state`` exactly once, so :meth:`refresh` builds the next
window's indexes *off to the side* and publishes them with a single
reference assignment — a concurrent reader sees either the old state
or the new one in full, never a half-installed mix, and the serving
process never stops answering during a rollout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.correlation import CorrelationGraph
from repro.core.taxonomy import Taxonomy, Topic
from repro.text.bm25 import BM25, CollectionStats
from repro.text.tokenizer import Tokenizer

__all__ = [
    "ServingModel",
    "TopicHit",
    "CategoryHit",
    "ShoalService",
    "build_topic_documents",
]


@dataclass(frozen=True)
class ServingModel:
    """Everything a read tier serves, and nothing it does not.
    ``entity_categories=None`` derives the entity → category map from
    single-category topics at index build (see :class:`_ServiceState`).
    """

    taxonomy: Taxonomy
    titles: Dict[int, str]
    correlations: CorrelationGraph
    entity_categories: Optional[Dict[int, int]] = None


@dataclass(frozen=True)
class TopicHit:
    """A topic returned for a keyword query, with retrieval score."""

    topic_id: int
    score: float
    label: str
    n_entities: int
    n_categories: int


@dataclass(frozen=True)
class CategoryHit:
    """A related category with its correlation strength."""

    category_id: int
    strength: int


def build_topic_documents(
    topics: Sequence[Topic],
    titles: Dict[int, str],
    tokenize: Callable[[str], List[str]],
) -> Tuple[List[List[str]], List[FrozenSet[str]]]:
    """The retrieval document of each topic, plus its description-token set.

    One document per topic: its descriptions (boosted by repetition)
    followed by its entity titles. This is THE definition of the serving
    corpus — :class:`ShoalService` indexes exactly these documents, and
    the shard planner computes global collection statistics over them,
    so both must build documents through this one function or sharded
    scores drift from the unsharded ones.
    """
    docs: List[List[str]] = []
    token_sets: List[FrozenSet[str]] = []
    for t in topics:
        desc_tokens: List[str] = []
        for d in t.descriptions:
            desc_tokens.extend(tokenize(d))
        doc = desc_tokens * 3
        for e in t.entity_ids:
            doc.extend(tokenize(titles.get(e, "")))
        docs.append(doc)
        token_sets.append(frozenset(desc_tokens))
    return docs, token_sets


class _ServiceState:
    """Every per-model serving structure, built once and then immutable.

    One instance is published per installed model; requests read the
    service's state reference once and work against that snapshot for
    their whole lifetime, which is what makes :meth:`ShoalService.refresh`
    a zero-downtime swap.
    """

    __slots__ = (
        "serving",
        "topics",
        "position_of",
        "topic_tokens",
        "topic_categories",
        "index",
        "positions_with_token",
        "positions_with_category",
        "subtree",
        "entity_categories",
    )

    def __init__(
        self,
        serving: ServingModel,
        tokenizer: Tokenizer,
        collection_stats: Optional[CollectionStats] = None,
    ):
        tokenize = tokenizer.tokenize
        self.serving = serving
        self.topics: List[Topic] = serving.taxonomy.topics()
        self.position_of: Dict[int, int] = {
            t.topic_id: pos for pos, t in enumerate(self.topics)
        }

        # Retrieval index: one document per topic = its descriptions
        # (boosted by repetition) plus its entity titles; the
        # description-token sets feed related_topics, tokenised once
        # here instead of per call.
        docs, self.topic_tokens = build_topic_documents(
            self.topics, serving.titles, tokenize
        )
        self.topic_categories: List[FrozenSet[int]] = [
            frozenset(t.category_ids) for t in self.topics
        ]
        self.index = (
            BM25(docs, collection_stats=collection_stats) if docs else None
        )

        # Inverted indexes for related_topics candidate pruning.
        self.positions_with_token: Dict[str, List[int]] = {}
        self.positions_with_category: Dict[int, List[int]] = {}
        for pos, tokens in enumerate(self.topic_tokens):
            for tok in tokens:
                self.positions_with_token.setdefault(tok, []).append(pos)
        for pos, cats in enumerate(self.topic_categories):
            for c in cats:
                self.positions_with_category.setdefault(c, []).append(pos)

        # Subtree sets (topic + all descendants), children before
        # parents so each parent unions already-complete child sets.
        self.subtree: Dict[int, FrozenSet[int]] = {}
        for t in sorted(self.topics, key=lambda t: t.level, reverse=True):
            ids = {t.topic_id}
            for c in t.child_ids:
                ids.update(self.subtree[c])
            self.subtree[t.topic_id] = frozenset(ids)

        # Entity → category map: authoritative if provided, otherwise
        # derived — a topic whose category set is a single category
        # pins all its entities, leaf-most topics winning ties.
        if serving.entity_categories is not None:
            self.entity_categories = dict(serving.entity_categories)
        else:
            mapping: Dict[int, int] = {}
            for t in sorted(self.topics, key=lambda t: t.level, reverse=True):
                if len(t.category_ids) == 1:
                    c = t.category_ids[0]
                    for e in t.entity_ids:
                        mapping.setdefault(e, c)
            self.entity_categories = mapping


class ShoalService:
    """Read-only query engine over a :class:`ServingModel`.

    ``collection_stats`` scores this service's BM25 index against the
    statistics of a larger corpus it is a partition of — the mechanism
    a sharded cluster uses to keep per-shard scores identical to the
    unsharded service (see :mod:`repro.serving`). Leave it ``None`` for
    a standalone service.
    """

    def __init__(
        self,
        serving: ServingModel,
        tokenizer: Optional[Tokenizer] = None,
        *,
        collection_stats: Optional[CollectionStats] = None,
    ):
        self._tokenizer = tokenizer or Tokenizer()
        self._state = _ServiceState(serving, self._tokenizer, collection_stats)

    @classmethod
    def from_snapshot(
        cls, directory, tokenizer: Optional[Tokenizer] = None
    ) -> "ShoalService":
        """Warm-start the full read tier from a model snapshot on disk.

        This is the production deployment path: the pipeline fits
        offline and calls :meth:`ShoalModel.save`; every serving
        process then reads only the snapshot's serving files
        (``load_serving``, category sidecar included), so answers are
        identical to a service built from the in-memory model.
        """
        # Imported lazily: the store layer depends on this module's package.
        from repro.store.persistence import load_serving

        return cls(load_serving(directory), tokenizer)

    # -- model lifecycle -----------------------------------------------------

    def refresh(self, serving: ServingModel) -> None:
        """Swap in a freshly fitted serving model with zero read downtime.

        Every precomputed index is rebuilt *off to the side* and then
        published with one reference assignment — requests in flight
        keep the state they started with, requests arriving after see
        the new model, and none ever observe a half-built mix.
        """
        self._state = _ServiceState(serving, self._tokenizer)

    def posting_tokens(self) -> FrozenSet[str]:
        """Tokens in this service's BM25 posting lists.

        A query sharing no token with this set cannot match any topic
        here; a cluster router uses this to skip the shard outright.
        """
        index = self._state.index
        if index is None:
            return frozenset()
        return index.indexed_tokens()

    def collection_stats(self) -> Optional[CollectionStats]:
        """The corpus statistics the BM25 index scores against."""
        index = self._state.index
        return None if index is None else index.collection_stats

    @property
    def taxonomy(self) -> Taxonomy:
        return self._state.serving.taxonomy

    @property
    def serving(self) -> ServingModel:
        """The serving model this service currently answers from."""
        return self._state.serving

    # -- scenario A: Query → Topic ------------------------------------------

    def search_topics(self, query: str, k: int = 5) -> List[TopicHit]:
        """Topics relevant to a keyword query, best first."""
        return self._search_tokens(
            self._state, [self._tokenizer.tokenize(query)], k
        )[0]

    def search_tokens(
        self, token_lists: Sequence[Sequence[str]], k: int = 5
    ) -> List[List[TopicHit]]:
        """One hit list per already-tokenised query, in order, all
        against one state snapshot: the batch entry point of
        :meth:`search_topics_batch` and of the cluster router."""
        return self._search_tokens(self._state, token_lists, k)

    @staticmethod
    def _search_tokens(
        state: _ServiceState, token_lists: Sequence[Sequence[str]], k: int
    ) -> List[List[TopicHit]]:
        """BM25 search over pre-tokenised queries, against one state
        snapshot (hot-swap safety: search and any follow-up lookups of
        the caller run against the same model)."""
        index = state.index
        if index is None:
            return [[] for _ in token_lists]
        topics = state.topics
        rows: List[List[TopicHit]] = []
        for tokens in token_lists:
            hits = []
            for doc_idx, score in index.top_k(tokens, k):
                t = topics[doc_idx]
                hits.append(
                    TopicHit(
                        topic_id=t.topic_id,
                        score=score,
                        label=t.label(),
                        n_entities=t.size,
                        n_categories=len(t.category_ids),
                    )
                )
            rows.append(hits)
        return rows

    def search_topics_batch(
        self, queries: Sequence[str], k: int = 5
    ) -> List[List[TopicHit]]:
        """One result list per query, in order.

        Tokenises the whole batch up front and answers every query
        against one state snapshot.
        """
        return self.search_tokens(self._tokenizer.tokenize_all(queries), k)

    def best_topic(self, query: str) -> Optional[Topic]:
        """The single best-matching topic (None if nothing matches)."""
        state = self._state
        hits = self._search_tokens(
            state, [self._tokenizer.tokenize(query)], 1
        )[0]
        if not hits:
            return None
        return state.serving.taxonomy.topic(hits[0].topic_id)

    # -- scenario B: Topic → Sub-topic ------------------------------------------

    def subtopics(self, topic_id: int) -> List[Topic]:
        """Direct sub-topics of a topic (empty for leaf topics)."""
        return self.taxonomy.subtopics(topic_id)

    def topic_path(self, topic_id: int) -> List[Topic]:
        """Ancestors from the topic up to its root (inclusive both ends)."""
        taxonomy = self.taxonomy
        path = [taxonomy.topic(topic_id)]
        while path[-1].parent_id is not None:
            path.append(taxonomy.topic(path[-1].parent_id))
        return path

    # -- scenario C: Topic → Category → Item -------------------------------------

    def categories_of_topic(self, topic_id: int) -> List[int]:
        """Ontology categories associated with a topic."""
        return list(self.taxonomy.topic(topic_id).category_ids)

    def entities_of_topic_category(
        self, topic_id: int, category_id: int
    ) -> List[int]:
        """Entities of the topic falling under one of its categories.

        Uses the precomputed entity → category map; entities without
        category info never match.
        """
        state = self._state
        topic = state.serving.taxonomy.topic(topic_id)
        cat_map = state.entity_categories
        return [e for e in topic.entity_ids if cat_map.get(e) == category_id]

    # -- scenario D: Category → Category ---------------------------------------

    def related_categories(self, category_id: int, k: int = 8) -> List[CategoryHit]:
        """Correlated categories by descending Eq. 5 strength."""
        graph: CorrelationGraph = self._state.serving.correlations
        return [
            CategoryHit(c, s) for c, s in graph.related_categories(category_id, k)
        ]

    def related_topics(self, topic_id: int, k: int = 6) -> List[Tuple[Topic, float]]:
        """Topics similar to ``topic_id`` — the demo's star-graph neighbours.

        Similarity blends category overlap (Jaccard of category sets)
        with description-token overlap, so topics about the same
        merchandise *or* the same intent surface together. Excludes the
        topic itself and its ancestors/descendants (hierarchy
        navigation already covers those).

        Only candidate topics sharing at least one description token or
        category with the centre are scored (anything else scores 0).
        """
        state = self._state
        taxonomy = state.serving.taxonomy
        center = taxonomy.topic(topic_id)
        center_pos = state.position_of[topic_id]
        lineage = set(state.subtree[topic_id])
        parent = center.parent_id
        while parent is not None:
            lineage.add(parent)
            parent = taxonomy.topic(parent).parent_id

        center_cats = state.topic_categories[center_pos]
        center_tokens = state.topic_tokens[center_pos]
        candidates: set = set()
        for tok in center_tokens:
            candidates.update(state.positions_with_token.get(tok, ()))
        for c in center_cats:
            candidates.update(state.positions_with_category.get(c, ()))

        scored: List[Tuple[Topic, float]] = []
        for pos in candidates:
            other = state.topics[pos]
            if other.topic_id in lineage:
                continue
            cats = state.topic_categories[pos]
            cat_sim = (
                len(center_cats & cats) / len(center_cats | cats)
                if center_cats or cats
                else 0.0
            )
            tokens = state.topic_tokens[pos]
            tok_sim = (
                len(center_tokens & tokens) / len(center_tokens | tokens)
                if center_tokens or tokens
                else 0.0
            )
            score = 0.5 * cat_sim + 0.5 * tok_sim
            if score > 0.0:
                scored.append((other, score))
        scored.sort(key=lambda ts: (-ts[1], ts[0].topic_id))
        return scored[:k]

    # -- recommendation (used by the A/B bench) -----------------------------------

    def recommend_entities_for_query(self, query: str, k: int = 10) -> List[int]:
        """Topic-matched entity recommendation (experiment group, Fig. 4b).

        Find the best topic for the query and return its entities —
        cross-category by construction, which is the behaviour the A/B
        test credits for the CTR uplift. The search and the topic
        lookup run against one state snapshot, so a concurrent refresh
        can never make the winning topic "disappear" mid-request.
        """
        return self.recommend_batch([query], k)[0]

    def recommend_batch(
        self, queries: Sequence[str], k: int = 10
    ) -> List[List[int]]:
        """One entity slate per query, in order.

        The batched counterpart of :meth:`recommend_entities_for_query`;
        shares tokenisation and one state snapshot across the batch.
        """
        state = self._state
        rows = self._search_tokens(
            state, self._tokenizer.tokenize_all(queries), 1
        )
        taxonomy = state.serving.taxonomy
        return [
            taxonomy.topic(hits[0].topic_id).entity_ids[:k] if hits else []
            for hits in rows
        ]
