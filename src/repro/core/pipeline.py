"""End-to-end SHOAL pipeline orchestration.

Runs the four components of the paper's framework in order:

1. build the query–item bipartite graph over the sliding window;
2. train word2vec on the corpus, build the item entity graph (Eq. 1–3);
3. run Parallel HAC to obtain the merge forest, cut it into the topic
   taxonomy;
4. tag topics with representative queries (Sec. 2.3) and mine the
   category correlation graph (Sec. 2.4).

The result is a :class:`ShoalModel` — everything the serving layer and
the evaluation harness need, plus stage timings for the benches.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Union

from repro.clustering.parallel_hac import ParallelHAC, ParallelHACResult
from repro.core.config import ShoalConfig
from repro.core.correlation import CategoryCorrelationMiner, CorrelationGraph
from repro.core.descriptions import QueryScore, TopicDescriber
from repro.core.taxonomy import Taxonomy
from repro.data.marketplace import Marketplace
from repro.data.queries import QueryLog
from repro.graph.bipartite import QueryItemGraph, build_query_item_graph
from repro.graph.entity_graph import EntityGraphBuilder
from repro.graph.sparse import SparseGraph
from repro.obs.tracer import traced
from repro.text.tokenizer import Tokenizer
from repro.text.word2vec import Word2Vec, WordEmbeddings

__all__ = ["ShoalModel", "ShoalPipeline", "fit_stage"]


@contextmanager
def fit_stage(name: str, timings: Dict[str, float]) -> Iterator[None]:
    """Time one fit stage into ``timings`` and, when a tracer is in
    scope, open a ``fit.<name>`` span around it."""
    t0 = time.perf_counter()
    with traced(f"fit.{name}"):
        yield
    timings[name] = time.perf_counter() - t0


@dataclass
class ShoalModel:
    """All artifacts of one SHOAL run."""

    config: ShoalConfig
    bipartite: QueryItemGraph
    embeddings: WordEmbeddings
    entity_graph: SparseGraph
    clustering: ParallelHACResult
    taxonomy: Taxonomy
    descriptions: Dict[int, List[QueryScore]]
    correlations: CorrelationGraph
    titles: Dict[int, str]
    query_texts: Dict[int, str]
    stage_seconds: Dict[str, float] = field(default_factory=dict)

    def summary(self) -> str:
        return (
            f"ShoalModel(entities={self.entity_graph.n_vertices}, "
            f"edges={self.entity_graph.n_edges}, "
            f"topics={len(self.taxonomy)}, "
            f"roots={len(self.taxonomy.root_topics())}, "
            f"correlated_pairs={self.correlations.n_correlations}, "
            f"rounds={self.clustering.n_rounds})"
        )

    # -- persistence --------------------------------------------------------

    def save(
        self,
        directory: Union[str, Path],
        *,
        entity_categories: Optional[Dict[int, int]] = None,
        metadata: Optional[Dict] = None,
    ) -> Path:
        """Write a versioned snapshot of every artifact to ``directory``.

        The snapshot is what a serving fleet warm-starts from (see
        :mod:`repro.store.persistence.snapshot` for the on-disk
        format); ``entity_categories`` optionally persists the
        authoritative entity → category map alongside the model, and
        ``metadata`` is a JSON-safe dict recorded in the manifest.
        """
        # Imported lazily: the store layer depends on this module.
        from repro.store.persistence import save_model

        return save_model(
            self,
            directory,
            entity_categories=entity_categories,
            metadata=metadata,
        )

    @classmethod
    def load(cls, directory: Union[str, Path]) -> "ShoalModel":
        """Reconstruct a model from a snapshot written by :meth:`save`."""
        from repro.store.persistence import load_model

        return load_model(directory)


class ShoalPipeline:
    """Builds a :class:`ShoalModel` from a marketplace or raw inputs."""

    def __init__(self, config: ShoalConfig = ShoalConfig()):
        self._config = config
        self._tokenizer = Tokenizer()

    @property
    def config(self) -> ShoalConfig:
        return self._config

    # -- entry points ----------------------------------------------------------

    def fit(self, marketplace: Marketplace) -> ShoalModel:
        """Run the full pipeline on a synthetic marketplace."""
        titles = {e.entity_id: e.title for e in marketplace.catalog.entities}
        query_texts = {q.query_id: q.text for q in marketplace.query_log.queries}
        entity_categories = {
            e.entity_id: e.category_id for e in marketplace.catalog.entities
        }
        days = marketplace.query_log.days()
        if not days:
            raise ValueError(
                "cannot fit on an empty query log: it contains no events, "
                "so there is no window to build the bipartite graph from"
            )
        last_day = days[-1]
        first_day = max(0, last_day - self._config.window_days + 1)
        return self.fit_raw(
            marketplace.query_log,
            titles,
            query_texts,
            entity_categories=entity_categories,
            corpus=marketplace.corpus(),
            first_day=first_day,
            last_day=last_day,
        )

    def fit_raw(
        self,
        query_log: QueryLog,
        titles: Dict[int, str],
        query_texts: Dict[int, str],
        entity_categories: Optional[Dict[int, int]] = None,
        corpus: Optional[List[str]] = None,
        first_day: Optional[int] = None,
        last_day: Optional[int] = None,
    ) -> ShoalModel:
        """Run the pipeline on raw inputs.

        ``entity_categories`` maps entity id → ontology category; when
        omitted, topics have no category links (the correlation graph
        will be empty, everything else works).
        """
        timings: Dict[str, float] = {}

        with fit_stage("bipartite", timings):
            bipartite = build_query_item_graph(
                query_log, first_day, last_day, self._config.min_clicks
            )
        embeddings = self.fit_embeddings(titles, query_texts, timings, corpus)
        return self.fit_window(
            bipartite, embeddings, titles, query_texts, entity_categories, timings
        )

    def fit_embeddings(
        self, titles: Dict[int, str], query_texts: Dict[int, str],
        timings: Dict[str, float], corpus: Optional[List[str]] = None,
    ) -> WordEmbeddings:
        """The ``word2vec`` stage, for a full fit and for a window slide's
        due retrain; by default on every title, then every query text."""
        with fit_stage("word2vec", timings):
            if corpus is None:
                corpus = list(titles.values()) + list(query_texts.values())
            token_docs = self._tokenizer.tokenize_all(corpus)
            return Word2Vec(self._config.word2vec).fit(token_docs)

    def fit_window(
        self,
        bipartite: QueryItemGraph,
        embeddings: WordEmbeddings,
        titles: Dict[int, str],
        query_texts: Dict[int, str],
        entity_categories: Optional[Dict[int, int]],
        timings: Dict[str, float],
    ) -> ShoalModel:
        """Everything that depends on the click window: entity graph →
        clustering → taxonomy → descriptions → correlation.

        The one place these stages are spelled out; a full fit and a
        window slide with warm embeddings both end here. ``timings``
        holds the stages the caller already ran and gains these.
        """
        cfg = self._config

        with fit_stage("entity_graph", timings):
            builder = EntityGraphBuilder(embeddings, self._tokenizer, cfg.entity_graph)
            entity_graph = builder.build(bipartite, titles)
        with fit_stage("clustering", timings):
            clustering = ParallelHAC(cfg.clustering).fit(entity_graph)
        with fit_stage("taxonomy", timings):
            taxonomy = Taxonomy.from_dendrogram(
                clustering.dendrogram,
                entity_categories or {},
                min_topic_size=cfg.min_topic_size,
            )
        with fit_stage("descriptions", timings):
            describer = TopicDescriber(self._tokenizer, cfg.descriptions)
            descriptions = describer.describe(
                taxonomy, bipartite, titles, query_texts
            )
        with fit_stage("correlation", timings):
            correlations = CategoryCorrelationMiner(cfg.correlation).mine(taxonomy)

        return ShoalModel(
            config=cfg,
            bipartite=bipartite,
            embeddings=embeddings,
            entity_graph=entity_graph,
            clustering=clustering,
            taxonomy=taxonomy,
            descriptions=descriptions,
            correlations=correlations,
            titles=titles,
            query_texts=query_texts,
            stage_seconds=timings,
        )
