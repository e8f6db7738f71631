"""Topic description matching (paper Sec. 2.3).

Each topic is tagged with the queries that best represent it. The
representativeness of query ``q`` for topic ``t_k`` combines two
factors (adapted from TaxoGen [6] as the paper notes):

* **popularity** — how often ``q`` was issued against items of the
  topic, frequency-normalised::

      pop(q, t_k) = (log tf(q, I_k) + 1) / log tf(I_k)

  where ``tf(q, I_k)`` counts occurrences of ``q`` with the topic's
  items and ``tf(I_k)`` is the total token count of the topic;

* **concentration** — how much more relevant ``q`` is to this topic's
  pseudo-document than to other topics', via a softmax over BM25::

      con(q, t_k) = exp(rel(q, D_k)) / (1 + Σ_j exp(rel(q, D_j)))

  where ``D_k`` concatenates all titles of the topic's items.

The final score is the geometric mean ``r = sqrt(pop · con)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro._util import check_positive, safe_log
from repro.core.taxonomy import Taxonomy, Topic
from repro.graph.bipartite import QueryItemGraph
from repro.text.bm25 import BM25, BM25Config
from repro.text.tokenizer import Tokenizer

__all__ = ["DescriptionConfig", "QueryScore", "TopicDescriber"]


@dataclass(frozen=True)
class DescriptionConfig:
    """Description-matching parameters.

    ``top_k`` representative queries are attached per topic.
    ``softmax_scale`` divides BM25 scores before exponentiation to
    avoid overflow on long pseudo-documents (a pure numerical guard —
    ranking is unchanged because the scale is shared across topics).
    """

    top_k: int = 3
    bm25: BM25Config = BM25Config()
    softmax_scale: float = 10.0

    def __post_init__(self) -> None:
        check_positive("top_k", self.top_k)
        check_positive("softmax_scale", self.softmax_scale)


@dataclass(frozen=True)
class QueryScore:
    """Scored candidate description for a topic."""

    query_id: int
    text: str
    popularity: float
    concentration: float

    @property
    def representativeness(self) -> float:
        """Paper: r(q, t_k) = sqrt(pop · con)."""
        return math.sqrt(max(0.0, self.popularity) * max(0.0, self.concentration))


class TopicDescriber:
    """Scores and attaches representative queries to taxonomy topics."""

    def __init__(
        self,
        tokenizer: Optional[Tokenizer] = None,
        config: DescriptionConfig = DescriptionConfig(),
    ):
        self._tokenizer = tokenizer or Tokenizer()
        self._config = config

    @property
    def config(self) -> DescriptionConfig:
        return self._config

    # -- main entry -----------------------------------------------------------

    def describe(
        self,
        taxonomy: Taxonomy,
        bipartite: QueryItemGraph,
        titles: Dict[int, str],
        query_texts: Dict[int, str],
    ) -> Dict[int, List[QueryScore]]:
        """Score candidate queries for every topic; mutates topics'
        ``descriptions`` with the top-k texts and returns all scores.

        ``titles`` maps entity id → title; ``query_texts`` maps query
        id → query string.
        """
        topics = taxonomy.topics()
        if not topics:
            return {}
        pseudo_docs = [self._pseudo_document(t, titles) for t in topics]
        bm25 = BM25(pseudo_docs, self._config.bm25)

        # A query's softmax row does not depend on the topic asking, so
        # group the candidates by query and compute each row once.
        by_query: Dict[int, List[Tuple[int, int]]] = {}
        for idx, topic in enumerate(topics):
            for q, tf_q in self._candidate_queries(topic, bipartite).items():
                by_query.setdefault(q, []).append((idx, tf_q))
        scored: List[List[QueryScore]] = [[] for _ in topics]
        for q, wanted in by_query.items():
            text = query_texts.get(q)
            if text is None:
                continue
            con = self.concentrations(bm25, self._tokenizer.tokenize(text))
            for idx, tf_q in wanted:
                pop = self.popularity(tf_q, len(pseudo_docs[idx]))
                scored[idx].append(QueryScore(q, text, pop, float(con[idx])))

        result: Dict[int, List[QueryScore]] = {}
        for topic, scores in zip(topics, scored):
            scores.sort(key=lambda s: (-s.representativeness, s.query_id))
            result[topic.topic_id] = scores
            topic.descriptions = [
                s.text for s in scores[: self._config.top_k]
            ]
        return result

    # -- pieces ------------------------------------------------------------------

    def _pseudo_document(self, topic: Topic, titles: Dict[int, str]) -> List[str]:
        """D_k: concatenated tokenised titles of the topic's entities."""
        tokens: List[str] = []
        for e in topic.entity_ids:
            tokens.extend(self._tokenizer.tokenize(titles.get(e, "")))
        return tokens

    def _candidate_queries(
        self, topic: Topic, bipartite: QueryItemGraph
    ) -> Dict[int, int]:
        """query id → tf(q, I_k): total clicks of q on the topic's items."""
        counts: Dict[int, int] = {}
        for e in topic.entity_ids:
            for q, c in bipartite.query_clicks_of_entity(e).items():
                counts[q] = counts.get(q, 0) + c
        return counts

    def popularity(self, tf_q: int, topic_tokens: int) -> float:
        """pop(q, t_k) = (log tf(q, I_k) + 1) / log tf(I_k)."""
        if tf_q <= 0:
            return 0.0
        denom = safe_log(topic_tokens)
        if denom <= 0.0:
            return 0.0
        return (safe_log(tf_q) + 1.0) / denom

    def concentrations(
        self, bm25: BM25, query_tokens: Sequence[str]
    ) -> np.ndarray:
        """Softmax of BM25 relevance across topic pseudo-documents: the
        query's concentration for every topic at once."""
        rels = bm25.scores(query_tokens) / self._config.softmax_scale
        # The paper's denominator carries a +1; reproduce it in the
        # shifted domain (the shift cancels in ranking but we keep the
        # formula close to the paper by working with raw scores when safe).
        raw = np.exp(np.clip(rels, None, 700.0))
        return raw / (1.0 + float(raw.sum()))
