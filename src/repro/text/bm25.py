"""BM25 (Okapi) relevance scorer.

Paper Sec. 2.3 defines the concentration of a query for a topic via
``rel(q, D_k)``, "the BM25 relevance of query q to D_k", where ``D_k``
is the pseudo-document made by concatenating every item title in topic
``t_k``. This module provides a standard, from-scratch Okapi BM25 over
tokenised documents.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence

import numpy as np

from repro._util import check_positive

__all__ = ["BM25Config", "BM25", "CollectionStats"]


@dataclass(frozen=True)
class BM25Config:
    """Okapi BM25 parameters (classic defaults)."""

    k1: float = 1.5
    b: float = 0.75

    def __post_init__(self) -> None:
        check_positive("k1", self.k1)
        if not 0.0 <= self.b <= 1.0:
            raise ValueError(f"b must be in [0, 1], got {self.b!r}")


@dataclass(frozen=True)
class CollectionStats:
    """Corpus-level BM25 statistics, detachable from any single index.

    Every score a BM25 index produces depends on three collection-wide
    quantities: the document count ``n_documents`` (for IDF), the
    per-token document frequencies (for IDF), and the average document
    length (for length normalisation). A *partition* of a collection —
    e.g. one shard of a sharded serving cluster — must score its local
    documents against the statistics of the **whole** collection, or
    its scores drift from the unsharded index and merged top-k lists
    stop being answer-transparent. This dataclass carries exactly those
    statistics so they can be exported from a full index, persisted as
    JSON, and injected into per-shard indexes.
    """

    n_documents: int
    average_document_length: float
    document_frequencies: Dict[str, int] = field(default_factory=dict)

    @classmethod
    def from_documents(
        cls, documents: Sequence[Sequence[str]]
    ) -> "CollectionStats":
        """Compute collection statistics exactly as :class:`BM25` does."""
        df: Dict[str, int] = {}
        lengths: List[int] = []
        for doc in documents:
            lengths.append(len(doc))
            for tok in set(doc):
                df[tok] = df.get(tok, 0) + 1
        n = len(lengths)
        return cls(
            n_documents=n,
            average_document_length=(sum(lengths) / n) if n else 0.0,
            document_frequencies=df,
        )

    def idf(self) -> Dict[str, float]:
        """Smoothed IDF table derived from these statistics."""
        n = self.n_documents
        return {
            tok: math.log(1.0 + (n - d + 0.5) / (d + 0.5))
            for tok, d in self.document_frequencies.items()
        }


class BM25:
    """Okapi BM25 index over a fixed collection of tokenised documents.

    IDF uses the standard smoothed formulation
    ``log(1 + (N - df + 0.5) / (df + 0.5))`` which is always positive,
    avoiding the negative-IDF pathology for very common terms.

    ``collection_stats`` optionally scores the local documents against
    the statistics of a larger collection this index is a partition of
    (see :class:`CollectionStats`); postings and term frequencies stay
    local, only IDF and the length norm come from the global numbers.
    """

    def __init__(
        self,
        documents: Sequence[Sequence[str]],
        config: BM25Config = BM25Config(),
        *,
        collection_stats: Optional[CollectionStats] = None,
    ):
        self._config = config
        self._doc_freqs: List[Dict[str, int]] = []
        self._doc_lengths: List[int] = []
        self._postings: Dict[str, List[int]] = {}
        df: Dict[str, int] = {}
        for doc_index, doc in enumerate(documents):
            tf: Dict[str, int] = {}
            for tok in doc:
                tf[tok] = tf.get(tok, 0) + 1
            self._doc_freqs.append(tf)
            self._doc_lengths.append(len(doc))
            for tok in tf:
                df[tok] = df.get(tok, 0) + 1
                self._postings.setdefault(tok, []).append(doc_index)
        n = len(self._doc_freqs)
        if collection_stats is None:
            collection_stats = CollectionStats(
                n_documents=n,
                average_document_length=(
                    (sum(self._doc_lengths) / n) if n else 0.0
                ),
                document_frequencies=df,
            )
        # Local document count stays local (bounds checks, scores());
        # the global count only enters through the IDF table.
        self._stats = collection_stats
        self._n_docs = n
        self._avg_len = collection_stats.average_document_length
        self._idf: Dict[str, float] = collection_stats.idf()

    # -- accessors ----------------------------------------------------------

    @property
    def n_documents(self) -> int:
        return self._n_docs

    @property
    def average_document_length(self) -> float:
        return self._avg_len

    @property
    def collection_stats(self) -> CollectionStats:
        """The collection statistics this index scores against."""
        return self._stats

    def indexed_tokens(self) -> FrozenSet[str]:
        """Tokens with a non-empty local posting list.

        A query sharing no token with this set scores zero against
        every local document, so a router may skip this index entirely.
        """
        return frozenset(self._postings)

    def idf(self, token: str) -> float:
        """Smoothed IDF of a token (0.0 for unseen tokens)."""
        return self._idf.get(token, 0.0)

    def candidates(self, query_tokens: Sequence[str]) -> List[int]:
        """Documents containing at least one query token, ascending.

        Every document with a non-zero BM25 score for the query is in
        this list, so scoring only candidates is exact top-k pruning,
        not an approximation.
        """
        seen: set = set()
        for tok in query_tokens:
            seen.update(self._postings.get(tok, ()))
        return sorted(seen)

    # -- scoring --------------------------------------------------------------

    def score(self, query_tokens: Sequence[str], doc_index: int) -> float:
        """BM25 relevance of the query to document ``doc_index``."""
        if not 0 <= doc_index < self._n_docs:
            raise IndexError(f"doc_index {doc_index} out of range")
        if self._avg_len == 0:
            return 0.0
        cfg = self._config
        tf = self._doc_freqs[doc_index]
        dl = self._doc_lengths[doc_index]
        norm = cfg.k1 * (1.0 - cfg.b + cfg.b * dl / self._avg_len)
        total = 0.0
        for tok in query_tokens:
            f = tf.get(tok, 0)
            if f == 0:
                continue
            total += self._idf.get(tok, 0.0) * (f * (cfg.k1 + 1.0)) / (f + norm)
        return total

    def scores(self, query_tokens: Sequence[str]) -> np.ndarray:
        """BM25 relevance of the query to every document.

        Walks the posting list of each query token in query order, so a
        document receives exactly the additions :meth:`score` would
        make for it, in the same order: equal floats, without visiting
        the documents that share no token with the query.
        """
        totals = [0.0] * self._n_docs
        if self._avg_len == 0:
            return np.array(totals, dtype=float)
        cfg = self._config
        for tok in query_tokens:
            idf = self._idf.get(tok, 0.0)
            for doc_index in self._postings.get(tok, ()):
                f = self._doc_freqs[doc_index][tok]
                dl = self._doc_lengths[doc_index]
                norm = cfg.k1 * (1.0 - cfg.b + cfg.b * dl / self._avg_len)
                totals[doc_index] += idf * (f * (cfg.k1 + 1.0)) / (f + norm)
        return np.array(totals, dtype=float)

    def top_k(self, query_tokens: Sequence[str], k: int = 10) -> List[tuple]:
        """Top-``k`` (doc_index, score) pairs by descending relevance.

        Scores only the posting-list candidates instead of the full
        collection; ties break toward the lower document index.
        """
        if k <= 0:
            return []
        scored = [
            (self.score(query_tokens, i), i)
            for i in self.candidates(query_tokens)
        ]
        top = heapq.nlargest(k, scored, key=lambda si: (si[0], -si[1]))
        return [(i, s) for s, i in top if s > 0.0]
