"""BM25 (Okapi) relevance scorer.

Paper Sec. 2.3 defines the concentration of a query for a topic via
``rel(q, D_k)``, "the BM25 relevance of query q to D_k", where ``D_k``
is the pseudo-document made by concatenating every item title in topic
``t_k``. This module provides a standard, from-scratch Okapi BM25 over
tokenised documents.

Each token's postings are stored in *impact order* — the order
:meth:`BM25.top_k` ranks in: descending term, then ascending document
index. A query with exactly one indexed token is therefore answered by
a prefix of that token's postings, with no accumulation and no sort;
a query with several adds its tokens' terms per document, in query
order, and sorts only the documents it touched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import islice
from operator import itemgetter
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

    The index is one posting map, ``token → {doc_index: term}``, where
    ``term`` is the token's whole BM25 contribution to that document,
    ``idf * (f * (k1 + 1)) / (f + k1 * (1 - b + b * dl / avgdl))``,
    computed once here. A query's score for a document is the sum of
    its tokens' terms in query order, so :meth:`score`, :meth:`scores`
    and :meth:`top_k` all add the same floats in the same order.

    Each posting map is sorted once, in place, into impact order
    (descending term, ascending document index); no second ranked copy
    is kept.
    """

    def __init__(
        self,
        documents: Sequence[Sequence[str]],
        config: BM25Config = BM25Config(),
        *,
        collection_stats: Optional[CollectionStats] = None,
    ):
        self._config = config
        counts: List[Dict[str, int]] = []
        lengths: List[int] = []
        df: Dict[str, int] = {}
        for doc in documents:
            tf: Dict[str, int] = {}
            for tok in doc:
                tf[tok] = tf.get(tok, 0) + 1
            counts.append(tf)
            lengths.append(len(doc))
            for tok in tf:
                df[tok] = df.get(tok, 0) + 1
        n = len(counts)
        if collection_stats is None:
            collection_stats = CollectionStats(
                n_documents=n,
                average_document_length=(sum(lengths) / n) if n else 0.0,
                document_frequencies=df,
            )
        # Local document count stays local (bounds checks, scores());
        # the global count only enters through the IDF table.
        self._stats = collection_stats
        self._n_docs = n
        self._avg_len = avg_len = collection_stats.average_document_length
        self._idf: Dict[str, float] = collection_stats.idf()
        k1, b = config.k1, config.b
        self._terms: Dict[str, Dict[int, float]] = {}
        for doc_index, (tf, dl) in enumerate(zip(counts, lengths)):
            # Without a length norm (avgdl 0) every document scores zero.
            norm = k1 * (1.0 - b + b * dl / avg_len) if avg_len else 0.0
            for tok, f in tf.items():
                self._terms.setdefault(tok, {})[doc_index] = (
                    self._idf.get(tok, 0.0) * (f * (k1 + 1.0)) / (f + norm)
                    if avg_len else 0.0
                )
        # Impact order: documents were added in ascending index order
        # and a reversed sort is stable, so equal terms keep that order.
        impact = itemgetter(1)
        for tok, postings in self._terms.items():
            self._terms[tok] = dict(
                sorted(postings.items(), key=impact, reverse=True)
            )

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
        return frozenset(self._terms)

    def idf(self, token: str) -> float:
        """Smoothed IDF of a token (0.0 for unseen tokens)."""
        return self._idf.get(token, 0.0)

    # -- scoring --------------------------------------------------------------

    def score(self, query_tokens: Sequence[str], doc_index: int) -> float:
        """BM25 relevance of the query to document ``doc_index``."""
        if not 0 <= doc_index < self._n_docs:
            raise IndexError(f"doc_index {doc_index} out of range")
        total = 0.0
        for tok in query_tokens:
            term = self._terms.get(tok, {}).get(doc_index)
            if term is not None:
                total += term
        return total

    def scores(self, query_tokens: Sequence[str]) -> np.ndarray:
        """BM25 relevance of the query to every document.

        Walks the posting map of each query token in query order, so a
        document receives exactly the additions :meth:`score` would
        make for it, in the same order: equal floats, without visiting
        the documents that share no token with the query.
        """
        totals = [0.0] * self._n_docs
        for tok in query_tokens:
            for doc_index, term in self._terms.get(tok, {}).items():
                totals[doc_index] += term
        return np.array(totals, dtype=float)

    def top_k(self, query_tokens: Sequence[str], k: int = 10) -> List[tuple]:
        """Top-``k`` (doc_index, score) pairs by descending relevance.

        Tokens the index does not hold add nothing and are dropped
        first. One remaining token: the answer is a prefix of its
        impact-ordered postings. Several: their posting terms are summed,
        in query order, into one total per document that shares a token
        with the query — every other document scores zero, so the
        pruning is exact. Keeps positive totals; ties break toward the
        lower document index.
        """
        if k <= 0:
            return []
        terms = self._terms
        postings = [terms[tok] for tok in query_tokens if tok in terms]
        if len(postings) == 1:
            # Terms are never negative, so the positive ones lead.
            ranked = []
            for pair in islice(postings[0].items(), k):
                if not pair[1] > 0.0:
                    break
                ranked.append(pair)
            return ranked
        if not postings:
            return []
        # The first token's terms start the totals: 0.0 + term is term.
        totals = dict(postings[0])
        get = totals.get
        for extra in postings[1:]:
            for doc_index, term in extra.items():
                totals[doc_index] = get(doc_index, 0.0) + term
        keyed = sorted([(-s, i) for i, s in totals.items() if s > 0.0])
        return [(i, -neg) for neg, i in keyed[:k]]
