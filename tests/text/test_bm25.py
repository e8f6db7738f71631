"""Tests for repro.text.bm25."""

import math

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.text.bm25 import BM25, BM25Config, CollectionStats

DOCS = [
    ["beach", "dress", "summer", "beach"],
    ["winter", "coat", "snow"],
    ["beach", "towel"],
    ["dress", "formal", "evening", "dress", "silk"],
]


@pytest.fixture(scope="module")
def index():
    return BM25(DOCS)


class TestScoring:
    def test_relevant_doc_scores_higher(self, index):
        s = index.scores(["beach"])
        assert s[0] > s[1]
        assert s[2] > s[1]

    def test_absent_term_scores_zero(self, index):
        assert index.score(["spaceship"], 0) == 0.0

    def test_term_frequency_saturation(self, index):
        """Doc 3 has 'dress' twice; score grows sublinearly with tf."""
        one = BM25([["dress"], ["x"]])
        many = BM25([["dress"] * 10, ["x"]])
        assert many.score(["dress"], 0) < 10 * one.score(["dress"], 0)

    def test_idf_positive(self, index):
        for tok in ("beach", "dress", "silk"):
            assert index.idf(tok) > 0

    def test_idf_rarer_term_higher(self, index):
        assert index.idf("silk") > index.idf("beach")

    def test_idf_unknown_zero(self, index):
        assert index.idf("spaceship") == 0.0

    def test_multi_term_additive(self, index):
        s_both = index.score(["beach", "dress"], 0)
        s_beach = index.score(["beach"], 0)
        s_dress = index.score(["dress"], 0)
        assert s_both == pytest.approx(s_beach + s_dress)

    def test_length_normalisation(self):
        """Same tf, longer doc → lower score (b > 0)."""
        idx = BM25([["q", "a", "b", "c", "d", "e"], ["q"]])
        assert idx.score(["q"], 1) > idx.score(["q"], 0)

    def test_index_bounds(self, index):
        with pytest.raises(IndexError):
            index.score(["beach"], 99)


class TestTopK:
    def test_top_k_order(self, index):
        top = index.top_k(["beach"], k=3)
        scores = [s for _, s in top]
        assert scores == sorted(scores, reverse=True)

    def test_top_k_excludes_zero_scores(self, index):
        top = index.top_k(["silk"], k=10)
        assert all(s > 0 for _, s in top)
        assert [i for i, _ in top] == [3]

    def test_empty_query(self, index):
        assert index.top_k([], k=3) == []

    def test_nonpositive_k(self, index):
        assert index.top_k(["beach"], k=0) == []
        assert index.top_k(["beach"], k=-1) == []

    def test_pruned_matches_full_scan(self, index):
        """Posting-list pruning is exact: top_k agrees with brute-force
        scoring of every document."""
        for query in (["beach"], ["dress", "silk"], ["beach", "winter"]):
            full = sorted(
                (
                    (i, index.score(query, i))
                    for i in range(index.n_documents)
                ),
                key=lambda pair: (-pair[1], pair[0]),
            )
            expected = [(i, s) for i, s in full if s > 0.0][:10]
            assert index.top_k(query, k=10) == expected


def _matched(index, query):
    """Documents top_k returns for ``query`` with room for all of them."""
    return sorted(i for i, _ in index.top_k(query, k=index.n_documents))


class TestCandidates:
    def test_candidates_cover_matching_docs(self, index):
        assert _matched(index, ["beach"]) == [0, 2]
        assert _matched(index, ["beach", "snow"]) == [0, 1, 2]

    def test_unknown_token_no_candidates(self, index):
        assert _matched(index, ["spaceship"]) == []

    def test_duplicate_query_tokens(self, index):
        assert _matched(index, ["beach", "beach"]) == [0, 2]


class TestEdgeCases:
    def test_empty_collection(self):
        idx = BM25([])
        assert idx.n_documents == 0
        assert idx.average_document_length == 0.0

    def test_empty_documents(self):
        idx = BM25([[], []])
        assert idx.score(["x"], 0) == 0.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BM25Config(k1=0)
        with pytest.raises(ValueError):
            BM25Config(b=1.5)


# -- against an independent reference ------------------------------------------

VOCAB = ("sun", "sand", "ice", "ski")
UNSEEN = "zzz"

documents = st.one_of(
    st.lists(st.lists(st.sampled_from(VOCAB), max_size=6), max_size=7),
    # every document empty: average length 0
    st.lists(st.just([]), min_size=1, max_size=4),
)
queries = st.lists(st.sampled_from(VOCAB + (UNSEEN,)), max_size=5)
#: How a drawn query is reshaped before it is asked.
FOCUS = ("as drawn", "one indexed token", "one indexed token, repeated")


def focused(query, docs, focus):
    """``query`` as drawn, or reshaped to hold exactly one token the
    index holds (absent tokens around it kept), or that token at least
    twice. An index with no tokens leaves the query as drawn."""
    indexed = sorted({tok for doc in docs for tok in doc})
    if focus == "as drawn" or not indexed:
        return query
    first = next((tok for tok in query if tok in indexed), indexed[0])
    if focus == "one indexed token":
        absent = [UNSEEN if tok in indexed else tok for tok in query]
        if first in query:
            at = query.index(first)
            return absent[:at] + [first] + absent[at + 1:]
        return absent + [first]
    return [first if tok in indexed else tok for tok in query] + [first]


def reference_scores(docs, query, stats, config=BM25Config()):
    """The per-document formula, written out: each document's tf dict
    and length norm, the query's terms summed in query order."""
    k1, b = config.k1, config.b
    n, avgdl = stats.n_documents, stats.average_document_length
    out = []
    for doc in docs:
        tf = {}
        for tok in doc:
            tf[tok] = tf.get(tok, 0) + 1
        if avgdl == 0:
            out.append(0.0)
            continue
        norm = k1 * (1.0 - b + b * len(doc) / avgdl)
        total = 0.0
        for tok in query:
            f = tf.get(tok, 0)
            if f == 0:
                continue
            d = stats.document_frequencies.get(tok)
            idf = 0.0 if d is None else math.log(1.0 + (n - d + 0.5) / (d + 0.5))
            total += idf * (f * (k1 + 1.0)) / (f + norm)
        out.append(total)
    return out


def reference_top_k(docs, query, k, stats):
    if k <= 0:
        return []
    ranked = sorted(
        ((i, s) for i, s in enumerate(reference_scores(docs, query, stats)) if s > 0.0),
        key=lambda pair: (-pair[1], pair[0]),
    )
    return ranked[:k]


class TestAgainstReference:
    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        docs=documents,
        extra=st.lists(st.lists(st.sampled_from(VOCAB), max_size=9), max_size=3),
        query=queries,
        focus=st.sampled_from(FOCUS),
        corpus=st.sampled_from(["local", "partition", "foreign"]),
        k=st.integers(min_value=-1, max_value=9),
    )
    @example(docs=[[], []], extra=[], query=["sun"], focus="as drawn",
             corpus="local", k=3)
    @example(docs=[["sun"], ["sun"], ["ice"], ["sun"]], extra=[],
             query=["sun", "sun"], focus="as drawn", corpus="local", k=2)
    @example(docs=[["sun"], ["ice"]], extra=[["ice"]], query=["sun"],
             focus="as drawn", corpus="foreign", k=2)
    # one indexed token between absent ones, k below the match count
    @example(docs=[["sun", "ice"], ["sun"], ["ice"], ["sun", "sun"]],
             extra=[], query=[UNSEEN, "sun", "ski"],
             focus="one indexed token", corpus="local", k=2)
    # one indexed token against a foreign corpus of empty documents:
    # average length 0, every term 0.0, nothing returned
    @example(docs=[["sun"], ["sun", "ice"]], extra=[[], []], query=["sun"],
             focus="one indexed token", corpus="foreign", k=3)
    def test_top_k_and_scores_equal_the_formula(
        self, docs, extra, query, focus, corpus, k
    ):
        """Equal floats (``==``), equal order, ties toward the lower
        document index — against the local statistics, as a partition
        of a larger corpus, and against a foreign corpus that lacks some
        local tokens (IDF 0, so a matching document can total 0.0) or
        whose documents are all empty (average length 0). Queries are
        also reshaped to exactly one indexed token (the prefix path) or
        to one indexed token repeated."""
        query = focused(query, docs, focus)
        if focus == "one indexed token" and any(docs):
            held = {tok for doc in docs for tok in doc}
            assert sum(tok in held for tok in query) == 1
        if corpus == "local":
            stats = CollectionStats.from_documents(docs)
            bm25 = BM25(docs)
        else:
            stats = CollectionStats.from_documents(
                docs + extra if corpus == "partition" else extra
            )
            bm25 = BM25(docs, collection_stats=stats)
        assert bm25.top_k(query, k) == reference_top_k(docs, query, k, stats)
        assert bm25.scores(query).tolist() == reference_scores(docs, query, stats)

    def test_ties_break_toward_the_lower_index(self):
        bm25 = BM25([["ice"], ["sun"], ["ski"], ["sun"], ["sun"]])
        assert [i for i, _ in bm25.top_k(["sun"], k=2)] == [1, 3]

    def test_k_above_the_match_count_returns_every_match(self):
        bm25 = BM25([["sun", "sand"], ["ice"], ["sand"]])
        assert [i for i, _ in bm25.top_k(["sand"], k=50)] == [2, 0]
