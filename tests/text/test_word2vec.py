"""Tests for repro.text.word2vec (SGNS trainer + embeddings)."""

import numpy as np
import pytest

from repro.text.vocab import Vocabulary, VocabularyBuildConfig, build_vocabulary
from repro.text.word2vec import Word2Vec, Word2VecConfig, WordEmbeddings


def synthetic_corpus(n_docs: int = 400, seed: int = 0):
    """Two disjoint topical clusters: words within a cluster co-occur."""
    rng = np.random.default_rng(seed)
    cluster_a = [f"sun{i}" for i in range(10)]
    cluster_b = [f"ice{i}" for i in range(10)]
    docs = []
    for _ in range(n_docs):
        pool = cluster_a if rng.random() < 0.5 else cluster_b
        docs.append([pool[int(i)] for i in rng.integers(0, len(pool), size=6)])
    return docs, cluster_a, cluster_b


@pytest.fixture(scope="module")
def trained():
    docs, a, b = synthetic_corpus()
    model = Word2Vec(Word2VecConfig(dim=16, epochs=20, window=3, seed=0))
    emb = model.fit(docs)
    return emb, a, b


class TestTraining:
    def test_embedding_shape(self, trained):
        emb, a, b = trained
        assert emb.dim == 16
        assert emb.matrix.shape == (len(emb.vocabulary), 16)

    def test_within_cluster_similarity_exceeds_between(self, trained):
        """The semantic sanity check: topical neighbours embed closer."""
        emb, a, b = trained
        within = np.mean([emb.similarity(a[0], w) for w in a[1:]])
        between = np.mean([emb.similarity(a[0], w) for w in b])
        assert within > between + 0.2

    def test_most_similar_prefers_cluster(self, trained):
        emb, a, b = trained
        top = [w for w, _ in emb.most_similar(a[0], k=3)]
        assert len(set(top) & set(a)) >= 2

    def test_deterministic(self):
        docs, _, _ = synthetic_corpus(100)
        cfg = Word2VecConfig(dim=8, epochs=2, batch_size=512, seed=3)
        e1 = Word2Vec(cfg).fit(docs)
        e2 = Word2Vec(cfg).fit(docs)
        assert np.allclose(e1.matrix, e2.matrix)

    def test_empty_corpus_raises(self):
        with pytest.raises(ValueError):
            Word2Vec(Word2VecConfig(dim=4)).fit([[]])

    def test_single_token_docs_train_nothing_but_work(self):
        emb = Word2Vec(Word2VecConfig(dim=4, seed=0)).fit([["lonely"], ["alone"]])
        assert "lonely" in emb

    def test_prebuilt_vocabulary_respected(self):
        docs, _, _ = synthetic_corpus(50)
        vocab = build_vocabulary(docs)
        emb = Word2Vec(Word2VecConfig(dim=8, epochs=1, seed=0)).fit(docs, vocab)
        assert emb.vocabulary is vocab

    def test_explicit_empty_vocabulary_raises(self):
        """An empty vocabulary is falsy (``__len__``); passing one must
        not read as passing none and fall back to the corpus's own."""
        docs, _, _ = synthetic_corpus(50)
        empty = Vocabulary([], np.zeros(0, dtype=np.int64), VocabularyBuildConfig())
        with pytest.raises(ValueError, match="empty vocabulary"):
            Word2Vec(Word2VecConfig(dim=8, epochs=1, seed=0)).fit(docs, empty)


class TestEmbeddingsLookup:
    def test_unknown_word_zero_vector(self, trained):
        emb, _, _ = trained
        assert not emb.vector("nonexistent").any()
        assert not emb.unit_vector("nonexistent").any()

    def test_unit_vector_normalised(self, trained):
        emb, a, _ = trained
        v = emb.unit_vector(a[0])
        assert np.linalg.norm(v) == pytest.approx(1.0)

    def test_contains(self, trained):
        emb, a, _ = trained
        assert a[0] in emb
        assert "zzz" not in emb

    def test_similarity_unknown_is_zero(self, trained):
        emb, a, _ = trained
        assert emb.similarity(a[0], "zzz") == 0.0

    def test_vectors_stack_known_only(self, trained):
        emb, a, _ = trained
        m = emb.vectors([a[0], "zzz", a[1]])
        assert m.shape == (2, emb.dim)

    def test_vectors_empty(self, trained):
        emb, _, _ = trained
        assert emb.vectors(["zzz"]).shape == (0, emb.dim)

    def test_most_similar_unknown_empty(self, trained):
        emb, _, _ = trained
        assert emb.most_similar("zzz") == []

    def test_matrix_mismatch_rejected(self, trained):
        emb, _, _ = trained
        with pytest.raises(ValueError):
            WordEmbeddings(emb.vocabulary, np.zeros((1, 4)))


class TestConfigValidation:
    def test_positive_params(self):
        with pytest.raises(ValueError):
            Word2VecConfig(dim=0)
        with pytest.raises(ValueError):
            Word2VecConfig(epochs=0)

    def test_lr_ordering(self):
        with pytest.raises(ValueError):
            Word2VecConfig(learning_rate=0.01, min_learning_rate=0.1)
