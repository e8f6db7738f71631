"""Skip-gram word2vec with negative sampling, pure numpy.

Paper Sec. 2.1 obtains "a set of word vectors using the word2vec
technique". No embedding library is available offline, so we implement
SGNS directly: for each (center, context) pair within a window, update
input vectors W and output vectors C by SGD on the negative-sampling
objective. Mini-batched numpy updates keep training fast enough for the
bench corpora (tens of thousands of tokens).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro._util import check_positive, ensure_rng, normalize_rows
from repro.text.vocab import Vocabulary

__all__ = ["Word2VecConfig", "WordEmbeddings", "Word2Vec"]


@dataclass(frozen=True)
class Word2VecConfig:
    """SGNS hyper-parameters (defaults tuned for the synthetic corpus)."""

    dim: int = 32
    window: int = 4
    negatives: int = 5
    epochs: int = 12
    learning_rate: float = 0.1
    min_learning_rate: float = 0.01
    batch_size: int = 256
    subsample: bool = True
    seed: int = 0

    def __post_init__(self) -> None:
        check_positive("dim", self.dim)
        check_positive("window", self.window)
        check_positive("negatives", self.negatives)
        check_positive("epochs", self.epochs)
        check_positive("learning_rate", self.learning_rate)
        check_positive("min_learning_rate", self.min_learning_rate)
        check_positive("batch_size", self.batch_size)
        if self.min_learning_rate > self.learning_rate:
            raise ValueError("min_learning_rate must be <= learning_rate")


class WordEmbeddings:
    """Trained word vectors with lookup helpers.

    Wraps the input-embedding matrix of a trained SGNS model; rows are
    L2-normalisable on demand. Unknown words map to a zero vector so
    downstream similarity degrades gracefully instead of raising.
    """

    def __init__(self, vocabulary: Vocabulary, matrix: np.ndarray):
        if matrix.shape[0] != len(vocabulary):
            raise ValueError("embedding matrix and vocabulary size mismatch")
        self._vocab = vocabulary
        self._matrix = np.asarray(matrix, dtype=np.float64)
        self._unit = normalize_rows(self._matrix)

    @property
    def dim(self) -> int:
        return self._matrix.shape[1]

    @property
    def vocabulary(self) -> Vocabulary:
        return self._vocab

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix.copy()

    def __contains__(self, word: str) -> bool:
        return word in self._vocab

    def vector(self, word: str) -> np.ndarray:
        """Raw vector of ``word``; zeros if out of vocabulary."""
        idx = self._vocab.get(word)
        if idx < 0:
            return np.zeros(self.dim)
        return self._matrix[idx].copy()

    def unit_vector(self, word: str) -> np.ndarray:
        """L2-normalised vector of ``word``; zeros if out of vocabulary."""
        idx = self._vocab.get(word)
        if idx < 0:
            return np.zeros(self.dim)
        return self._unit[idx].copy()

    def vectors(self, words: Sequence[str]) -> np.ndarray:
        """Stack raw vectors for known words only (may return 0 rows)."""
        ids = [self._vocab.get(w) for w in words]
        ids = [i for i in ids if i >= 0]
        if not ids:
            return np.zeros((0, self.dim))
        return self._matrix[ids].copy()

    def unit_vectors(self, words: Sequence[str]) -> np.ndarray:
        ids = [self._vocab.get(w) for w in words]
        ids = [i for i in ids if i >= 0]
        if not ids:
            return np.zeros((0, self.dim))
        return self._unit[ids].copy()

    def similarity(self, a: str, b: str) -> float:
        """Cosine similarity between two words (0.0 if either unknown)."""
        va, vb = self.unit_vector(a), self.unit_vector(b)
        return float(np.dot(va, vb))

    def most_similar(self, word: str, k: int = 10) -> List[tuple]:
        """Top-``k`` (word, cosine) neighbours, excluding the word itself."""
        idx = self._vocab.get(word)
        if idx < 0:
            return []
        sims = self._unit @ self._unit[idx]
        order = np.argsort(sims)[::-1]
        out = []
        for j in order:
            if int(j) == idx:
                continue
            out.append((self._vocab.word_of(int(j)), float(sims[j])))
            if len(out) >= k:
                break
        return out


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -30.0, 30.0)))


def _add_rows(w: np.ndarray, rows: np.ndarray, grads: np.ndarray, scale: float) -> None:
    """``np.add.at(w, rows, scale * grads)`` bit for bit, on the flat view of
    ``w`` with one index per element: each element still gets its addends in
    ``rows`` order, and 1-D indices into a 1-D target are what ``ufunc.at``
    has a fast loop for (2-D indices are slower, reordering changes floats).
    ``grads`` is scaled in place: the index takes the room of the product."""
    index = rows[:, None] * w.shape[1] + np.arange(w.shape[1])
    grads *= scale
    np.add.at(w.reshape(-1), index.reshape(-1), grads.reshape(-1))


class Word2Vec:
    """Skip-gram negative-sampling trainer.

    Typical use::

        model = Word2Vec(Word2VecConfig(dim=32))
        embeddings = model.fit(token_docs)
    """

    def __init__(self, config: Word2VecConfig = Word2VecConfig()):
        self._config = config

    @property
    def config(self) -> Word2VecConfig:
        return self._config

    # -- training ----------------------------------------------------------

    def fit(
        self,
        token_docs: Sequence[Sequence[str]],
        vocabulary: Optional[Vocabulary] = None,
    ) -> WordEmbeddings:
        """Train on a tokenised corpus and return the embeddings."""
        from repro.text.vocab import build_vocabulary

        cfg = self._config
        rng = ensure_rng(cfg.seed)
        vocab = vocabulary if vocabulary is not None else build_vocabulary(token_docs)
        if len(vocab) == 0:
            raise ValueError("empty vocabulary: corpus has no in-vocab tokens")
        encoded = vocab.encode_corpus(token_docs)

        n = len(vocab)
        # Standard init: input vectors uniform, output vectors zero.
        w_in = (rng.random((n, cfg.dim)) - 0.5) / cfg.dim
        w_out = np.zeros((n, cfg.dim))
        # Generator.choice(p=...) is this table and searchsorted(random(shape),
        # "right"), with the table rebuilt on every call; here, once per fit.
        neg_cdf = vocab.negative_sampling_distribution.cumsum()
        neg_cdf /= neg_cdf[-1]
        keep = vocab.keep_probabilities

        pairs = self._generate_pairs(encoded, keep, rng)
        if len(pairs) == 0:
            return WordEmbeddings(vocab, w_in)

        total_steps = cfg.epochs * ((len(pairs) + cfg.batch_size - 1) // cfg.batch_size)
        step = 0
        for epoch in range(cfg.epochs):
            order = rng.permutation(len(pairs))
            shuffled = pairs[order]
            for start in range(0, len(shuffled), cfg.batch_size):
                batch = shuffled[start : start + cfg.batch_size]
                lr = cfg.learning_rate + (cfg.min_learning_rate - cfg.learning_rate) * (
                    step / max(1, total_steps - 1)
                )
                self._sgd_batch(batch, w_in, w_out, neg_cdf, lr, rng)
                step += 1
        return WordEmbeddings(vocab, w_in)

    def _generate_pairs(
        self,
        encoded: List[List[int]],
        keep_prob: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Materialise (center, context) pairs with dynamic windows."""
        cfg = self._config
        pairs: List[tuple] = []
        for doc in encoded:
            if cfg.subsample and len(doc) > 1:
                mask = rng.random(len(doc)) < keep_prob[doc]
                doc = [w for w, m in zip(doc, mask) if m]
            L = len(doc)
            if L < 2:
                continue
            # Dynamic window size as in the reference implementation.
            windows = rng.integers(1, cfg.window + 1, size=L)
            for i, center in enumerate(doc):
                b = int(windows[i])
                lo, hi = max(0, i - b), min(L, i + b + 1)
                for j in range(lo, hi):
                    if j != i:
                        pairs.append((center, doc[j]))
        if not pairs:
            return np.empty((0, 2), dtype=np.int64)
        return np.asarray(pairs, dtype=np.int64)

    def _sgd_batch(
        self,
        batch: np.ndarray,
        w_in: np.ndarray,
        w_out: np.ndarray,
        neg_cdf: np.ndarray,
        lr: float,
        rng: np.random.Generator,
    ) -> None:
        """One mini-batch SGNS update (vectorised over the batch).

        Gradients are accumulated with ``np.add.at`` so repeated word ids in a
        batch sum instead of overwriting — into ``w_out`` contexts, then negatives.
        """
        cfg = self._config
        centers = batch[:, 0]
        contexts = batch[:, 1]
        negatives = neg_cdf.searchsorted(
            rng.random((len(batch), cfg.negatives)), side="right"
        )

        v_c = w_in[centers]                       # (B, d)
        u_pos = w_out[contexts]                   # (B, d)
        u_neg = w_out[negatives]                  # (B, k, d)

        # Positive term: maximize log sigmoid(u_pos . v_c)
        score_pos = _sigmoid(np.einsum("bd,bd->b", v_c, u_pos))  # (B,)
        g_pos = (score_pos - 1.0)[:, None]                        # (B, 1)

        # Negative term: maximize log sigmoid(-u_neg . v_c)
        score_neg = _sigmoid(np.einsum("bkd,bd->bk", u_neg, v_c))  # (B, k)
        g_neg = score_neg[:, :, None]                               # (B, k, 1)

        grad_v = g_pos * u_pos + np.einsum("bkd,bk->bd", u_neg, score_neg)
        grad_u_pos = g_pos * v_c
        grad_u_neg = g_neg * v_c[:, None, :]

        _add_rows(w_in, centers, grad_v, -lr)
        _add_rows(w_out, contexts, grad_u_pos, -lr)
        _add_rows(w_out, negatives.reshape(-1), grad_u_neg.reshape(-1, cfg.dim), -lr)
