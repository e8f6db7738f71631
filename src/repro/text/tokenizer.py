"""Title/query segmentation.

Paper Sec. 2.1: "We segment the title/s of an item entity into words".
Production Chinese segmentation is replaced by a deterministic
rule-based tokenizer adequate for the synthetic corpus (and for any
whitespace language): lowercasing, punctuation stripping, optional
stop-word removal, and length filtering.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import FrozenSet, Iterable, List

__all__ = ["TokenizerConfig", "Tokenizer"]

_TOKEN_RE = re.compile(r"[a-z0-9]+(?:-[a-z0-9]+)*")

#: Minimal english stop list; the synthetic vocabulary never collides
#: with these, but real-text users of the library benefit.
_DEFAULT_STOPWORDS = frozenset(
    """a an and are as at be by for from has in is it of on or that the to
    with new hot sale free""".split()
)


@dataclass(frozen=True)
class TokenizerConfig:
    """Tokenizer behaviour switches.

    Text is always lowercased: the token pattern only matches lowercase
    ASCII letters and digits, so unlowered text would lose its capitals.
    """

    min_token_length: int = 1
    max_token_length: int = 40
    remove_stopwords: bool = False
    stopwords: FrozenSet[str] = _DEFAULT_STOPWORDS

    def __post_init__(self) -> None:
        if self.min_token_length < 1:
            raise ValueError("min_token_length must be >= 1")
        if self.max_token_length < self.min_token_length:
            raise ValueError("max_token_length must be >= min_token_length")


class Tokenizer:
    """Deterministic rule-based tokenizer.

    >>> Tokenizer().tokenize("Beach  Dress, SALE!")
    ['beach', 'dress', 'sale']
    """

    def __init__(self, config: TokenizerConfig = TokenizerConfig()):
        self._config = config

    @property
    def config(self) -> TokenizerConfig:
        return self._config

    def tokenize(self, text: str) -> List[str]:
        """Segment ``text`` into normalised tokens."""
        if not text:
            return []
        c = self._config
        tokens = _TOKEN_RE.findall(text.lower())
        out = []
        for tok in tokens:
            if not c.min_token_length <= len(tok) <= c.max_token_length:
                continue
            if c.remove_stopwords and tok in c.stopwords:
                continue
            out.append(tok)
        return out

    def tokenize_all(self, texts: Iterable[str]) -> List[List[str]]:
        """Tokenize a corpus; preserves document order."""
        return [self.tokenize(t) for t in texts]

    def __call__(self, text: str) -> List[str]:
        return self.tokenize(text)
