"""Shared internal utilities for the SHOAL reproduction.

Small, dependency-free helpers used across subpackages: seeded RNG
construction, argument validation, and a few numeric conveniences.
Nothing here is part of the public API.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path
from typing import Any, Dict, Iterable, Optional, Sequence, Union

import numpy as np

RngLike = Union[None, int, np.random.Generator]


def atomic_write_json(
    path: Union[str, Path], payload: Dict[str, Any], *, indent: int = 2
) -> Path:
    """Atomically persist ``payload`` as JSON at ``path``.

    Written to a ``.tmp`` sibling and renamed into place, so a reader
    never observes a torn file and a crash mid-write leaves the
    previous version intact. This is the one checkpoint/sidecar write
    idiom of the repo — the WAL checkpoint, the analytics tailer
    sidecar, and the replication feed all go through it.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(
        json.dumps(payload, indent=indent, sort_keys=True, allow_nan=False)
    )
    os.replace(tmp, path)
    return path


def ensure_rng(seed: RngLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` from a seed or generator.

    Every stochastic component in the library accepts ``seed`` in this
    form so that experiments are reproducible end to end.

    >>> g = ensure_rng(7)
    >>> isinstance(g, np.random.Generator)
    True
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def check_positive(name: str, value: float, *, allow_zero: bool = False) -> None:
    """Raise ``ValueError`` unless ``value`` is positive (or >= 0)."""
    if allow_zero:
        if value < 0:
            raise ValueError(f"{name} must be >= 0, got {value!r}")
    elif value <= 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")


def check_probability(name: str, value: float) -> None:
    """Raise ``ValueError`` unless ``value`` lies in [0, 1]."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value!r}")


def check_in(name: str, value: object, allowed: Sequence[object]) -> None:
    """Raise ``ValueError`` unless ``value`` is one of ``allowed``."""
    if value not in allowed:
        raise ValueError(f"{name} must be one of {list(allowed)!r}, got {value!r}")


def safe_log(x: float) -> float:
    """Natural log that maps non-positive input to 0.0.

    Used by frequency-normalisation formulas (paper Sec. 2.3) where
    ``log tf`` of an empty corpus should degrade gracefully.
    """
    if x <= 0:
        return 0.0
    return math.log(x)


def normalize_rows(matrix: np.ndarray, eps: float = 1e-12) -> np.ndarray:
    """L2-normalise the rows of ``matrix``; zero rows stay zero."""
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    norms = np.where(norms < eps, 1.0, norms)
    return matrix / norms


def cosine(a: np.ndarray, b: np.ndarray, eps: float = 1e-12) -> float:
    """Cosine similarity of two 1-D vectors, 0.0 if either is zero."""
    na = float(np.linalg.norm(a))
    nb = float(np.linalg.norm(b))
    if na < eps or nb < eps:
        return 0.0
    return float(np.dot(a, b) / (na * nb))


def jaccard(a: Iterable, b: Iterable) -> float:
    """Jaccard similarity of two collections (paper Eq. 1).

    ``|A ∩ B| / |A ∪ B|``; two empty sets have similarity 0.0.
    """
    sa, sb = set(a), set(b)
    union = len(sa | sb)
    if union == 0:
        return 0.0
    return len(sa & sb) / union


def stable_pairs_key(u: int, v: int) -> tuple:
    """Canonical undirected edge key (smaller id first)."""
    return (u, v) if u <= v else (v, u)


def chunked(seq: Sequence, size: int) -> Iterable[Sequence]:
    """Yield ``seq`` in chunks of at most ``size`` elements."""
    check_positive("size", size)
    for i in range(0, len(seq), size):
        yield seq[i : i + size]


def harmonic_number(n: int, s: float = 1.0) -> float:
    """Generalised harmonic number H_{n,s} = sum_{k=1..n} k^-s."""
    return float(sum(k ** (-s) for k in range(1, n + 1)))


def top_k_indices(values: np.ndarray, k: int) -> np.ndarray:
    """Indices of the ``k`` largest values, sorted descending by value."""
    if k <= 0:
        return np.empty(0, dtype=np.int64)
    k = min(k, len(values))
    part = np.argpartition(values, -k)[-k:]
    return part[np.argsort(values[part])[::-1]]


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Render a plain-text table for bench output.

    Benches print paper-vs-measured rows; keep them readable without
    any third-party table library.
    """
    str_rows = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(cells: Sequence[str]) -> str:
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths))
    lines = [fmt(list(headers)), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in str_rows)
    return "\n".join(lines)


def weighted_choice(
    rng: np.random.Generator,
    items: Sequence,
    weights: Optional[Sequence[float]] = None,
):
    """Pick one element of ``items``, optionally weighted."""
    if not items:
        raise ValueError("cannot choose from an empty sequence")
    if weights is None:
        return items[int(rng.integers(len(items)))]
    w = np.asarray(weights, dtype=float)
    total = w.sum()
    if total <= 0:
        return items[int(rng.integers(len(items)))]
    return items[int(rng.choice(len(items), p=w / total))]
