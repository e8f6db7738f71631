"""The locked LRU behind the serving stack's one result cache.

The gateway's :class:`~repro.api.middleware.CacheMiddleware` is the
only result cache of the read path and the only place an
:class:`LRUCache` is constructed; the engine tiers under it
(:mod:`repro.core.serving`, :mod:`repro.serving.router`) compute every
answer they are asked for. Locking semantics, eviction order and the
:class:`CacheStats` counters are defined here.

``max_size == 0`` disables caching entirely (every get misses, every
put is a no-op).

``ttl_seconds`` bounds entry *age*: an entry older than the TTL is
treated as a miss, dropped on access, and counted in
``CacheStats.expirations``. TTL is what lets a result cache drain
naturally after a generation hot-swap instead of requiring a full
invalidation — stale answers age out on their own. ``clock`` is
injectable (monotonic seconds) so tests can drive time
deterministically.

All operations take the internal lock: the serving tier is hammered
from thread pools, and an unlocked ``get`` races ``clear``/eviction on
the underlying ``OrderedDict`` (``move_to_end`` of a key another thread
just dropped raises ``KeyError``) while unlocked counter increments
silently lose updates.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Optional, Tuple

__all__ = ["CacheStats", "LRUCache", "MISS"]

#: Sentinel returned by :meth:`LRUCache.get` on a miss, so ``None`` can
#: be cached like any other value.
MISS = object()


@dataclass(frozen=True)
class CacheStats:
    """Point-in-time counters of a query-result cache."""

    hits: int
    misses: int
    size: int
    max_size: int
    invalidations: int
    expirations: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def summary(self) -> str:
        expired = (
            f", {self.expirations} expired" if self.expirations else ""
        )
        return (
            f"cache: {self.hits} hits / {self.misses} misses "
            f"(rate={self.hit_rate:.2%}), {self.size}/{self.max_size} "
            f"entries, {self.invalidations} invalidations{expired}"
        )

    def to_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "size": self.size,
            "max_size": self.max_size,
            "invalidations": self.invalidations,
            "expirations": self.expirations,
            "hit_rate": self.hit_rate,
        }


class LRUCache:
    """Bounded, thread-safe LRU map with hit/miss counters.

    ``ttl_seconds=None`` (the default) keeps entries until eviction or
    :meth:`clear`; a positive TTL expires entries by age on access.
    """

    def __init__(
        self,
        max_size: int,
        *,
        ttl_seconds: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        if max_size < 0:
            raise ValueError(f"cache size must be >= 0, got {max_size}")
        if ttl_seconds is not None and ttl_seconds <= 0:
            raise ValueError(
                f"ttl_seconds must be > 0 or None, got {ttl_seconds}"
            )
        self.max_size = max_size
        self.ttl_seconds = ttl_seconds
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.expirations = 0
        self._clock = clock
        self._lock = threading.Lock()
        # Values are (value, stored_at); stored_at is only consulted
        # when a TTL is configured.
        self._data: "OrderedDict[Hashable, Tuple[Any, float]]" = OrderedDict()

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def get(self, key: Hashable) -> Any:
        with self._lock:
            entry = self._data.get(key, MISS)
            if entry is MISS:
                self.misses += 1
                return MISS
            value, stored_at = entry
            if (
                self.ttl_seconds is not None
                and self._clock() - stored_at > self.ttl_seconds
            ):
                del self._data[key]
                self.expirations += 1
                self.misses += 1
                return MISS
            self._data.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key: Hashable, value: Any) -> None:
        if self.max_size == 0:
            return
        with self._lock:
            self._data[key] = (value, self._clock())
            self._data.move_to_end(key)
            while len(self._data) > self.max_size:
                self._data.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._data.clear()
            self.invalidations += 1

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                hits=self.hits,
                misses=self.misses,
                size=len(self._data),
                max_size=self.max_size,
                invalidations=self.invalidations,
                expirations=self.expirations,
            )
