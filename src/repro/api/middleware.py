"""Composable middleware around any :class:`~repro.api.backends.ShoalBackend`.

A :class:`Gateway` wraps a backend with an ordered middleware stack and
is itself a backend, so stacks compose and every frontend (CLI, HTTP
edge, benches) gets the same cross-cutting behaviour from one
place:

* :class:`MetricsMiddleware` — per-endpoint p50/p95/p99 latency (the
  same :class:`~repro.obs.histogram.Histogram` recorders the cluster
  router uses) plus error counts by stable code;
* :class:`RateLimitMiddleware` — token-bucket admission control,
  rejecting excess traffic with ``rate_limited`` before it costs any
  backend work;
* :class:`DeadlineMiddleware` — per-request deadlines carried by an
  explicit :class:`~repro.api.context.RequestContext`: the request's own
  ``timeout_ms`` (or the configured default) arms the ambient context —
  creating one when no edge did — so the layers below can *cancel* work
  at their check points, and any overrun that survives to completion is
  still surfaced as ``deadline_exceeded``;
* :class:`CacheMiddleware` — a gateway-level result LRU (the shared
  :class:`~repro.api.cache.LRUCache`) keyed on each request's
  ``cache_key()``.

**Ordering.** :func:`default_middlewares` composes
``metrics → rate-limit → deadline → cache`` outermost-first: metrics
must observe rejections, the rate limiter must reject before any work
is done, the deadline must cover cache misses *and* hits, and the cache
sits innermost so a hit costs one locked dict probe.

**One chain.** The stack is composed once, at construction, into a
single call chain that every request takes; what gets observed depends
only on what is in scope. :meth:`Gateway.handle` opens a ``gateway``
span when the request context (or the process) carries a tracer and
writes an access-log line when a sink is configured; each stage opens
its ``mw.<name>`` span only inside a span that is already open; and
the cache stage tags the ambient request context with ``hit`` /
``miss`` whenever there is one. With nothing in scope a stage costs one
context-variable read on top of its own work.
"""

from __future__ import annotations

import json
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from repro.api.backends import ShoalBackend
from repro.api.cache import MISS, CacheStats, LRUCache
from repro.api.context import RequestContext, current_context
from repro.api.contract import (
    ERROR_CODES,
    ApiError,
    BatchRequest,
    BatchResponse,
    RecommendRequest,
    RecommendResponse,
    SearchRequest,
    SearchResponse,
)
from repro.obs.histogram import Histogram, LatencySummary
from repro.obs.tracer import default_tracer, traced

__all__ = [
    "Middleware",
    "CacheMiddleware",
    "RateLimitMiddleware",
    "DeadlineMiddleware",
    "MetricsMiddleware",
    "Gateway",
    "default_middlewares",
]

Request = Union[SearchRequest, RecommendRequest, BatchRequest]
Response = Union[SearchResponse, RecommendResponse, BatchResponse]
Handler = Callable[[Request], Response]


class Middleware:
    """One layer of the stack: observe/short-circuit, then ``call_next``."""

    #: Short name used for the middleware's trace span (``mw.<name>``).
    name = "middleware"

    def handle(self, request: Request, call_next: Handler) -> Response:
        raise NotImplementedError

    def stats(self) -> Dict[str, Any]:
        """JSON-able counters merged into :meth:`Gateway.stats`."""
        return {}


class CacheMiddleware(Middleware):
    """Gateway-level result cache over the shared locked LRU module.

    ``ttl_seconds`` ages entries out (see :class:`~repro.api.cache.LRUCache`)
    so the gateway cache drains naturally after a generation hot-swap
    instead of requiring a full invalidation; ``clock`` is injectable
    for deterministic tests.
    """

    name = "cache"

    def __init__(
        self,
        max_size: int = 4096,
        *,
        ttl_seconds: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        self._cache = LRUCache(max_size, ttl_seconds=ttl_seconds, clock=clock)
        # Epoch-stamped keys make invalidation race-proof: a request
        # that computed its response against the pre-invalidation
        # backend finishes its put under the OLD epoch, where no new
        # lookup can ever find it.
        self._epoch = 0

    def handle(self, request: Request, call_next: Handler) -> Response:
        key = (self._epoch, request.cache_key())
        cached = self._cache.get(key)
        # The outcome rides the ambient request context so the access
        # log and the span tree can show where the answer came from.
        ctx = current_context()
        if cached is not MISS:
            if ctx is not None:
                ctx.tags["cache"] = "hit"
            return cached
        if ctx is not None:
            ctx.tags["cache"] = "miss"
        response = call_next(request)
        self._cache.put(key, response)
        return response

    def invalidate(self) -> None:
        self._epoch += 1
        self._cache.clear()

    def cache_stats(self) -> CacheStats:
        return self._cache.stats()

    def stats(self) -> Dict[str, Any]:
        return {"gateway_cache": self._cache.stats().to_dict()}


class RateLimitMiddleware(Middleware):
    """Token-bucket admission control.

    ``rate`` tokens/second refill a bucket of ``burst`` capacity; each
    request spends one token or is rejected with ``rate_limited``.
    ``clock`` is injectable (monotonic seconds) so tests can drive time.
    """

    name = "rate_limit"

    def __init__(
        self,
        rate: float,
        burst: Optional[int] = None,
        *,
        clock: Callable[[], float] = time.monotonic,
    ):
        if rate <= 0:
            raise ValueError(f"rate must be > 0 req/s, got {rate}")
        self._rate = float(rate)
        self._capacity = float(burst if burst is not None else max(rate, 1))
        if self._capacity < 1:
            raise ValueError(f"burst must be >= 1, got {burst}")
        self._clock = clock
        self._tokens = self._capacity
        self._refilled_at = clock()
        self._rejected = 0
        self._admitted = 0
        self._lock = threading.Lock()

    def handle(self, request: Request, call_next: Handler) -> Response:
        now = self._clock()
        with self._lock:
            elapsed = max(now - self._refilled_at, 0.0)
            self._tokens = min(
                self._capacity, self._tokens + elapsed * self._rate
            )
            self._refilled_at = now
            if self._tokens < 1.0:
                self._rejected += 1
                raise ApiError(
                    "rate_limited",
                    f"rate limit of {self._rate:g} req/s exceeded",
                )
            self._tokens -= 1.0
            self._admitted += 1
        return call_next(request)

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "rate_limit": {
                    "rate_per_s": self._rate,
                    "burst": self._capacity,
                    "admitted": self._admitted,
                    "rejected": self._rejected,
                }
            }


class DeadlineMiddleware(Middleware):
    """Per-request deadline enforcement through the request context.

    The effective deadline is the request's ``timeout_ms`` when set,
    else ``default_timeout_ms`` (``None`` leaves any inherited deadline
    alone). When an edge already installed a
    :class:`~repro.api.context.RequestContext`, the limit *arms* it
    (tighten-only) so the cancellation-aware layers below — backend
    entry, router shard loops — can abandon work mid-flight; when no
    context is ambient (in-process callers), the middleware owns one
    for the duration of the call. An overrun that survives to
    completion is still surfaced as ``deadline_exceeded`` and the
    context cancelled, so nothing downstream keeps polishing an answer
    nobody will read.
    """

    name = "deadline"

    def __init__(
        self,
        default_timeout_ms: Optional[float] = None,
        *,
        clock: Callable[[], float] = time.perf_counter,
    ):
        if default_timeout_ms is not None and default_timeout_ms <= 0:
            raise ValueError(
                f"default_timeout_ms must be > 0, got {default_timeout_ms}"
            )
        self._default_ms = default_timeout_ms
        self._clock = clock
        self._expired = 0
        self._lock = threading.Lock()

    def handle(self, request: Request, call_next: Handler) -> Response:
        limit_ms = (
            request.timeout_ms
            if request.timeout_ms is not None
            else self._default_ms
        )
        ctx = current_context()
        owned = False
        if ctx is None:
            if limit_ms is None:
                return call_next(request)
            ctx = RequestContext.for_request(
                timeout_ms=limit_ms, clock=self._clock
            )
            owned = True
        elif limit_ms is not None:
            ctx.arm(limit_ms)

        t0 = self._clock()
        try:
            if owned:
                with ctx.use():
                    response = call_next(request)
            else:
                response = call_next(request)
        except ApiError as exc:
            # Count expiries detected below us (a cancellation check
            # point fired mid-flight) exactly like our own.
            if exc.code == "deadline_exceeded":
                with self._lock:
                    self._expired += 1
            raise
        if ctx.expired:
            elapsed_ms = (self._clock() - t0) * 1000.0
            with self._lock:
                self._expired += 1
            ctx.cancel("deadline expired")
            shown = (
                f"{limit_ms:g}ms" if limit_ms is not None
                else "inherited from the edge"
            )
            raise ApiError(
                "deadline_exceeded",
                f"request took {elapsed_ms:.1f}ms; deadline was {shown}",
            )
        return response

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "deadline": {
                    "default_timeout_ms": self._default_ms,
                    "expired": self._expired,
                }
            }


_ENDPOINT_OF = {
    SearchRequest: "search",
    RecommendRequest: "recommend",
    BatchRequest: "batch",
}


class MetricsMiddleware(Middleware):
    """Unified request metrics: per-endpoint latency + errors by code.

    Latency lands in the shared fixed-bucket
    :class:`~repro.obs.histogram.Histogram` (the same recorder the
    router and the async edge use); :meth:`histograms` hands the live
    recorders to the OpenMetrics exposition layer so ``?format=prom``
    can render real cumulative buckets, not pre-digested percentiles.
    """

    name = "metrics"

    def __init__(self):
        self._stats: Dict[str, Histogram] = {
            name: Histogram() for name in ("search", "recommend", "batch")
        }
        self._errors: Dict[str, int] = {}
        self._lock = threading.Lock()

    def handle(self, request: Request, call_next: Handler) -> Response:
        endpoint = _ENDPOINT_OF.get(type(request), "search")
        t0 = time.perf_counter()
        try:
            response = call_next(request)
        except ApiError as exc:
            with self._lock:
                self._errors[exc.code] = self._errors.get(exc.code, 0) + 1
            self._stats[endpoint].record(time.perf_counter() - t0)
            raise
        self._stats[endpoint].record(time.perf_counter() - t0)
        return response

    def latency(self, endpoint: str) -> LatencySummary:
        return self._stats[endpoint].summary()

    def histograms(self) -> Dict[str, Histogram]:
        """Live per-endpoint recorders, keyed for exposition."""
        return {
            f"gateway_{name}_latency_ms": recorder
            for name, recorder in self._stats.items()
            if recorder.count > 0
        }

    def error_counts(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._errors)

    def stats(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"errors": self.error_counts()}
        latencies = {}
        for name, recorder in self._stats.items():
            summary = recorder.summary()
            if summary.count == 0:
                continue
            latencies[name] = {
                "count": summary.count,
                "qps": summary.qps,
                "mean_ms": summary.mean_ms,
                "p50_ms": summary.p50_ms,
                "p95_ms": summary.p95_ms,
                "p99_ms": summary.p99_ms,
                "max_ms": summary.max_ms,
            }
        out["latency"] = latencies
        return out


def default_middlewares(
    *,
    cache_size: int = 4096,
    cache_ttl_s: Optional[float] = None,
    rate_limit: Optional[float] = None,
    burst: Optional[int] = None,
    deadline_ms: Optional[float] = None,
) -> List[Middleware]:
    """The canonical stack, outermost first (see module docstring)."""
    stack: List[Middleware] = [MetricsMiddleware()]
    if rate_limit is not None:
        stack.append(RateLimitMiddleware(rate_limit, burst))
    if deadline_ms is not None:
        stack.append(DeadlineMiddleware(deadline_ms))
    if cache_size > 0:
        stack.append(CacheMiddleware(cache_size, ttl_seconds=cache_ttl_s))
    return stack


class Gateway(ShoalBackend):
    """A backend wrapped in a middleware stack — and itself a backend.

    ``middlewares`` is ordered outermost-first; ``None`` installs
    :func:`default_middlewares` with its standard cache + metrics.
    """

    kind = "gateway"

    def __init__(
        self,
        backend: ShoalBackend,
        middlewares: Optional[Sequence[Middleware]] = None,
        *,
        access_log=None,
    ):
        self._backend = backend
        self._middlewares: List[Middleware] = list(
            default_middlewares() if middlewares is None else middlewares
        )
        #: File-like sink for one structured JSON line per request
        #: (``serve-http --access-log``); None disables logging.
        self._access_log = access_log
        self._access_log_lock = threading.Lock()
        self._cache_stage: Optional[CacheMiddleware] = next(
            (mw for mw in self._middlewares if isinstance(mw, CacheMiddleware)),
            None,
        )

        def terminal(request: Request) -> Response:
            if isinstance(request, SearchRequest):
                return self._backend.search(request)
            if isinstance(request, RecommendRequest):
                return self._backend.recommend(request)
            if isinstance(request, BatchRequest):
                return self._backend.batch(request)
            raise ApiError(
                "bad_request", f"not an API request: {type(request).__name__}"
            )

        chain: Handler = terminal
        for mw in reversed(self._middlewares):
            chain = _bind(mw, chain)
        self._chain = chain

    @property
    def backend(self) -> ShoalBackend:
        return self._backend

    @property
    def middlewares(self) -> List[Middleware]:
        return list(self._middlewares)

    def handle(self, request: Request) -> Response:
        """Dispatch any typed request through the full stack.

        The one place every edge funnels through: with a tracer in
        scope (the ambient request context's, else the process default)
        the chain runs under a ``gateway`` span, and with an access-log
        sink configured the request leaves one structured line. With
        neither, nothing per-request is observed.
        """
        ctx = current_context()
        if (
            (ctx is None or ctx.tracer is None)
            and default_tracer() is None
            and self._access_log is None
        ):
            return self._chain(request)
        endpoint = _ENDPOINT_OF.get(type(request), "search")
        t0 = time.perf_counter()
        status = 200
        error: Optional[str] = None
        try:
            with traced("gateway", context=ctx, tags={"endpoint": endpoint}):
                return self._chain(request)
        except ApiError as exc:
            status = ERROR_CODES.get(exc.code, 500)
            error = exc.code
            raise
        finally:
            if self._access_log is not None:
                self._log_request(
                    ctx, endpoint, status,
                    (time.perf_counter() - t0) * 1000.0, error,
                )

    def _log_request(
        self,
        ctx: Optional[RequestContext],
        endpoint: str,
        status: int,
        duration_ms: float,
        error: Optional[str],
    ) -> None:
        tags = ctx.tags if ctx is not None else {}
        record = {
            "ts": round(time.time(), 6),
            "request_id": ctx.request_id if ctx is not None else None,
            "endpoint": endpoint,
            "status": status,
            "duration_ms": round(duration_ms, 3),
            "cache": tags.get("cache"),
            "edge": tags.get("edge"),
        }
        if error is not None:
            record["error"] = error
        line = json.dumps(record, separators=(",", ":")) + "\n"
        try:
            with self._access_log_lock:
                self._access_log.write(line)
                flush = getattr(self._access_log, "flush", None)
                if flush is not None:
                    flush()
        except (OSError, ValueError):  # pragma: no cover - sink went away
            pass

    def search(self, request: SearchRequest) -> SearchResponse:
        return self.handle(request)

    def recommend(self, request: RecommendRequest) -> RecommendResponse:
        return self.handle(request)

    def batch(self, request: BatchRequest) -> BatchResponse:
        return self.handle(request)

    def health(self) -> Dict[str, Any]:
        inner = self._backend.health()
        inner["backend"] = f"gateway({inner.get('backend', '?')})"
        return inner

    def stats(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"backend": self.kind}
        for mw in self._middlewares:
            out.update(mw.stats())
        out["inner"] = self._backend.stats()
        return out

    def invalidate_cache(self) -> None:
        """Drop every gateway-level cached result."""
        for mw in self._middlewares:
            if isinstance(mw, CacheMiddleware):
                mw.invalidate()

    def cache_stats(self) -> Optional[CacheStats]:
        """The gateway-level result-cache counters (None if no cache
        middleware is installed)."""
        if self._cache_stage is None:
            return None
        return self._cache_stage.cache_stats()

    def histograms(self) -> Dict[str, Histogram]:
        """Live latency recorders for OpenMetrics exposition."""
        out: Dict[str, Histogram] = {}
        for mw in self._middlewares:
            if isinstance(mw, MetricsMiddleware):
                out.update(mw.histograms())
        return out

    def close(self) -> None:
        self._backend.close()


def _bind(mw: Middleware, call_next: Handler) -> Handler:
    # Duck-typed stages (tests) may not declare a name.
    span_name = f"mw.{getattr(mw, 'name', type(mw).__name__.lower())}"
    handle = mw.handle

    def bound(request: Request) -> Response:
        # A stage is traced only while its request has a span open
        # (the gateway's), on that trace's tracer; untraced requests
        # pay one context read.
        ctx = current_context()
        if ctx is None or ctx.span_cursor < 0:
            return handle(request, call_next)
        with ctx.tracer.span(span_name, context=ctx):
            return handle(request, call_next)

    return bound
