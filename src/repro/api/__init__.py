"""The one public serving API: typed contract, backends, middleware, edge.

Every frontend in the repo — CLI subcommands, examples, benches, the
traffic replayer, CI — serves through this package instead of touching
a concrete read tier. The pieces:

* :mod:`repro.api.contract` — versioned request/response dataclasses
  (``SearchRequest``, ``RecommendRequest``, ``BatchRequest`` and their
  responses), JSON codecs, validation, and :class:`ApiError` with
  stable error codes;
* :mod:`repro.api.backends` — the :class:`ShoalBackend` contract with
  adapters for the single service, the sharded cluster, and snapshot
  directories, plus :func:`open_backend` for URI-based construction;
* :mod:`repro.api.middleware` — the composable gateway stack (metrics,
  token-bucket rate limiting, per-request deadlines, result cache) and
  :class:`Gateway`;
* :mod:`repro.api.context` — :class:`RequestContext` /
  :class:`CancelToken`: the per-request deadline + cancellation +
  identity object the edge mints and every layer below polls;
* :mod:`repro.api.http` — :class:`GatewayCore` (the transport-neutral
  dispatch behind the edge) and :class:`ShoalClient` (same typed
  contract in-process or remote);
* :mod:`repro.api.aio` — :class:`AsyncShoalServer`, the HTTP edge: one
  asyncio loop with deadline cancellation and ingest coalescing;
* :mod:`repro.api.cache` — the locked LRU behind the one result cache
  (the gateway's ``CacheMiddleware``).

Typical use::

    from repro.api import Gateway, SearchRequest, open_backend

    backend = open_backend("snapshot:/models/today")
    gateway = Gateway(backend)          # default middleware stack
    response = gateway.search(SearchRequest(query="beach dress", k=5))

This module resolves its exports lazily so that low-level modules
(e.g. :mod:`repro.serving.router`, which uses :mod:`repro.api.context`)
can be imported without dragging in the whole gateway stack — and
without import cycles.
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING

_EXPORTS = {
    # cache
    "CacheStats": "repro.api.cache",
    "LRUCache": "repro.api.cache",
    # contract
    "SCHEMA_VERSION": "repro.api.contract",
    "MAX_K": "repro.api.contract",
    "MAX_QUERY_CHARS": "repro.api.contract",
    "MAX_BATCH_QUERIES": "repro.api.contract",
    "MAX_ANALYTICS_ROWS": "repro.api.contract",
    "MAX_SQL_CHARS": "repro.api.contract",
    "ANALYTICS_REPORTS": "repro.api.contract",
    "ERROR_CODES": "repro.api.contract",
    "ApiError": "repro.api.contract",
    "SearchRequest": "repro.api.contract",
    "SearchResponse": "repro.api.contract",
    "RecommendRequest": "repro.api.contract",
    "RecommendResponse": "repro.api.contract",
    "BatchRequest": "repro.api.contract",
    "BatchResponse": "repro.api.contract",
    "AnalyticsRequest": "repro.api.contract",
    "AnalyticsResponse": "repro.api.contract",
    "MetricsResponse": "repro.api.contract",
    "TraceResponse": "repro.api.contract",
    "request_from_dict": "repro.api.contract",
    # context
    "RequestContext": "repro.api.context",
    "CancelToken": "repro.api.context",
    "current_context": "repro.api.context",
    # backends
    "ShoalBackend": "repro.api.backends",
    "ServiceBackend": "repro.api.backends",
    "ClusterBackend": "repro.api.backends",
    "open_backend": "repro.api.backends",
    # middleware
    "Middleware": "repro.api.middleware",
    "CacheMiddleware": "repro.api.middleware",
    "RateLimitMiddleware": "repro.api.middleware",
    "DeadlineMiddleware": "repro.api.middleware",
    "MetricsMiddleware": "repro.api.middleware",
    "Gateway": "repro.api.middleware",
    "default_middlewares": "repro.api.middleware",
    # http edge
    "GatewayCore": "repro.api.http",
    "ShoalClient": "repro.api.http",
    "AsyncShoalServer": "repro.api.aio",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    try:
        module_name = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module 'repro.api' has no attribute {name!r}"
        ) from None
    value = getattr(importlib.import_module(module_name), name)
    globals()[name] = value  # cache for the next lookup
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))


if TYPE_CHECKING:  # pragma: no cover - static analysis only
    from repro.api.aio import AsyncShoalServer  # noqa: F401
    from repro.api.backends import (  # noqa: F401
        ClusterBackend,
        ServiceBackend,
        ShoalBackend,
        open_backend,
    )
    from repro.api.cache import CacheStats, LRUCache  # noqa: F401
    from repro.api.contract import (  # noqa: F401
        AnalyticsRequest,
        AnalyticsResponse,
        ApiError,
        BatchRequest,
        BatchResponse,
        MetricsResponse,
        RecommendRequest,
        RecommendResponse,
        SearchRequest,
        SearchResponse,
        TraceResponse,
    )
    from repro.api.context import (  # noqa: F401
        CancelToken,
        RequestContext,
        current_context,
    )
    from repro.api.http import (  # noqa: F401
        GatewayCore,
        ShoalClient,
    )
    from repro.api.middleware import (  # noqa: F401
        CacheMiddleware,
        DeadlineMiddleware,
        Gateway,
        MetricsMiddleware,
        Middleware,
        RateLimitMiddleware,
        default_middlewares,
    )
