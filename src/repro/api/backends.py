"""Pluggable serving backends behind one typed contract.

:class:`ShoalBackend` is the single serving interface of the repo:
``search`` / ``recommend`` / ``batch`` over the typed dataclasses of
:mod:`repro.api.contract`. Concrete adapters wrap each read tier —

* :class:`ServiceBackend` — a single in-process
  :class:`~repro.core.serving.ShoalService` (built from a model or a
  snapshot directory);
* :class:`ClusterBackend` — a sharded
  :class:`~repro.serving.router.ClusterRouter` (built from a model, a
  shard set, or a cluster snapshot directory);
* :class:`~repro.api.http.ShoalClient` — the same contract over HTTP
  or delegating in-process (lives in :mod:`repro.api.http`).

so frontends never construct or dispatch on a concrete tier.
:func:`open_backend` turns a backend URI into the right adapter::

    open_backend("snapshot:/path/to/model-snapshot")   # single service
    open_backend("cluster:/path/to/cluster-snapshot")  # sharded router
    open_backend("follower:/path/to/ship-feed")        # replication follower
    open_backend("http://10.0.0.7:8080")               # remote gateway
    open_backend("/path/to/either-kind-of-dir")        # sniffed from MANIFEST

The pre-gateway convenience names (``search_topics``,
``recommend_entities_for_query``, ...) lived here as deprecated
delegates for one release and are now gone: frontends construct
request dataclasses and call ``search`` / ``recommend`` / ``batch``.
The engine tiers (:class:`~repro.core.serving.ShoalService`,
:class:`~repro.serving.router.ClusterRouter`) keep their raw method
quartet — that is the engine surface these adapters wrap, not the
public API.
"""

from __future__ import annotations

import abc
import re
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.api.context import current_context
from repro.api.contract import (
    SCHEMA_VERSION,
    ApiError,
    BatchRequest,
    BatchResponse,
    RecommendRequest,
    RecommendResponse,
    SearchRequest,
    SearchResponse,
)
from repro.core.serving import ShoalService
from repro.obs.tracer import traced

__all__ = [
    "ShoalBackend",
    "ServiceBackend",
    "ClusterBackend",
    "open_backend",
]


class ShoalBackend(abc.ABC):
    """The one serving contract every read tier is served through.

    Subclasses implement the three typed entry points plus the
    operational surface (``health`` / ``stats`` / ``close``); nothing
    else is part of the contract.
    """

    #: Stable adapter identifier reported by :meth:`health`/:meth:`stats`.
    kind: str = "abstract"

    # -- typed contract ------------------------------------------------------

    @abc.abstractmethod
    def search(self, request: SearchRequest) -> SearchResponse:
        """Ranked topics for one query (scenario A)."""

    @abc.abstractmethod
    def recommend(self, request: RecommendRequest) -> RecommendResponse:
        """Topic-matched entity slate for one query (Fig. 4b)."""

    @abc.abstractmethod
    def batch(self, request: BatchRequest) -> BatchResponse:
        """One search/recommend result per query, in order."""

    # -- operational surface -------------------------------------------------

    def health(self) -> Dict[str, Any]:
        """Liveness + identity; cheap enough for a poll loop."""
        return {
            "status": "ok",
            "backend": self.kind,
            "version": SCHEMA_VERSION,
        }

    def stats(self) -> Dict[str, Any]:
        """Operational counters (latency, shape) as JSON-able data."""
        return {"backend": self.kind}

    def close(self) -> None:
        """Release transport/engine resources (idempotent)."""

    def __enter__(self) -> "ShoalBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class _EngineBackend(ShoalBackend):
    """Adapter over an in-process tier exposing the engine method quartet.

    Both :class:`~repro.core.serving.ShoalService` and
    :class:`~repro.serving.router.ClusterRouter` expose ``search_topics``
    / ``search_topics_batch`` / ``recommend_entities_for_query`` /
    ``recommend_batch`` with identical signatures (a contract test pins
    that), so one adapter body serves both tiers.
    """

    def __init__(self, engine):
        self._engine = engine

    @staticmethod
    def _checkpoint() -> None:
        """Cancellation-aware call point: refuse to start engine work
        for a request whose ambient context is already expired or
        cancelled (the async edge relies on this to abandon blown
        deadlines before they cost shard time)."""
        ctx = current_context()
        if ctx is not None:
            ctx.raise_if_done()

    def search(self, request: SearchRequest) -> SearchResponse:
        request.validate()
        self._checkpoint()
        with traced("backend.search", tags={"kind": self.kind}):
            try:
                hits = self._engine.search_topics(request.query, request.k)
            except ApiError:
                raise
            except Exception as exc:
                raise ApiError(
                    "backend_error", f"{self.kind} search failed: {exc}"
                )
        return SearchResponse(hits=tuple(hits))

    def recommend(self, request: RecommendRequest) -> RecommendResponse:
        request.validate()
        self._checkpoint()
        with traced("backend.recommend", tags={"kind": self.kind}):
            try:
                ids = self._engine.recommend_entities_for_query(
                    request.query, request.k
                )
            except ApiError:
                raise
            except Exception as exc:
                raise ApiError(
                    "backend_error", f"{self.kind} recommend failed: {exc}"
                )
        return RecommendResponse(entity_ids=tuple(ids))

    def batch(self, request: BatchRequest) -> BatchResponse:
        request.validate()
        self._checkpoint()
        with traced("backend.batch", tags={"kind": self.kind}):
            try:
                if request.kind == "search":
                    rows = self._engine.search_topics_batch(
                        list(request.queries), request.k
                    )
                else:
                    rows = self._engine.recommend_batch(
                        list(request.queries), request.k
                    )
            except ApiError:
                raise
            except Exception as exc:
                raise ApiError(
                    "backend_error", f"{self.kind} batch failed: {exc}"
                )
        return BatchResponse(
            kind=request.kind, results=tuple(tuple(r) for r in rows)
        )

    def categories_of_topic(self, topic_id: int) -> List[int]:
        """Engine extension (not part of the wire contract): the
        ontology categories of one topic, for rich CLI/example output."""
        return self._engine.categories_of_topic(topic_id)


class ServiceBackend(_EngineBackend):
    """The single-process read tier behind the gateway contract."""

    kind = "local"

    def __init__(self, service: ShoalService):
        super().__init__(service)

    @classmethod
    def from_model(
        cls,
        model,
        *,
        entity_categories: Optional[Dict[int, int]] = None,
        tokenizer=None,
        collection_stats=None,
    ) -> "ServiceBackend":
        """Stand up a fresh :class:`ShoalService` over a fitted model."""
        return cls(
            ShoalService(
                model,
                tokenizer,
                entity_categories=entity_categories,
                collection_stats=collection_stats,
            )
        )

    @classmethod
    def from_snapshot(cls, directory: Union[str, Path]) -> "ServiceBackend":
        """Warm-start from a ``fit --save`` model snapshot directory."""
        return cls(ShoalService.from_snapshot(directory))

    @property
    def service(self) -> ShoalService:
        """The wrapped engine, for engine-level scenarios (B/C/D) and
        benches that compare gateway dispatch against the raw tier."""
        return self._engine


class ClusterBackend(_EngineBackend):
    """The sharded read tier behind the same gateway contract."""

    kind = "cluster"

    def __init__(self, router):
        super().__init__(router)

    @classmethod
    def from_model(
        cls,
        model,
        n_shards: int,
        *,
        entity_categories: Optional[Dict[int, int]] = None,
        tokenizer=None,
    ) -> "ClusterBackend":
        from repro.serving.router import ClusterRouter

        return cls(
            ClusterRouter.from_model(
                model,
                n_shards,
                entity_categories=entity_categories,
                tokenizer=tokenizer,
            )
        )

    @classmethod
    def from_shard_set(cls, shard_set, *, tokenizer=None) -> "ClusterBackend":
        from repro.serving.router import ClusterRouter

        return cls(ClusterRouter(shard_set, tokenizer=tokenizer))

    @classmethod
    def from_snapshot(
        cls, directory: Union[str, Path], *, tokenizer=None
    ) -> "ClusterBackend":
        """Warm-start from a ``serve-cluster --save-shards`` directory."""
        from repro.serving.router import ClusterRouter

        return cls(ClusterRouter.from_snapshot(directory, tokenizer=tokenizer))

    @property
    def router(self):
        """The wrapped :class:`ClusterRouter`, for plan/stat inspection."""
        return self._engine

    def stats(self) -> Dict[str, Any]:
        out = super().stats()
        router = self._engine
        out["n_shards"] = router.n_shards
        latency = router.request_stats()
        out["latency"] = {
            "count": latency.count,
            "qps": latency.qps,
            "p50_ms": latency.p50_ms,
            "p95_ms": latency.p95_ms,
            "p99_ms": latency.p99_ms,
        }
        return out


def _sniff_directory(path: Path) -> str:
    """Which snapshot family a bare directory path holds."""
    if (path / "CLUSTER_MANIFEST.json").is_file():
        return "cluster"
    if (path / "MANIFEST.json").is_file():
        return "snapshot"
    raise ApiError(
        "invalid_argument",
        f"{path} has neither MANIFEST.json nor CLUSTER_MANIFEST.json; "
        "pass an explicit 'snapshot:DIR' or 'cluster:DIR' URI",
    )


def open_backend(
    uri: str,
    *,
    cache_size: int = 0,
    timeout: float = 10.0,
) -> ShoalBackend:
    """One front door from a backend URI to a ready adapter.

    Supported schemes: ``snapshot:DIR`` for a single-service model
    snapshot, ``cluster:DIR`` for a sharded
    cluster snapshot, ``follower:DIR`` for an embedded replication
    follower tailing a ship feed, ``http://`` / ``https://`` for a
    remote gateway, and a bare directory path whose manifest decides
    between the first two. Every malformed URI — unknown scheme, empty target, missing or
    unreadable snapshot — raises :class:`ApiError`
    (``invalid_argument``) naming what was wrong, never a raw
    ``OSError``. ``cache_size`` is accepted and unused (the perf
    ledger's reference-answer call still passes it).
    """
    if not isinstance(uri, str) or not uri:
        raise ApiError("invalid_argument", f"not a backend URI: {uri!r}")
    if uri.startswith(("http://", "https://")):
        from repro.api.http import ShoalClient

        return ShoalClient(uri, timeout=timeout)
    if uri.startswith("snapshot:"):
        return _open_snapshot(uri[len("snapshot:"):])
    if uri.startswith("cluster:"):
        target = uri[len("cluster:"):]
        if not target:
            raise ApiError(
                "invalid_argument",
                "'cluster:' URI is missing its snapshot directory",
            )
        try:
            return ClusterBackend.from_snapshot(target)
        except ApiError:
            raise
        except (OSError, ValueError, KeyError) as exc:
            raise ApiError(
                "invalid_argument",
                f"cannot open cluster snapshot {target!r}: {exc}",
            )
    if uri.startswith("follower:"):
        target = uri[len("follower:"):]
        if not target:
            raise ApiError(
                "invalid_argument",
                "'follower:' URI is missing its replication feed directory",
            )
        return _open_follower(target)
    scheme_match = _SCHEME_RE.match(uri)
    if scheme_match is not None:
        raise ApiError(
            "invalid_argument",
            f"unknown backend scheme {scheme_match.group(1)!r} in {uri!r}: "
            "expected snapshot:, cluster:, follower:, http:// or https://",
        )
    path = Path(uri)
    if path.is_dir():
        if _sniff_directory(path) == "cluster":
            return ClusterBackend.from_snapshot(path)
        return ServiceBackend.from_snapshot(path)
    raise ApiError(
        "invalid_argument",
        f"cannot open backend {uri!r}: expected 'snapshot:DIR', "
        "'cluster:DIR', an http(s):// URL, or an existing snapshot "
        "directory",
    )


#: A URI-ish prefix (e.g. ``ftp:``) that is not a plain path. Single
#: letters are excluded so Windows-style ``C:\...`` never matches.
_SCHEME_RE = re.compile(r"^([A-Za-z][A-Za-z0-9+.-]+):")


def _open_follower(target: str):
    """Join a replication feed as an embedded follower.

    Bootstraps a :class:`repro.replication.Follower` over a throwaway
    workdir, catches it up to the feed's current epoch, and leaves its
    tail loop running in the background — the returned backend serves
    reads that track the primary's coordinated swaps. Closing the
    backend stops the loop.
    """
    import tempfile

    from repro.replication import Follower
    from repro.replication.feed import FeedError

    try:
        follower = Follower(
            target, tempfile.mkdtemp(prefix="shoal-follower-")
        )
        backend = follower.bootstrap()
        follower.catch_up(timeout_s=120.0)
        follower.start()
        return backend
    except (FeedError, OSError, ValueError, KeyError) as exc:
        raise ApiError(
            "invalid_argument",
            f"cannot open replication feed {target!r}: {exc}",
        )


def _open_snapshot(target: str) -> "ServiceBackend":
    if not target:
        raise ApiError(
            "invalid_argument",
            "'snapshot:' URI is missing its snapshot directory",
        )
    try:
        return ServiceBackend.from_snapshot(target)
    except ApiError:
        raise
    except (OSError, ValueError, KeyError) as exc:
        raise ApiError(
            "invalid_argument",
            f"cannot open model snapshot {target!r}: {exc}",
        )
