"""Backend adapters: identical surfaces, URI construction, transparency.

The kwarg-drift satellite lives here: every backend class must expose
the same public serving surface with *identical signatures* (the
pre-gateway tiers had subtly different kwargs per tier), and the raw
engines behind the adapters are pinned to one signature set too.
"""

from __future__ import annotations

import inspect

import pytest

from repro.api import (
    ApiError,
    BatchRequest,
    ClusterBackend,
    Gateway,
    RecommendRequest,
    SearchRequest,
    ServiceBackend,
    ShoalBackend,
    ShoalClient,
    open_backend,
)
from repro.core.serving import ShoalService
from repro.serving.router import ClusterRouter

#: The serving surface every backend must expose: typed + ops only
#: (the legacy delegate names were removed after their one release).
CONTRACT_METHODS = [
    "search",
    "recommend",
    "batch",
    "health",
    "stats",
    "close",
]

BACKEND_CLASSES = [ServiceBackend, ClusterBackend, Gateway, ShoalClient]


class TestContractSurfaces:
    @pytest.mark.parametrize("cls", BACKEND_CLASSES)
    @pytest.mark.parametrize("method", CONTRACT_METHODS)
    def test_backend_exposes_contract_method(self, cls, method):
        assert callable(getattr(cls, method, None)), (
            f"{cls.__name__} is missing contract method {method}"
        )

    @pytest.mark.parametrize("method", CONTRACT_METHODS)
    def test_signatures_identical_across_backends(self, method):
        reference = inspect.signature(getattr(ShoalBackend, method))
        for cls in BACKEND_CLASSES:
            assert inspect.signature(getattr(cls, method)) == reference, (
                f"{cls.__name__}.{method} drifted from the contract "
                f"signature {reference}"
            )

    @pytest.mark.parametrize(
        "method",
        [
            "search_topics",
            "search_topics_batch",
            "recommend_entities_for_query",
            "recommend_batch",
        ],
    )
    def test_raw_tiers_share_one_signature(self, method):
        """The engines the adapters wrap must not drift either — the
        shared adapter body depends on it (the kwarg-drift fix)."""

        def shape(cls):
            sig = inspect.signature(getattr(cls, method))
            return [
                (p.name, p.default, p.kind) for p in sig.parameters.values()
            ]

        assert shape(ShoalService) == shape(ClusterRouter), (
            f"{method} signature drifted between ShoalService and "
            f"ClusterRouter"
        )

    @pytest.mark.parametrize(
        "method",
        [
            "search_topics",
            "search_topics_batch",
            "recommend_entities_for_query",
            "recommend_batch",
        ],
    )
    @pytest.mark.parametrize("cls", BACKEND_CLASSES + [ShoalBackend])
    def test_legacy_delegates_are_gone(self, cls, method):
        """The deprecated thin delegates were dropped after one
        release — the typed contract is the only frontend surface."""
        assert getattr(cls, method, None) is None, (
            f"{cls.__name__}.{method} should have been removed with the "
            "legacy delegate layer"
        )

    def test_k_defaults_are_uniform(self):
        """k defaults: 5 for search surfaces, 10 for recommend ones
        (on the raw engine tiers, the only place the names remain)."""
        for cls in (ShoalService, ClusterRouter):
            assert (
                inspect.signature(cls.search_topics).parameters["k"].default
                == 5
            )
            assert (
                inspect.signature(
                    cls.recommend_entities_for_query
                ).parameters["k"].default
                == 10
            )


class TestServiceBackend:
    def test_typed_answers_match_engine(self, tiny_backend, scenario_queries):
        engine = tiny_backend.service
        for q in scenario_queries:
            response = tiny_backend.search(SearchRequest(query=q, k=5))
            assert list(response.hits) == engine.search_topics(q, 5)

    def test_recommend_matches_engine(self, tiny_backend, scenario_queries):
        engine = tiny_backend.service
        for q in scenario_queries:
            response = tiny_backend.recommend(RecommendRequest(query=q, k=6))
            assert list(response.entity_ids) == (
                engine.recommend_entities_for_query(q, 6)
            )

    def test_batch_matches_singles(self, tiny_backend, scenario_queries):
        request = BatchRequest(
            queries=tuple(scenario_queries), k=4, kind="search"
        )
        response = tiny_backend.batch(request)
        assert response.kind == "search"
        for q, hits in zip(scenario_queries, response.results):
            single = tiny_backend.search(SearchRequest(query=q, k=4))
            assert tuple(hits) == single.hits

    def test_invalid_request_raises_api_error(self, tiny_backend):
        with pytest.raises(ApiError) as excinfo:
            tiny_backend.search(SearchRequest(query="", k=3))
        assert excinfo.value.code == "invalid_argument"

    def test_health_and_stats(self, tiny_backend):
        health = tiny_backend.health()
        assert health["status"] == "ok"
        assert health["backend"] == "local"
        stats = tiny_backend.stats()
        assert stats == {"backend": "local"}  # the engine tier is stateless


class TestClusterBackend:
    def test_cluster_answers_equal_service_answers(
        self, tiny_model, tiny_categories, tiny_backend, scenario_queries
    ):
        cluster = ClusterBackend.from_model(
            tiny_model, 2, entity_categories=tiny_categories
        )
        for q in scenario_queries:
            request = SearchRequest(query=q, k=5)
            assert cluster.search(request) == tiny_backend.search(request)

    def test_cluster_stats_shape(self, tiny_model, tiny_categories):
        cluster = ClusterBackend.from_model(
            tiny_model, 2, entity_categories=tiny_categories
        )
        cluster.search(SearchRequest(query="beach", k=3))
        stats = cluster.stats()
        assert stats["backend"] == "cluster"
        assert stats["n_shards"] == 2
        assert "p99_ms" in stats["latency"]
        assert "cache" not in stats


class TestIncrementalBackend:
    def test_incremental_backend_serves_and_persists(self, tiny_marketplace):
        from repro.core.config import ShoalConfig
        from repro.core.incremental import IncrementalShoal
        from repro.streaming import Generation, GenerationSwitch

        market = tiny_marketplace
        inc = IncrementalShoal(
            ShoalConfig(),
            {e.entity_id: e.title for e in market.catalog.entities},
            {q.query_id: q.text for q in market.query_log.queries},
            {e.entity_id: e.category_id for e in market.catalog.entities},
        )
        assert inc.model is None  # nothing to serve before an advance
        inc.advance(market.query_log, last_day=6)
        backend = ServiceBackend.from_model(
            inc.model, entity_categories=inc.entity_categories
        )
        switch = GenerationSwitch().attach(backend)
        q = next(
            x.text
            for x in market.query_log.queries
            if x.intent_kind == "scenario"
        )
        response = backend.search(SearchRequest(query=q, k=3))
        assert list(response.hits) == backend.service.search_topics(q, 3)
        # The backend persists across slides: the switch refreshes it.
        service = backend.service
        update = inc.advance(market.query_log, last_day=6)
        switch.swap(
            Generation(
                1, update.model.serving(inc.entity_categories), last_day=6
            )
        )
        assert backend.service is service
        assert service.taxonomy is inc.model.taxonomy


class TestOpenBackend:
    def test_snapshot_uri(self, tiny_model, tiny_categories, tmp_path):
        snap = tmp_path / "snap"
        tiny_model.save(snap, entity_categories=tiny_categories)
        backend = open_backend(f"snapshot:{snap}")
        assert isinstance(backend, ServiceBackend)
        # A bare dir is sniffed from MANIFEST.
        assert isinstance(open_backend(str(snap)), ServiceBackend)

    def test_snapshot_uri_answers_match_memory(
        self, tiny_model, tiny_categories, tiny_backend, tmp_path,
        scenario_queries,
    ):
        snap = tmp_path / "snap"
        tiny_model.save(snap, entity_categories=tiny_categories)
        served = open_backend(f"snapshot:{snap}")
        request = BatchRequest(
            queries=tuple(scenario_queries), k=5, kind="search"
        )
        assert served.batch(request) == tiny_backend.batch(request)

    def test_cluster_uri(self, tiny_model, tiny_categories, tmp_path):
        from repro.serving import ShardPlanner

        cdir = tmp_path / "cluster"
        ShardPlanner(2).save(
            tiny_model, cdir, entity_categories=tiny_categories
        )
        backend = open_backend(f"cluster:{cdir}")
        assert isinstance(backend, ClusterBackend)
        assert isinstance(open_backend(str(cdir)), ClusterBackend)

    def test_http_uri_builds_client(self):
        client = open_backend("http://127.0.0.1:1")
        assert isinstance(client, ShoalClient)
        assert client.base_url == "http://127.0.0.1:1"

    @pytest.mark.parametrize(
        "uri", ["", "ftp://nope", "/definitely/not/a/dir"]
    )
    def test_bad_uri_is_invalid_argument(self, uri):
        with pytest.raises(ApiError) as excinfo:
            open_backend(uri)
        assert excinfo.value.code == "invalid_argument"

    @pytest.mark.parametrize(
        "uri",
        [
            "s3://bucket/model",
            "gopher:hole",
            "snapshots:/typo/dir",
            "local:/removed/alias",
        ],
    )
    def test_unknown_scheme_names_the_scheme(self, uri):
        """An unrecognised scheme fails fast with the scheme named,
        instead of falling through to a confusing not-a-directory
        message."""
        with pytest.raises(ApiError) as excinfo:
            open_backend(uri)
        assert excinfo.value.code == "invalid_argument"
        scheme = uri.split(":")[0]
        assert f"unknown backend scheme {scheme!r}" in str(excinfo.value)

    @pytest.mark.parametrize("scheme", ["snapshot:", "cluster:"])
    def test_missing_snapshot_dir_is_invalid_argument(self, scheme, tmp_path):
        """Each snapshot scheme family maps load errors to ApiError —
        never a raw FileNotFoundError — for empty and absent targets."""
        with pytest.raises(ApiError) as excinfo:
            open_backend(scheme)  # empty target
        assert excinfo.value.code == "invalid_argument"
        with pytest.raises(ApiError) as excinfo:
            open_backend(f"{scheme}{tmp_path}/does-not-exist")
        assert excinfo.value.code == "invalid_argument"

    def test_undecidable_directory_is_invalid_argument(self, tmp_path):
        with pytest.raises(ApiError) as excinfo:
            open_backend(str(tmp_path))
        assert excinfo.value.code == "invalid_argument"
