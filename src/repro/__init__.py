"""SHOAL reproduction: Large-scale Hierarchical Taxonomy via Graph-based
Query Coalition in E-commerce (Li et al., PVLDB 12(12), 2019).

Public API highlights::

    from repro import generate_marketplace, ShoalPipeline, ShoalService

    market = generate_marketplace()
    model = ShoalPipeline().fit(market)
    service = ShoalService(model)
    for hit in service.search_topics("beach dress"):
        print(hit.label, hit.score)

Subpackages:

* ``repro.data`` — synthetic marketplace (Taobao-data substitute)
* ``repro.store`` — query-log store & persistence
* ``repro.text`` — tokenizer, word2vec, BM25
* ``repro.graph`` — bipartite & item-entity graphs, modularity
* ``repro.pregel`` — vertex-centric BSP engine (ODPS substitute)
* ``repro.clustering`` — sequential HAC and Parallel HAC
* ``repro.core`` — the SHOAL pipeline, taxonomy and serving scenarios
* ``repro.serving`` — sharded cluster serving and traffic replay
* ``repro.api`` — the one public serving API: typed request/response
  contract, pluggable backends, gateway middleware, HTTP edge
* ``repro.eval`` — precision protocol, A/B CTR simulator, metrics
* ``repro.baselines`` — ontology recommender, TaxoGen-style, k-means

Serving should go through the gateway API::

    from repro.api import Gateway, SearchRequest, ServiceBackend

    backend = ServiceBackend.from_model(model)
    response = Gateway(backend).search(SearchRequest(query="beach dress"))
"""

from repro.api.backends import (
    ClusterBackend,
    ServiceBackend,
    ShoalBackend,
    open_backend,
)
from repro.api.cache import CacheStats
from repro.core.config import ShoalConfig
from repro.core.pipeline import ShoalModel, ShoalPipeline
from repro.core.serving import ShoalService
from repro.core.taxonomy import Taxonomy, Topic
from repro.data.marketplace import (
    Marketplace,
    MarketplaceConfig,
    PROFILES,
    generate_marketplace,
)
from repro.serving import ClusterRouter, ShardPlanner, TrafficReplayer

__version__ = "1.1.0"

__all__ = [
    "ShoalConfig",
    "ShoalPipeline",
    "ShoalModel",
    "ShoalService",
    "CacheStats",
    "ClusterRouter",
    "ShardPlanner",
    "TrafficReplayer",
    "ShoalBackend",
    "ServiceBackend",
    "ClusterBackend",
    "open_backend",
    "Taxonomy",
    "Topic",
    "Marketplace",
    "MarketplaceConfig",
    "PROFILES",
    "generate_marketplace",
    "__version__",
]
