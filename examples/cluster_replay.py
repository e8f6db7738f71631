"""Scale-out serving: shard a fitted model, replay traffic, compare.

Walks the full cluster lifecycle:

1. fit SHOAL on the small marketplace;
2. stand up the unsharded read tier and a 4-shard cluster;
3. spot-check answer transparency (the cluster must agree with the
   single service byte for byte);
4. replay a bursty Zipf workload against both, each behind the
   default gateway as a server would run it, and print the
   QPS / latency / cache reports;
5. persist the cluster as per-shard snapshot dirs and warm-start a
   second router from disk.

Run:  PYTHONPATH=src python examples/cluster_replay.py
"""

import tempfile

from repro.api import ClusterBackend, Gateway, SearchRequest, ServiceBackend
from repro.core.config import ShoalConfig
from repro.core.pipeline import ShoalPipeline
from repro.data.marketplace import PROFILES, generate_marketplace
from repro.serving import (
    ShardPlanner,
    TrafficReplayer,
    WorkloadConfig,
    build_workload,
)


def main() -> None:
    market = generate_marketplace(PROFILES["small"])
    model = ShoalPipeline(ShoalConfig()).fit(market)
    categories = {
        e.entity_id: e.category_id for e in market.catalog.entities
    }
    print(model.summary())

    # Both tiers behind the same gateway-API contract: callers switch
    # between single-service and sharded serving without code changes.
    service = ServiceBackend.from_model(model, entity_categories=categories)
    cluster = ClusterBackend.from_model(
        model, 4, entity_categories=categories
    )
    print("\n-- cluster plan " + "-" * 44)
    print(cluster.router.plan_summary)

    print("\n-- answer transparency " + "-" * 37)
    sample = [q.text for q in market.query_log.queries[:50]]
    agreements = sum(
        cluster.search(SearchRequest(query=q, k=5))
        == service.search(SearchRequest(query=q, k=5))
        for q in sample
    )
    print(f"cluster == single service on {agreements}/{len(sample)} queries")

    print("\n-- bursty replay " + "-" * 43)
    workload = build_workload(
        market.query_log.queries,
        market.scenarios,
        WorkloadConfig(
            n_requests=3000, profile="bursty", zipf_exponent=1.0, seed=3
        ),
    )
    for name, target in (("single", service), ("cluster", cluster)):
        report = TrafficReplayer(Gateway(target), k=5).replay(
            workload, profile="bursty", warmup=300
        )
        print(f"{name:>8}: {report.summary()}")
    print(cluster.router.cluster_stats().summary())

    print("\n-- per-shard snapshots " + "-" * 37)
    with tempfile.TemporaryDirectory() as tmp:
        ShardPlanner(4).save(
            model, tmp, entity_categories=categories
        )
        # The URI form a deployment would use: cluster:DIR.
        warm = ClusterBackend.from_snapshot(tmp)
        q = sample[0]
        agree = warm.search(SearchRequest(query=q, k=3)) == service.search(
            SearchRequest(query=q, k=3)
        )
        print(f"disk-loaded cluster agrees on {q!r}: {agree}")


if __name__ == "__main__":
    main()
