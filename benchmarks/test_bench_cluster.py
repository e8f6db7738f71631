"""Cluster scale-out: 1/2/4/8-shard throughput on a replay workload.

The cluster bench answers the ROADMAP question "does sharding buy
throughput?" with a single-process simulation of a multi-node read
tier. Every shard of a :class:`ClusterRouter` tracks the wall-clock
time spent inside its service (``busy seconds``); the router's own
per-request work (tokenisation, token → shard routing, top-k merge) is
everything else.

**Aggregate QPS model.** In a deployment, each shard runs on its own
node, with the stateless routing layer co-located as a sidecar (the
token → shard map replicates freely). The cluster's
wall-clock over a workload is therefore bounded by its busiest node::

    aggregate_wall = max(shard busy) + router_overhead / n_shards
    aggregate_qps  = n_requests / aggregate_wall

For one shard this degrades *exactly* to the measured single-node
wall-clock (busy + all router work on the same node), so the 1-shard
row is not flattered. The in-process wall-clock QPS is reported next
to it for reference.

The workload is Zipf-skewed draws over a pool of many distinct query
strings with few distinct intents (see ``pool_variants``). The bare
cluster backend is replayed — the engine tier holds no result cache,
so every request computes — after the first third of the stream has
run unmeasured.

Gate: ≥ 2x aggregate QPS at 4 shards vs 1 (typically ~3x here).
"""

from typing import List

import pytest

from repro.api import ClusterBackend
from repro.serving import (
    ReplayReport,
    TrafficReplayer,
    WorkloadConfig,
    build_workload,
)

N_REQUESTS = 6000
WARMUP = 2000
TOP_K = 10
REPEATS = 3  # best-of, to shrug off machine noise
SHARD_COUNTS = (1, 2, 4, 8)


@pytest.fixture(scope="module")
def entity_categories(bench_marketplace):
    return {
        e.entity_id: e.category_id
        for e in bench_marketplace.catalog.entities
    }


@pytest.fixture(scope="module")
def workload(bench_marketplace):
    return build_workload(
        bench_marketplace.query_log.queries,
        bench_marketplace.scenarios,
        WorkloadConfig(
            n_requests=N_REQUESTS,
            profile="steady",
            zipf_exponent=0.9,
            pool_variants=16,
            seed=7,
        ),
    )


def _aggregate_qps(
    report: ReplayReport, busy: List[float], n_shards: int
) -> float:
    """n_requests / (busiest shard + this node's share of router work)."""
    total = report.latency.total_seconds
    overhead = max(total - sum(busy), 0.0)
    wall = (max(busy) if busy else 0.0) + overhead / n_shards
    return report.n_requests / wall if wall > 0 else 0.0


def _measure(backend: ClusterBackend, workload, n_shards: int):
    """Run the warm-up third unmeasured, then best-of-N replay the rest."""
    router = backend.router
    replayer = TrafficReplayer(backend, k=TOP_K)
    replayer.replay(workload[:WARMUP], profile="warmup")
    best_aggregate = 0.0
    best_wall = 0.0
    last_report = None
    for _ in range(REPEATS):
        before = router.shard_busy_seconds()
        report = replayer.replay(workload[WARMUP:], profile="steady")
        after = router.shard_busy_seconds()
        busy = [a - b for a, b in zip(after, before)]
        best_aggregate = max(
            best_aggregate, _aggregate_qps(report, busy, n_shards)
        )
        best_wall = max(best_wall, report.qps)
        last_report = report
    return best_aggregate, best_wall, last_report


def test_bench_cluster_shard_scaling(
    bench_model, entity_categories, workload, capsys
):
    """Aggregate QPS must scale: >= 2x at 4 shards vs 1."""
    aggregate = {}
    rows = []
    for n_shards in SHARD_COUNTS:
        backend = ClusterBackend.from_model(
            bench_model,
            n_shards,
            entity_categories=entity_categories,
        )
        agg, wall, report = _measure(backend, workload, n_shards)
        aggregate[n_shards] = agg
        rows.append(
            f"shards={n_shards}: aggregate={agg:>10,.0f} qps "
            f"({agg / max(aggregate[1], 1e-9):.2f}x), "
            f"in-process wall={wall:>9,.0f} qps, "
            f"p99={report.latency.p99_ms:.3f}ms"
        )
    with capsys.disabled():
        print("\n[cluster scaling, replay]")
        for r in rows:
            print("  " + r)
    speedup = aggregate[4] / aggregate[1]
    assert speedup >= 2.0, (
        f"4-shard aggregate QPS is only {speedup:.2f}x the 1-shard "
        f"aggregate (need >= 2x): {aggregate}"
    )
    # 2 shards should at least not lose throughput.
    assert aggregate[2] >= aggregate[1] * 0.9
