"""Cluster scale-out: 1/2/4/8-shard throughput on the ledger's hot reads.

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

The workload is the benchmark ledger's hot shape
(``benchmarks/ledger/workloads.py``): Zipf draws over four spellings of
every logged query, which tokenize alike, so each spelling routes to
the same shards and probes the same postings. The bare cluster backend
is driven in a plain timed loop — the engine tier holds no result
cache, so every request computes — after the first third of the stream
has run unmeasured.

Gate: ≥ 2x aggregate QPS at 4 shards vs 1. On a 2-vCPU box, three
runs read 4 shards at 3.40x / 3.03x / 2.81x on the earlier workload
(16 token-repeat variants per query, Zipf exponent 0.9) and
3.01x / 3.93x / 3.05x on this one.
"""

import time
from typing import List, Sequence

import pytest

from repro.api import ClusterBackend, SearchRequest

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


def _timed(backend: ClusterBackend, queries: Sequence[str]) -> float:
    """Wall-clock seconds to answer every query, one after another."""
    t0 = time.perf_counter()
    for q in queries:
        backend.search(SearchRequest(query=q, k=TOP_K))
    return time.perf_counter() - t0


def _aggregate_qps(
    n_requests: int, total: float, busy: List[float], n_shards: int
) -> float:
    """n_requests / (busiest shard + this node's share of router work)."""
    overhead = max(total - sum(busy), 0.0)
    wall = (max(busy) if busy else 0.0) + overhead / n_shards
    return n_requests / wall if wall > 0 else 0.0


def _measure(backend: ClusterBackend, workload, n_shards: int):
    """Run the warm-up third unmeasured, then best-of-N time the rest."""
    router = backend.router
    _timed(backend, workload[:WARMUP])
    measured = workload[WARMUP:]
    best_aggregate = 0.0
    best_wall = 0.0
    for _ in range(REPEATS):
        before = router.shard_busy_seconds()
        total = _timed(backend, measured)
        after = router.shard_busy_seconds()
        busy = [a - b for a, b in zip(after, before)]
        best_aggregate = max(
            best_aggregate,
            _aggregate_qps(len(measured), total, busy, n_shards),
        )
        best_wall = max(best_wall, len(measured) / total)
    return best_aggregate, best_wall


def test_bench_cluster_shard_scaling(
    bench_model, entity_categories, hot_reads, capsys
):
    """Aggregate QPS must scale: >= 2x at 4 shards vs 1."""
    workload = hot_reads(N_REQUESTS, seed=7)
    aggregate = {}
    rows = []
    for n_shards in SHARD_COUNTS:
        backend = ClusterBackend.from_model(
            bench_model,
            n_shards,
            entity_categories=entity_categories,
        )
        agg, wall = _measure(backend, workload, n_shards)
        aggregate[n_shards] = agg
        rows.append(
            f"shards={n_shards}: aggregate={agg:>10,.0f} qps "
            f"({agg / max(aggregate[1], 1e-9):.2f}x), "
            f"in-process wall={wall:>9,.0f} qps"
        )
    with capsys.disabled():
        print("\n[cluster scaling, ledger hot shape]")
        for r in rows:
            print("  " + r)
    speedup = aggregate[4] / aggregate[1]
    assert speedup >= 2.0, (
        f"4-shard aggregate QPS is only {speedup:.2f}x the 1-shard "
        f"aggregate (need >= 2x): {aggregate}"
    )
    # 2 shards should at least not lose throughput.
    assert aggregate[2] >= aggregate[1] * 0.9
