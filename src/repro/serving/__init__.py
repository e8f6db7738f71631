"""Scale-out serving: sharding, routing, and traffic replay.

PR 1 made one :class:`~repro.core.serving.ShoalService` fast; this
package turns it into a cluster shaped like the elastic, partitioned
read tiers production taxonomy serving runs on:

* :mod:`~repro.serving.sharding` — :class:`ShardPlanner` partitions a
  fitted model into root-subtree shards, each a pruned model scored
  against the *global* BM25 collection statistics, persistable as a
  directory of per-shard model snapshots;
* :mod:`~repro.serving.router` — :class:`ClusterRouter` fans queries
  out to the shards that can score them, merges per-shard top-k into
  byte-identical unsharded answers;
* :mod:`~repro.serving.replay` — :class:`TrafficReplayer` replays
  Zipf-skewed steady/bursty/drifting/adversarial workloads against a
  service or cluster and reports QPS with p50/p95/p99 latencies.

The router and replayer record latencies in the one histogram,
:class:`repro.obs.histogram.Histogram`, re-exported here.
"""

from repro.obs.histogram import Histogram, LatencySummary, percentile
from repro.serving.replay import (
    ReplayReport,
    TrafficReplayer,
    WorkloadConfig,
    WORKLOAD_PROFILES,
    build_workload,
)
from repro.serving.router import ClusterRouter, ClusterStats
from repro.serving.sharding import (
    CLUSTER_FORMAT_VERSION,
    CLUSTER_SNAPSHOT_KIND,
    ShardAssignment,
    ShardPlan,
    ShardPlanner,
    ShardSet,
    build_shard_model,
    plan_shards,
    shard_fingerprint,
)

__all__ = [
    "ClusterRouter",
    "ClusterStats",
    "ShardAssignment",
    "ShardPlan",
    "ShardPlanner",
    "ShardSet",
    "plan_shards",
    "build_shard_model",
    "shard_fingerprint",
    "CLUSTER_SNAPSHOT_KIND",
    "CLUSTER_FORMAT_VERSION",
    "TrafficReplayer",
    "ReplayReport",
    "WorkloadConfig",
    "WORKLOAD_PROFILES",
    "build_workload",
    "Histogram",
    "LatencySummary",
    "percentile",
]
