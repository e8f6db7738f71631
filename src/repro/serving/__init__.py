"""Scale-out serving: sharding and routing.

PR 1 made one :class:`~repro.core.serving.ShoalService` fast; this
package turns it into a cluster shaped like the elastic, partitioned
read tiers production taxonomy serving runs on:

* :mod:`~repro.serving.sharding` — :class:`ShardPlanner` partitions a
  fitted model into root-subtree shards, each a pruned model scored
  against the *global* BM25 collection statistics, persistable as a
  directory of per-shard model snapshots;
* :mod:`~repro.serving.router` — :class:`ClusterRouter` fans queries
  out to the shards that can score them, merges per-shard top-k into
  byte-identical unsharded answers.
"""

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
    "CLUSTER_SNAPSHOT_KIND",
    "CLUSTER_FORMAT_VERSION",
]
