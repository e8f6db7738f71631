"""Partitioning a fitted model into serving shards.

The unit of sharding is a **root subtree** of the taxonomy: every topic
travels with its ancestors/descendants, so hierarchy navigation
(scenario B), category listing (scenario C) and entity recommendation
never cross a shard boundary. Roots are balanced across shards by
entity count (greedy, deterministic).

Answer transparency is the design constraint everything here serves:
the cluster must return *byte-identical* results to the unsharded
:class:`~repro.core.serving.ShoalService`. BM25 scores depend on three
corpus-wide statistics (document count, per-token document frequency,
average document length), so each shard's pruned index is built with
its own local postings but the **global**
:class:`~repro.text.bm25.CollectionStats`, computed here over the full
model's documents via the exact code path the service uses. The
correlation graph is global (categories are not sharded) and is kept
whole in every shard.

Because those statistics are corpus-wide, any change to the model moves
every shard's scores, so a shard set is partitioned once and served
read-only: a :class:`~repro.serving.router.ClusterRouter` is built from
it (or from its snapshot) and never refreshed.

A shard is a :class:`~repro.core.serving.ServingModel` — the taxonomy
slice, its entities' titles, the correlation graph and the category
slice — and nothing fit-side. On disk, a cluster snapshot is a
directory of per-shard serving-only snapshots plus the shared
collection statistics, sealed by a cluster manifest written last:

=============================== ==========================================
``CLUSTER_MANIFEST.json``       kind, format version, shard directory
                                names, the shard plan, metadata
``collection_stats.json``       global n_documents / average document
                                length / per-token document frequencies
``shard-0000/`` …               one serving-only snapshot per shard
                                (``save_serving``: no fit artifacts)
=============================== ==========================================
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.pipeline import ShoalModel
from repro.core.serving import ServingModel, build_topic_documents
from repro.core.taxonomy import Taxonomy, Topic
from repro.text.bm25 import CollectionStats
from repro.text.tokenizer import Tokenizer

__all__ = [
    "CLUSTER_MANIFEST",
    "CLUSTER_SNAPSHOT_KIND",
    "CLUSTER_FORMAT_VERSION",
    "ShardAssignment",
    "ShardPlan",
    "ShardSet",
    "ShardPlanner",
    "plan_shards",
    "build_shard_model",
]

CLUSTER_MANIFEST = "CLUSTER_MANIFEST.json"
CLUSTER_SNAPSHOT_KIND = "shoal-cluster"
CLUSTER_FORMAT_VERSION = 1


# -- the plan ----------------------------------------------------------------


@dataclass(frozen=True)
class ShardAssignment:
    """One shard's slice of the taxonomy."""

    shard_index: int
    root_topic_ids: Tuple[int, ...]
    n_topics: int
    n_entities: int

    def summary(self) -> str:
        return (
            f"shard {self.shard_index}: {len(self.root_topic_ids)} roots, "
            f"{self.n_topics} topics, {self.n_entities} entities"
        )


@dataclass(frozen=True)
class ShardPlan:
    """A complete, deterministic root-subtree → shard assignment."""

    n_shards: int
    assignments: Tuple[ShardAssignment, ...]

    def summary(self) -> str:
        return "\n".join(a.summary() for a in self.assignments)


def _subtree_topics(taxonomy: Taxonomy, root_id: int) -> List[Topic]:
    """All topics of one root subtree (root included), any order."""
    out: List[Topic] = []
    stack = [root_id]
    while stack:
        tid = stack.pop()
        t = taxonomy.topic(tid)
        out.append(t)
        stack.extend(t.child_ids)
    return out


def plan_shards(taxonomy: Taxonomy, n_shards: int) -> ShardPlan:
    """Balance root subtrees across ``n_shards`` by entity count.

    Greedy longest-processing-time assignment: roots sorted by
    descending subtree entity count (ties toward lower topic id) each
    go to the currently lightest shard (ties toward the lower shard
    index). Deterministic, so the same model always yields the same
    plan. Shards may be empty when there are fewer roots than shards.
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    roots = taxonomy.root_topics()
    weights = {t.topic_id: t.size for t in roots}
    order = sorted(roots, key=lambda t: (-weights[t.topic_id], t.topic_id))
    buckets: List[List[int]] = [[] for _ in range(n_shards)]
    loads = [0] * n_shards
    for t in order:
        lightest = min(range(n_shards), key=lambda i: (loads[i], i))
        buckets[lightest].append(t.topic_id)
        loads[lightest] += weights[t.topic_id]
    assignments = []
    for i, root_ids in enumerate(buckets):
        topics = [
            t for r in root_ids for t in _subtree_topics(taxonomy, r)
        ]
        assignments.append(
            ShardAssignment(
                shard_index=i,
                root_topic_ids=tuple(sorted(root_ids)),
                n_topics=len(topics),
                n_entities=sum(
                    taxonomy.topic(r).size for r in root_ids
                ),
            )
        )
    return ShardPlan(n_shards=n_shards, assignments=tuple(assignments))


# -- shard serving models ----------------------------------------------------


def build_shard_model(
    serving: ServingModel, root_topic_ids: Sequence[int]
) -> ServingModel:
    """The serving model a single shard serves.

    Keeps the assigned root subtrees (topic objects are shared, they
    are read-only at serve time), the titles and category entries of
    their entities, and the **full** correlation graph (categories are
    global). A derived category map (``None``) stays derived: each
    entity's topics all live in its own root subtree, so the shard
    derives exactly the global map's slice.
    """
    taxonomy = serving.taxonomy
    topics = [
        t
        for r in sorted(root_topic_ids)
        for t in _subtree_topics(taxonomy, r)
    ]
    entity_ids = {e for t in topics for e in t.entity_ids}
    titles, cats = serving.titles, serving.entity_categories
    return ServingModel(
        taxonomy=Taxonomy(topics),
        titles={e: titles[e] for e in entity_ids if e in titles},
        correlations=serving.correlations,
        entity_categories=(
            None if cats is None
            else {e: cats[e] for e in entity_ids if e in cats}
        ),
    )


# -- the shard set -----------------------------------------------------------


@dataclass
class ShardSet:
    """A partitioned model, ready for a router (or a snapshot dir).

    ``models[i]`` is the serving model of shard ``i``;
    ``collection_stats`` the global corpus statistics every shard
    scores against.
    """

    plan: ShardPlan
    models: List[ServingModel]
    collection_stats: CollectionStats

    @property
    def n_shards(self) -> int:
        return self.plan.n_shards


# -- persistence helpers -----------------------------------------------------


def _stats_to_dict(stats: CollectionStats) -> Dict:
    return {
        "n_documents": stats.n_documents,
        "average_document_length": stats.average_document_length,
        "document_frequencies": dict(
            sorted(stats.document_frequencies.items())
        ),
    }


def _stats_from_dict(payload: Dict) -> CollectionStats:
    return CollectionStats(
        n_documents=int(payload["n_documents"]),
        average_document_length=float(payload["average_document_length"]),
        document_frequencies={
            str(k): int(v)
            for k, v in payload["document_frequencies"].items()
        },
    )


class ShardPlanner:
    """Plans, builds, persists and loads shard sets of a fitted model.

    The planner is where the global collection statistics are computed:
    it rebuilds the full model's serving documents through
    :func:`~repro.core.serving.build_topic_documents` — the same code
    path the unsharded service indexes with — so the statistics it
    hands every shard are exactly the ones the unsharded index would
    have used.
    """

    def __init__(
        self, n_shards: int, tokenizer: Optional[Tokenizer] = None
    ):
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        self._n_shards = n_shards
        self._tokenizer = tokenizer or Tokenizer()

    @property
    def n_shards(self) -> int:
        return self._n_shards

    def plan(self, model: ShoalModel) -> ShardPlan:
        return plan_shards(model.taxonomy, self._n_shards)

    def global_collection_stats(self, model: ShoalModel) -> CollectionStats:
        """Corpus statistics of the *unsharded* serving index."""
        docs, _ = build_topic_documents(
            model.taxonomy.topics(), model.titles, self._tokenizer.tokenize
        )
        return CollectionStats.from_documents(docs)

    def partition(
        self,
        model: ShoalModel,
        entity_categories: Optional[Dict[int, int]] = None,
    ) -> ShardSet:
        """Split ``model`` into per-shard serving models + global stats."""
        plan = self.plan(model)
        serving = model.serving(entity_categories)
        return ShardSet(
            plan=plan,
            models=[
                build_shard_model(serving, a.root_topic_ids)
                for a in plan.assignments
            ],
            collection_stats=self.global_collection_stats(model),
        )

    # -- persistence ---------------------------------------------------------

    def save(
        self,
        model: ShoalModel,
        directory: Union[str, Path],
        *,
        entity_categories: Optional[Dict[int, int]] = None,
        metadata: Optional[Dict] = None,
    ) -> Path:
        """Partition ``model`` and write the cluster snapshot.

        Convenience wrapper over :meth:`partition` +
        :meth:`save_shard_set`; callers that already hold a
        :class:`ShardSet` (e.g. one feeding a live router) should save
        that directly instead of paying for a second partition.
        """
        return self.save_shard_set(
            self.partition(model, entity_categories),
            directory,
            metadata=metadata,
        )

    @staticmethod
    def save_shard_set(
        shard_set: ShardSet,
        directory: Union[str, Path],
        *,
        metadata: Optional[Dict] = None,
    ) -> Path:
        """Write a cluster snapshot: one serving-only snapshot per shard.

        Like the model snapshot, the cluster manifest is written last
        (and any previous one removed first), so a readable cluster
        manifest implies every shard directory underneath it is
        complete.
        """
        from repro.store.persistence.snapshot import save_serving, write_json

        d = Path(directory)
        d.mkdir(parents=True, exist_ok=True)
        (d / CLUSTER_MANIFEST).unlink(missing_ok=True)

        shard_dirs = []
        for i, shard in enumerate(shard_set.models):
            name = f"shard-{i:04d}"
            save_serving(
                shard,
                d / name,
                metadata={
                    "shard_index": i,
                    "root_topic_ids": list(
                        shard_set.plan.assignments[i].root_topic_ids
                    ),
                },
            )
            shard_dirs.append(name)
        write_json(
            d / "collection_stats.json",
            _stats_to_dict(shard_set.collection_stats),
        )
        write_json(
            d / CLUSTER_MANIFEST,
            {
                "kind": CLUSTER_SNAPSHOT_KIND,
                "format_version": CLUSTER_FORMAT_VERSION,
                "n_shards": shard_set.n_shards,
                "shards": shard_dirs,
                "plan": [
                    {
                        "shard_index": a.shard_index,
                        "root_topic_ids": list(a.root_topic_ids),
                        "n_topics": a.n_topics,
                        "n_entities": a.n_entities,
                    }
                    for a in shard_set.plan.assignments
                ],
                "metadata": metadata or {},
            },
        )
        return d

    @staticmethod
    def read_cluster_manifest(directory: Union[str, Path]) -> Dict:
        """Read + validate a cluster snapshot's manifest."""
        p = Path(directory) / CLUSTER_MANIFEST
        if not p.is_file():
            raise FileNotFoundError(
                f"no cluster manifest at {p} — not a cluster snapshot "
                "directory, or the snapshot write was interrupted"
            )
        with p.open("r", encoding="utf-8") as f:
            manifest = json.load(f)
        kind = manifest.get("kind")
        if kind != CLUSTER_SNAPSHOT_KIND:
            raise ValueError(
                f"cluster snapshot kind {kind!r} does not match expected "
                f"{CLUSTER_SNAPSHOT_KIND!r}"
            )
        version = manifest.get("format_version")
        if version != CLUSTER_FORMAT_VERSION:
            raise ValueError(
                f"unsupported cluster snapshot format version {version!r} "
                f"(this build reads version {CLUSTER_FORMAT_VERSION})"
            )
        return manifest

    @staticmethod
    def load(directory: Union[str, Path]) -> ShardSet:
        """Reconstruct a :class:`ShardSet` from a cluster snapshot.

        Every shard's own manifest is validated before its serving
        files are read (any fit-side files a shard still carries are
        ignored); a corrupt or missing shard surfaces as a
        ``ValueError`` naming the shard, never as a raw decode or key
        error from deep inside the loader.
        """
        from repro.store.persistence import load_serving
        from repro.store.persistence.snapshot import read_json

        d = Path(directory)
        manifest = ShardPlanner.read_cluster_manifest(d)

        stats_path = d / "collection_stats.json"
        if not stats_path.is_file():
            raise ValueError(
                f"cluster snapshot at {d} has no collection_stats.json — "
                "shards cannot score transparently without the global "
                "corpus statistics"
            )
        stats = _stats_from_dict(read_json(stats_path))

        models: List[ServingModel] = []
        for name in manifest.get("shards", []):
            shard_dir = d / name
            try:
                models.append(load_serving(shard_dir))
            except (ValueError, KeyError, OSError, json.JSONDecodeError) as e:
                raise ValueError(
                    f"cluster shard {name!r} at {shard_dir} is corrupt or "
                    f"unreadable: {e}"
                ) from e

        assignments = tuple(
            ShardAssignment(
                shard_index=int(a["shard_index"]),
                root_topic_ids=tuple(int(r) for r in a["root_topic_ids"]),
                n_topics=int(a["n_topics"]),
                n_entities=int(a["n_entities"]),
            )
            for a in manifest.get("plan", [])
        )
        plan = ShardPlan(
            n_shards=int(manifest["n_shards"]), assignments=assignments
        )
        if len(models) != plan.n_shards:
            raise ValueError(
                f"cluster manifest claims {plan.n_shards} shards but "
                f"{len(models)} shard snapshots were loaded"
            )
        return ShardSet(plan=plan, models=models, collection_stats=stats)
