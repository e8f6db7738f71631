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
whole in every shard model.

Because those statistics are corpus-wide, any change to the model moves
every shard's scores, so a shard set is partitioned once and served
read-only: a :class:`~repro.serving.router.ClusterRouter` is built from
it (or from its snapshot) and never refreshed.

On disk, a cluster snapshot is a directory of per-shard PR-2 model
snapshots plus the shared collection statistics, sealed by a cluster
manifest written last:

=============================== ==========================================
``CLUSTER_MANIFEST.json``       kind, format version, shard directory
                                names, the shard plan, metadata
``collection_stats.json``       global n_documents / average document
                                length / per-token document frequencies
``shard-0000/`` …               one model snapshot per shard (see
                                :mod:`repro.store.persistence.snapshot`),
                                each with its entity-category sidecar
=============================== ==========================================
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.clustering.dendrogram import Dendrogram
from repro.clustering.parallel_hac import ParallelHACResult
from repro.core.pipeline import ShoalModel
from repro.core.serving import build_topic_documents
from repro.core.taxonomy import Taxonomy, Topic
from repro.graph.bipartite import QueryItemGraph
from repro.graph.sparse import SparseGraph
from repro.text.bm25 import CollectionStats
from repro.text.tokenizer import Tokenizer
from repro.text.vocab import Vocabulary, VocabularyBuildConfig
from repro.text.word2vec import WordEmbeddings

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


# -- pruned shard models -----------------------------------------------------


def _empty_embeddings(dim: int) -> WordEmbeddings:
    vocab = Vocabulary([], np.zeros(0, dtype=np.int64), VocabularyBuildConfig())
    return WordEmbeddings(vocab, np.zeros((0, max(dim, 1))))


def build_shard_model(
    model: ShoalModel, root_topic_ids: Sequence[int]
) -> ShoalModel:
    """The pruned model a single shard serves.

    Keeps the assigned root subtrees (topic objects are shared, they
    are read-only at serve time), the titles of their entities, their
    description scores, and the **full** correlation graph (categories
    are global). The fit-time artifacts a read tier never touches —
    embeddings, bipartite graph, entity graph, dendrogram — are
    replaced by empty placeholders so per-shard snapshots stay small
    and loadable through the standard snapshot format.
    """
    taxonomy = model.taxonomy
    topics = [
        t
        for r in sorted(root_topic_ids)
        for t in _subtree_topics(taxonomy, r)
    ]
    shard_taxonomy = Taxonomy(topics)
    entity_ids = {e for t in topics for e in t.entity_ids}
    titles = {e: model.titles[e] for e in entity_ids if e in model.titles}
    descriptions = {
        t.topic_id: model.descriptions[t.topic_id]
        for t in topics
        if t.topic_id in model.descriptions
    }
    return ShoalModel(
        config=model.config,
        bipartite=QueryItemGraph(),
        embeddings=_empty_embeddings(model.config.word2vec.dim),
        entity_graph=SparseGraph(0),
        clustering=ParallelHACResult(dendrogram=Dendrogram([]), rounds=[]),
        taxonomy=shard_taxonomy,
        descriptions=descriptions,
        correlations=model.correlations,
        titles=titles,
        query_texts={},
    )


# -- the shard set -----------------------------------------------------------


@dataclass
class ShardSet:
    """A partitioned model, ready for a router (or a snapshot dir).

    ``models[i]`` is the pruned model of shard ``i``;
    ``entity_categories[i]`` its authoritative entity → category slice
    (``None`` when the source had none); ``collection_stats`` the
    global corpus statistics every shard scores against.
    """

    plan: ShardPlan
    models: List[ShoalModel]
    entity_categories: List[Optional[Dict[int, int]]]
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
        """Split ``model`` into per-shard pruned models + global stats."""
        plan = self.plan(model)
        models = [
            build_shard_model(model, a.root_topic_ids)
            for a in plan.assignments
        ]
        if entity_categories is None:
            cats: List[Optional[Dict[int, int]]] = [None] * plan.n_shards
        else:
            cats = [
                {
                    e: entity_categories[e]
                    for e in m.titles
                    if e in entity_categories
                }
                for m in models
            ]
        return ShardSet(
            plan=plan,
            models=models,
            entity_categories=cats,
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
        """Write a cluster snapshot: one model snapshot per shard.

        Like the model snapshot, the cluster manifest is written last
        (and any previous one removed first), so a readable cluster
        manifest implies every shard directory underneath it is
        complete.
        """
        from repro.store.persistence.snapshot import write_json

        d = Path(directory)
        d.mkdir(parents=True, exist_ok=True)
        (d / CLUSTER_MANIFEST).unlink(missing_ok=True)

        shard_dirs = []
        for i, shard_model in enumerate(shard_set.models):
            name = f"shard-{i:04d}"
            shard_model.save(
                d / name,
                entity_categories=shard_set.entity_categories[i],
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

        Every shard's own manifest is validated before its artifacts
        are touched; a corrupt or missing shard surfaces as a
        ``ValueError`` naming the shard, never as a raw decode or key
        error from deep inside the loader.
        """
        from repro.store.persistence import (
            load_entity_categories,
            load_model,
        )
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

        models: List[ShoalModel] = []
        cats: List[Optional[Dict[int, int]]] = []
        for name in manifest.get("shards", []):
            shard_dir = d / name
            try:
                models.append(load_model(shard_dir))
                cats.append(load_entity_categories(shard_dir))
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
        return ShardSet(
            plan=plan,
            models=models,
            entity_categories=cats,
            collection_stats=stats,
        )
