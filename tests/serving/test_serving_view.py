"""The serving view: one ServingModel, however a read tier gets it.

A service over an in-memory fit (``ShoalModel.serving``), a service over
a snapshot's serving files (``load_serving``) and a 4-shard cluster
loaded from a saved cluster directory answer every Fig. 5 scenario
identically. A snapshot pruned to its serving files still serves, a
shard directory holds nothing else, and a cluster whose shards still
carry the older placeholder fit artifacts keeps loading.
"""

import shutil
from pathlib import Path
from typing import Dict, NamedTuple

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.clustering.dendrogram import Dendrogram
from repro.clustering.parallel_hac import ParallelHACResult
from repro.core.config import ShoalConfig
from repro.core.pipeline import ShoalModel, ShoalPipeline
from repro.core.serving import ShoalService
from repro.data.marketplace import Marketplace, PROFILES, generate_marketplace
from repro.graph.bipartite import QueryItemGraph
from repro.graph.sparse import SparseGraph
from repro.serving import ClusterRouter, ShardPlanner
from repro.store.persistence import load_model, load_serving, read_manifest
from repro.text.vocab import Vocabulary, VocabularyBuildConfig
from repro.text.word2vec import WordEmbeddings

from tests.store.parent_format import RETIRED, save_parent_format

WORLDS = [(profile, seed) for profile in ("tiny", "small") for seed in (7, 11)]
N_SHARDS = 4

#: Everything a snapshot reader loads.
SERVING_FILES = [
    "MANIFEST.json",
    "correlations.json",
    "entity_categories.json",
    "taxonomy.json",
    "texts.json",
]


class World(NamedTuple):
    """One fitted world, saved, and its three read tiers."""

    market: Marketplace
    model: ShoalModel
    categories: Dict[int, int]
    snapshot: Path
    cluster: Path
    memory: ShoalService  # over model.serving(categories)
    loaded: ShoalService  # over load_serving(snapshot)
    router: ClusterRouter  # over the saved cluster


@pytest.fixture(scope="module")
def worlds(tmp_path_factory):
    out = {}
    for profile, seed in WORLDS:
        market = generate_marketplace(PROFILES[profile].with_seed(seed))
        model = ShoalPipeline(ShoalConfig()).fit(market)
        cats = {e.entity_id: e.category_id for e in market.catalog.entities}
        root = tmp_path_factory.mktemp(f"{profile}-{seed}")
        snapshot = model.save(root / "snapshot", entity_categories=cats)
        cluster = ShardPlanner(N_SHARDS).save(
            model, root / "cluster", entity_categories=cats
        )
        out[profile, seed] = World(
            market, model, cats, snapshot, cluster,
            ShoalService(model.serving(cats)),
            ShoalService(load_serving(snapshot)),
            ClusterRouter.from_snapshot(cluster),
        )
    return out


def assert_same_answers(reference, tier, topics, queries, k=5):
    """Scenarios A–D, batches included, answer alike on both tiers."""
    assert tier.search_topics_batch(queries, k) == (
        reference.search_topics_batch(queries, k)
    )
    assert tier.recommend_batch(queries, k) == (
        reference.recommend_batch(queries, k)
    )
    for q in queries[:3]:
        assert tier.search_topics(q, k) == reference.search_topics(q, k)
        assert tier.recommend_entities_for_query(q, k) == (
            reference.recommend_entities_for_query(q, k)
        )
    for topic in topics:
        tid = topic.topic_id
        assert tier.subtopics(tid) == reference.subtopics(tid)
        for c in topic.category_ids:
            assert tier.entities_of_topic_category(tid, c) == (
                reference.entities_of_topic_category(tid, c)
            )
            assert tier.related_categories(c) == (
                reference.related_categories(c)
            )


def related(service, topic_id, k):
    return [(t.topic_id, s) for t, s in service.related_topics(topic_id, k)]


@given(key=st.sampled_from(WORLDS), data=st.data())
@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[
        HealthCheck.too_slow,
        HealthCheck.function_scoped_fixture,
    ],
)
def test_every_read_tier_answers_alike(worlds, key, data):
    w = worlds[key]
    market, model, memory, loaded = w.market, w.model, w.memory, w.loaded
    texts = [q.text for q in market.query_log.queries]
    queries = data.draw(
        st.lists(
            st.one_of(
                st.sampled_from(texts),
                st.text(alphabet="abcdefghijklmnopqrstuvwxyz ", max_size=20),
            ),
            max_size=6,
        )
    )
    k = data.draw(st.integers(min_value=1, max_value=8))
    topic = data.draw(st.sampled_from(model.taxonomy.topics()))
    for tier in (loaded, w.router):
        assert_same_answers(memory, tier, [topic], queries, k)
    assert related(loaded, topic.topic_id, k) == (
        related(memory, topic.topic_id, k)
    )


@pytest.mark.parametrize("key", WORLDS, ids=[f"{p}-{s}" for p, s in WORLDS])
def test_every_topic_and_logged_query(worlds, key):
    w = worlds[key]
    queries = [q.text for q in w.market.query_log.queries[:120]]
    topics = w.model.taxonomy.topics()
    for tier in (w.loaded, w.router):
        assert_same_answers(w.memory, tier, topics, queries)
    for t in topics:
        assert related(w.loaded, t.topic_id, 6) == (
            related(w.memory, t.topic_id, 6)
        )


def test_snapshot_pruned_to_serving_files_still_serves(worlds, tmp_path):
    w = worlds["tiny", 7]
    d = shutil.copytree(w.snapshot, tmp_path / "pruned")
    for path in d.iterdir():
        if path.suffix == ".npz" or path.name == "config.json":
            path.unlink()
    assert sorted(p.name for p in d.iterdir()) == SERVING_FILES
    queries = [q.text for q in w.market.query_log.queries[:120]]
    assert_same_answers(
        w.memory, ShoalService.from_snapshot(d), w.model.taxonomy.topics(),
        queries,
    )
    with pytest.raises(FileNotFoundError, match="load_serving"):
        load_model(d)


def test_shards_hold_only_serving_files(worlds):
    shard_dirs = sorted(worlds["tiny", 7].cluster.glob("shard-*"))
    assert len(shard_dirs) == N_SHARDS
    for shard_dir in shard_dirs:
        assert sorted(p.name for p in shard_dir.iterdir()) == SERVING_FILES
        manifest = read_manifest(shard_dir)
        assert manifest["kind"] == "shoal-model"
        assert sorted(manifest["artifacts"]) == SERVING_FILES[1:]
        with pytest.raises(FileNotFoundError, match="load_serving"):
            load_model(shard_dir)


def _placeholder_shard(model, shard):
    """A shard as an older format wrote it: a whole model snapshot with
    empty fit artifacts and the shard topics' scored descriptions."""
    vocab = Vocabulary([], np.zeros(0, dtype=np.int64), VocabularyBuildConfig())
    return ShoalModel(
        config=model.config,
        bipartite=QueryItemGraph(),
        embeddings=WordEmbeddings(
            vocab, np.zeros((0, model.config.word2vec.dim))
        ),
        entity_graph=SparseGraph(0),
        clustering=ParallelHACResult(dendrogram=Dendrogram([]), rounds=[]),
        taxonomy=shard.taxonomy,
        descriptions={
            t.topic_id: model.descriptions[t.topic_id]
            for t in shard.taxonomy
            if t.topic_id in model.descriptions
        },
        correlations=shard.correlations,
        titles=shard.titles,
        query_texts={},
    )


def test_cluster_with_placeholder_shard_artifacts_still_loads(
    worlds, tmp_path
):
    w = worlds["tiny", 7]
    model = w.model
    d = shutil.copytree(w.cluster, tmp_path / "cluster")
    shard_set = ShardPlanner(N_SHARDS).partition(model, w.categories)
    for i, shard in enumerate(shard_set.models):
        shard_dir = d / f"shard-{i:04d}"
        save_parent_format(
            _placeholder_shard(model, shard),
            shard_dir,
            entity_categories=shard.entity_categories,
            metadata=read_manifest(shard_dir)["metadata"],
        )
        assert (shard_dir / "config.json").is_file()
        listed = read_manifest(shard_dir)["artifacts"]
        for name in RETIRED:
            assert name in listed and (shard_dir / name).is_file()
    queries = [q.text for q in w.market.query_log.queries[:120]]
    assert_same_answers(
        w.memory, ClusterRouter.from_snapshot(d), model.taxonomy.topics(),
        queries,
    )
