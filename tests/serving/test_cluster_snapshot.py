"""Snapshot/cluster interop: per-shard snapshot dirs round-trip through
ShardPlanner.save/load with manifest validation, and corruption fails
with clear errors — never a raw pickle/KeyError from the loader."""

import json

import pytest

from repro.core.serving import ShoalService
from repro.serving import ClusterRouter, ShardPlanner
from repro.store.persistence import read_manifest, taxonomy_to_dict


@pytest.fixture(scope="module")
def categories(tiny_marketplace):
    return {
        e.entity_id: e.category_id
        for e in tiny_marketplace.catalog.entities
    }


@pytest.fixture()
def cluster_dir(tmp_path, tiny_model, categories):
    d = tmp_path / "cluster"
    ShardPlanner(2).save(
        tiny_model,
        d,
        entity_categories=categories,
        metadata={"profile": "tiny", "seed": 0},
    )
    return d


class TestRoundTrip:
    def test_layout(self, cluster_dir):
        assert (cluster_dir / "CLUSTER_MANIFEST.json").is_file()
        assert (cluster_dir / "collection_stats.json").is_file()
        assert (cluster_dir / "shard-0000" / "MANIFEST.json").is_file()
        assert (cluster_dir / "shard-0001" / "MANIFEST.json").is_file()

    def test_shard_manifests_are_model_snapshots(self, cluster_dir):
        manifest = read_manifest(cluster_dir / "shard-0000")
        assert manifest["kind"] == "shoal-model"
        assert manifest["metadata"]["shard_index"] == 0
        assert manifest["metadata"]["root_topic_ids"]

    def test_round_trip_preserves_everything(
        self, cluster_dir, tiny_model, categories
    ):
        original = ShardPlanner(2).partition(tiny_model, categories)
        loaded = ShardPlanner.load(cluster_dir)
        assert loaded.plan == original.plan
        assert loaded.collection_stats == original.collection_stats
        for a, b in zip(original.models, loaded.models):
            assert taxonomy_to_dict(a.taxonomy) == taxonomy_to_dict(
                b.taxonomy
            )
            assert a.titles == b.titles
            assert a.entity_categories == b.entity_categories

    def test_loaded_cluster_answers_byte_identical(
        self, cluster_dir, tiny_model, tiny_marketplace, categories
    ):
        service = ShoalService(tiny_model.serving(categories))
        router = ClusterRouter.from_snapshot(cluster_dir)
        for q in tiny_marketplace.query_log.queries[:40]:
            assert router.search_topics(q.text, 5) == (
                service.search_topics(q.text, 5)
            )
            assert router.recommend_entities_for_query(q.text, 8) == (
                service.recommend_entities_for_query(q.text, 8)
            )

    def test_overwrite_removes_stale_manifest_first(
        self, cluster_dir, tiny_model, categories
    ):
        # A re-save over the same directory yields a valid snapshot.
        ShardPlanner(2).save(
            tiny_model, cluster_dir, entity_categories=categories
        )
        loaded = ShardPlanner.load(cluster_dir)
        assert loaded.n_shards == 2


class TestCorruption:
    def test_missing_cluster_manifest(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="cluster manifest"):
            ShardPlanner.load(tmp_path)

    def test_wrong_kind(self, cluster_dir):
        path = cluster_dir / "CLUSTER_MANIFEST.json"
        payload = json.loads(path.read_text())
        payload["kind"] = "not-a-cluster"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="kind"):
            ShardPlanner.load(cluster_dir)

    def test_wrong_format_version(self, cluster_dir):
        path = cluster_dir / "CLUSTER_MANIFEST.json"
        payload = json.loads(path.read_text())
        payload["format_version"] = 99
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="format version"):
            ShardPlanner.load(cluster_dir)

    def test_corrupted_shard_manifest_names_the_shard(self, cluster_dir):
        (cluster_dir / "shard-0001" / "MANIFEST.json").write_text(
            "{ this is not json"
        )
        with pytest.raises(ValueError, match="shard-0001"):
            ShardPlanner.load(cluster_dir)

    def test_shard_manifest_with_wrong_kind(self, cluster_dir):
        path = cluster_dir / "shard-0000" / "MANIFEST.json"
        payload = json.loads(path.read_text())
        payload["kind"] = "something-else"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="shard-0000"):
            ShardPlanner.load(cluster_dir)

    def test_missing_shard_dir(self, cluster_dir):
        import shutil

        shutil.rmtree(cluster_dir / "shard-0001")
        with pytest.raises(ValueError, match="shard-0001"):
            ShardPlanner.load(cluster_dir)

    def test_missing_collection_stats(self, cluster_dir):
        (cluster_dir / "collection_stats.json").unlink()
        with pytest.raises(ValueError, match="collection_stats"):
            ShardPlanner.load(cluster_dir)

    def test_interrupted_save_is_invalid(
        self, cluster_dir, tiny_model, categories
    ):
        """No readable cluster manifest => treated as incomplete."""
        (cluster_dir / "CLUSTER_MANIFEST.json").unlink()
        with pytest.raises(FileNotFoundError):
            ShardPlanner.load(cluster_dir)
