"""Tests for the versioned model snapshot format and its fingerprint.

The deployment contract under test: a serving process that loads a
snapshot must answer exactly like the process that fitted the model —
and nothing in the format may rely on pickle.
"""

import dataclasses
import json
import shutil

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import ApiError, open_backend
from repro.core.pipeline import ShoalModel
from repro.core.serving import ShoalService
from repro.store.persistence import (
    SNAPSHOT_FORMAT_VERSION,
    config_from_dict,
    config_to_dict,
    load_entity_categories,
    load_model,
    load_serving,
    load_window,
    read_manifest,
    load_serving_verified,
    save_model,
    snapshot_fingerprint,
    whole_fingerprint,
)

from tests.store.parent_format import RETIRED, save_parent_format


@pytest.fixture(scope="module")
def snapshot_dir(tiny_model, tiny_marketplace, tmp_path_factory):
    d = tmp_path_factory.mktemp("snapshot") / "model"
    categories = {
        e.entity_id: e.category_id for e in tiny_marketplace.catalog.entities
    }
    save_model(tiny_model, d, entity_categories=categories)
    return d


@pytest.fixture(scope="module")
def loaded_model(snapshot_dir):
    return load_model(snapshot_dir)


@pytest.fixture(scope="module")
def services(tiny_model, tiny_marketplace, snapshot_dir):
    """(in-memory service, snapshot-loaded service) built identically."""
    categories = {
        e.entity_id: e.category_id for e in tiny_marketplace.catalog.entities
    }
    in_memory = ShoalService(tiny_model.serving(categories))
    from_disk = ShoalService.from_snapshot(snapshot_dir)
    return in_memory, from_disk


class TestModelRoundtrip:
    def test_config_identical(self, tiny_model, loaded_model):
        assert loaded_model.config == tiny_model.config

    def test_config_dict_roundtrip_standalone(self, tiny_model):
        payload = json.loads(json.dumps(config_to_dict(tiny_model.config)))
        assert config_from_dict(payload) == tiny_model.config

    def test_taxonomy_identical(self, tiny_model, loaded_model):
        assert len(loaded_model.taxonomy) == len(tiny_model.taxonomy)
        for t in tiny_model.taxonomy:
            r = loaded_model.taxonomy.topic(t.topic_id)
            assert r.entity_ids == t.entity_ids
            assert r.category_ids == t.category_ids
            assert r.parent_id == t.parent_id
            assert r.child_ids == t.child_ids
            assert r.level == t.level
            assert r.descriptions == t.descriptions

    def test_embeddings_identical(self, tiny_model, loaded_model):
        assert np.array_equal(
            loaded_model.embeddings.matrix, tiny_model.embeddings.matrix
        )
        assert (
            loaded_model.embeddings.vocabulary.words
            == tiny_model.embeddings.vocabulary.words
        )

    def test_no_click_graph_or_scored_descriptions(
        self, snapshot_dir, loaded_model
    ):
        """No reader needed them after a load: the saved window rebuilds
        the click graph exactly (``test_window_sidecar_restores_the_
        fitted_window``), and the taxonomy keeps the description texts
        (``test_taxonomy_identical``)."""
        assert loaded_model.bipartite is None
        assert loaded_model.descriptions is None
        on_disk = {p.name for p in snapshot_dir.iterdir()}
        listed = set(read_manifest(snapshot_dir)["artifacts"])
        for name in RETIRED:
            assert name not in on_disk and name not in listed

    def test_entity_graph_identical(self, tiny_model, loaded_model):
        assert (
            loaded_model.entity_graph.edge_list()
            == tiny_model.entity_graph.edge_list()
        )
        assert (
            loaded_model.entity_graph.vertices()
            == tiny_model.entity_graph.vertices()
        )

    def test_clustering_identical(self, tiny_model, loaded_model):
        assert (
            loaded_model.clustering.dendrogram.merges
            == tiny_model.clustering.dendrogram.merges
        )
        assert loaded_model.clustering.rounds == tiny_model.clustering.rounds
        assert (
            loaded_model.clustering.dendrogram.root_partition()
            == tiny_model.clustering.dendrogram.root_partition()
        )

    def test_correlations_identical(self, tiny_model, loaded_model):
        assert (
            loaded_model.correlations.pairs() == tiny_model.correlations.pairs()
        )
        assert (
            loaded_model.correlations.min_strength
            == tiny_model.correlations.min_strength
        )

    def test_texts_and_timings_identical(self, tiny_model, loaded_model):
        assert loaded_model.titles == tiny_model.titles
        assert loaded_model.query_texts == tiny_model.query_texts
        assert loaded_model.stage_seconds == tiny_model.stage_seconds

    def test_model_save_load_methods(self, tiny_model, tmp_path):
        tiny_model.save(tmp_path / "m")
        assert len(ShoalModel.load(tmp_path / "m").taxonomy) == len(
            tiny_model.taxonomy
        )


class TestSnapshotFormat:
    def test_manifest_written_and_versioned(self, snapshot_dir):
        manifest = read_manifest(snapshot_dir)
        assert manifest["kind"] == "shoal-model"
        assert manifest["format_version"] == SNAPSHOT_FORMAT_VERSION
        for name in manifest["artifacts"]:
            assert (snapshot_dir / name).is_file()

    def test_unsupported_version_rejected(self, tiny_model, tmp_path):
        d = tmp_path / "m"
        save_model(tiny_model, d)
        manifest = json.loads((d / "MANIFEST.json").read_text())
        manifest["format_version"] = 999
        (d / "MANIFEST.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="format version"):
            load_model(d)

    def test_wrong_kind_rejected(self, tiny_model, tmp_path):
        d = tmp_path / "m"
        save_model(tiny_model, d)
        manifest = json.loads((d / "MANIFEST.json").read_text())
        manifest["kind"] = "something-else"
        (d / "MANIFEST.json").write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="kind"):
            load_model(d)

    def test_missing_manifest_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="manifest"):
            load_model(tmp_path)

    def test_no_pickle_anywhere(self, snapshot_dir):
        """Every NPZ loads under numpy's safe default allow_pickle=False,
        and every JSON file is strict standard JSON."""
        for p in snapshot_dir.iterdir():
            if p.suffix == ".npz":
                with np.load(p) as z:  # allow_pickle defaults to False
                    for key in z.files:
                        assert z[key].dtype != object
            elif p.suffix == ".json":
                json.loads(p.read_text(), parse_constant=pytest.fail)

    def test_entity_categories_sidecar(self, snapshot_dir, tiny_marketplace):
        cats = load_entity_categories(snapshot_dir)
        assert cats == {
            e.entity_id: e.category_id
            for e in tiny_marketplace.catalog.entities
        }

    def test_entity_categories_optional(self, tiny_model, tmp_path):
        save_model(tiny_model, tmp_path / "m")
        assert load_entity_categories(tmp_path / "m") is None

    def test_resave_drops_stale_sidecar(self, tiny_model, tmp_path):
        """Overwriting a snapshot without the category sidecar must not
        leave the previous save's sidecar behind."""
        d = tmp_path / "m"
        save_model(tiny_model, d, entity_categories={0: 1})
        assert load_entity_categories(d) == {0: 1}
        save_model(tiny_model, d)  # no sidecar this time
        assert load_entity_categories(d) is None
        assert not (d / "entity_categories.json").exists()

    def test_torn_sidecar_is_an_error(self, snapshot_dir, tmp_path):
        """A manifest listing the sidecar whose file is gone must not
        fall back to the derived map: scenario C and recommend answers
        would change silently."""
        d = tmp_path / "m"
        shutil.copytree(snapshot_dir, d)
        (d / "entity_categories.json").unlink()
        for load in (load_entity_categories, load_serving):
            with pytest.raises(
                FileNotFoundError, match="entity_categories.json"
            ):
                load(d)
        with pytest.raises(ApiError, match="entity_categories.json") as exc:
            open_backend(f"snapshot:{d}")
        assert exc.value.code == "invalid_argument"

    def test_window_sidecar_restores_the_fitted_window(
        self, tiny_model, snapshot_dir
    ):
        window = load_window(snapshot_dir)
        assert window.days() == tiny_model.window.days()
        assert list(window.graph(tiny_model.config.min_clicks).edges()) == (
            list(tiny_model.bipartite.edges())
        )

    def test_load_model_never_reads_the_window(self, snapshot_dir, tmp_path):
        """A serving process leaves window.npz on disk: only a restarting
        maintainer reads it (``load_window``)."""
        d = tmp_path / "m"
        shutil.copytree(snapshot_dir, d)
        (d / "window.npz").unlink()
        assert load_model(d).window is None
        with pytest.raises(FileNotFoundError):
            load_window(d)

    def test_resave_without_a_window_drops_it(
        self, loaded_model, snapshot_dir, tmp_path
    ):
        d = tmp_path / "m"
        shutil.copytree(snapshot_dir, d)
        save_model(loaded_model, d)
        assert not (d / "window.npz").exists()
        assert "window.npz" not in read_manifest(d)["artifacts"]
        with pytest.raises(FileNotFoundError, match="window.npz"):
            load_window(d)

    def test_metadata_recorded(self, tiny_model, tmp_path):
        save_model(tiny_model, tmp_path / "m", metadata={"profile": "tiny"})
        assert read_manifest(tmp_path / "m")["metadata"] == {"profile": "tiny"}


class TestParentFormatSnapshot:
    """A snapshot an older build wrote, with ``bipartite.npz`` and
    ``descriptions.json`` listed in its manifest, still serves, verifies
    and restarts a fold; a save over it leaves only listed files."""

    @pytest.fixture
    def parent_dir(self, tiny_model, tiny_marketplace, tmp_path):
        categories = {
            e.entity_id: e.category_id
            for e in tiny_marketplace.catalog.entities
        }
        d = save_parent_format(
            tiny_model, tmp_path / "parent", entity_categories=categories
        )
        listed = read_manifest(d)["artifacts"]
        for name in RETIRED:
            assert name in listed and (d / name).is_file()
        return d

    def test_serves_through_load_serving(
        self, parent_dir, services, tiny_marketplace
    ):
        in_memory, _ = services
        queries = [q.text for q in tiny_marketplace.query_log.queries]
        assert ShoalService(load_serving(parent_dir)).search_topics_batch(
            queries, k=5
        ) == in_memory.search_topics_batch(queries, k=5)

    def test_passes_load_serving_verified(self, parent_dir):
        fingerprint = whole_fingerprint(parent_dir)
        assert fingerprint == snapshot_fingerprint(parent_dir)
        serving = load_serving_verified(parent_dir, fingerprint)
        assert serving.taxonomy.topics()

    def test_restarts_the_fold(
        self, parent_dir, tiny_model, tiny_marketplace, tmp_path
    ):
        from repro.streaming import IngestPipe, StreamingUpdater, WriteAheadLog

        wal = WriteAheadLog(tmp_path / "wal", fsync="never")
        updater = StreamingUpdater.restart(
            parent_dir, wal, tmp_path / "gens",
            batch_max_age_s=0.0, min_batch_events=1,
        )
        assert updater.current_generation == 0
        assert updater.window.days() == tiny_model.window.days()
        pipe = IngestPipe(wal)
        for event in tiny_marketplace.query_log.events[-5:]:
            pipe.submit({
                "day": int(event.day),
                "user_id": int(event.user_id),
                "query_id": int(event.query_id),
                "clicked": [int(c) for c in event.clicked_entity_ids],
            })
        generation = updater.run_once(timeout_s=0.0)
        assert generation is not None and generation.number == 1
        assert whole_fingerprint(generation.snapshot_dir) is not None
        for name in RETIRED:
            assert not (generation.snapshot_dir / name).exists()
        wal.close()

    def test_save_over_it_leaves_only_listed_files(self, parent_dir):
        save_model(load_model(parent_dir), parent_dir)
        listed = set(read_manifest(parent_dir)["artifacts"])
        on_disk = {p.name for p in parent_dir.iterdir()} - {"MANIFEST.json"}
        assert on_disk == listed
        assert not listed & set(RETIRED)
        assert whole_fingerprint(parent_dir) is not None


class TestSnapshotFingerprint:
    """The fingerprint covers every answer-shaping artifact and nothing
    else: followers and the epoch coordinator compare it."""

    def test_wall_clock_stage_seconds_do_not_count(self, tiny_model, tmp_path):
        slower = dataclasses.replace(
            tiny_model,
            stage_seconds={
                k: v + 1.0 for k, v in tiny_model.stage_seconds.items()
            },
        )
        a = save_model(tiny_model, tmp_path / "a")
        b = save_model(slower, tmp_path / "b")
        assert read_manifest(a)["stage_seconds"] != read_manifest(b)[
            "stage_seconds"
        ]
        assert snapshot_fingerprint(a) == snapshot_fingerprint(b)

    def test_stray_tmp_file_does_not_count(self, snapshot_dir, tmp_path):
        d = shutil.copytree(snapshot_dir, tmp_path / "m")
        before = snapshot_fingerprint(d)
        (d / "taxonomy.json.tmp").write_bytes(b"half-written")
        assert snapshot_fingerprint(d) == before

    def test_one_flipped_byte_in_any_artifact_counts(
        self, snapshot_dir, tmp_path
    ):
        before = snapshot_fingerprint(snapshot_dir)
        artifacts = read_manifest(snapshot_dir)["artifacts"]
        assert "entity_categories.json" in artifacts
        for name in artifacts:
            d = shutil.copytree(snapshot_dir, tmp_path / name)
            raw = bytearray((d / name).read_bytes())
            raw[len(raw) // 2] ^= 0x01
            (d / name).write_bytes(bytes(raw))
            assert snapshot_fingerprint(d) != before, name

    def test_missing_directory_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="snapshot directory"):
            snapshot_fingerprint(tmp_path / "absent")


class TestServingIdentity:
    """from_snapshot must be indistinguishable from the fitting process."""

    def test_search_identical_on_real_queries(self, services, tiny_marketplace):
        in_memory, from_disk = services
        queries = [q.text for q in tiny_marketplace.query_log.queries]
        assert from_disk.search_topics_batch(queries, k=5) == \
            in_memory.search_topics_batch(queries, k=5)

    def test_recommend_batch_identical(self, services, tiny_marketplace):
        in_memory, from_disk = services
        queries = [q.text for q in tiny_marketplace.query_log.queries[:80]]
        assert from_disk.recommend_batch(queries) == \
            in_memory.recommend_batch(queries)

    def test_related_topics_identical(self, services, tiny_model):
        in_memory, from_disk = services
        for t in tiny_model.taxonomy:
            mem = [(x.topic_id, s) for x, s in in_memory.related_topics(t.topic_id)]
            disk = [(x.topic_id, s) for x, s in from_disk.related_topics(t.topic_id)]
            assert mem == disk

    def test_related_categories_identical(self, services, tiny_model):
        in_memory, from_disk = services
        for c in tiny_model.correlations.categories():
            assert from_disk.related_categories(c) == \
                in_memory.related_categories(c)

    def test_scenario_c_identical(self, services, tiny_model):
        in_memory, from_disk = services
        for t in tiny_model.taxonomy.root_topics():
            for c in t.category_ids:
                assert (
                    from_disk.entities_of_topic_category(t.topic_id, c)
                    == in_memory.entities_of_topic_category(t.topic_id, c)
                )

    @settings(
        max_examples=50,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        query=st.text(
            alphabet="abcdefghijklmnopqrstuvwxyz0123456789 ", max_size=40
        ),
        k=st.integers(min_value=1, max_value=10),
    )
    def test_search_identical_property(self, services, query, k):
        """Arbitrary queries — including garbage — score identically."""
        in_memory, from_disk = services
        assert from_disk.search_topics(query, k) == \
            in_memory.search_topics(query, k)
