"""Generation shipping surface: the feed layout a primary publishes."""

from __future__ import annotations

import json

import pytest

from repro.api import open_backend
from repro.api.contract import ApiError
from repro.replication import Feed, FeedError, Follower, GenerationShipper
from repro.store.persistence import (
    load_serving,
    save_serving,
    snapshot_fingerprint,
)
from repro.streaming import Generation

SERVING_FILES = [
    "MANIFEST.json",
    "correlations.json",
    "entity_categories.json",
    "taxonomy.json",
    "texts.json",
]


def _baseline(snapshot) -> Generation:
    return Generation(number=0, serving=load_serving(snapshot))


class TestShipperPublish:
    def test_generation_dirs_hold_the_verified_serving_files(
        self, shipped_world
    ):
        root, _, _ = shipped_world
        feed = Feed(root / "feed")
        for entry in feed.read_generation_index():
            directory = feed.generation_dir(entry["number"])
            assert sorted(p.name for p in directory.iterdir()) == (
                SERVING_FILES
            )
            assert snapshot_fingerprint(directory) == entry["fingerprint"]

    def test_generation_index_carries_fingerprints(
        self, shipped_world, tmp_path
    ):
        """Each entry's fingerprint is that of the primary's in-memory
        generation, written out independently."""
        root, _, generations = shipped_world
        index = Feed(root / "feed").read_generation_index()
        assert [g["number"] for g in index] == [0, 1, 2]
        for entry, generation in zip(index[1:], generations):
            expected = save_serving(
                generation.serving, tmp_path / f"gen-{generation.number}"
            )
            assert entry == {
                "number": generation.number,
                "applied_seq": generation.applied_seq,
                "last_day": generation.last_day,
                "fingerprint": snapshot_fingerprint(expected),
            }

    def test_feed_holds_only_what_a_reader_reads(self, shipped_world):
        """No WAL segments and no fit-side model bytes: followers load
        each generation's serving files."""
        root, _, _ = shipped_world
        feed = root / "feed"
        assert sorted(p.name for p in feed.iterdir()) == [
            "FEED.json",
            "GENERATIONS.json",
            "followers",
            "generations",
        ]
        assert sorted(p.name for p in (feed / "generations").iterdir()) == [
            "gen-00000",
            "gen-00001",
            "gen-00002",
        ]

    def test_refuses_reinitialised_feed(self, tmp_path, repl_base_snapshot):
        baseline = _baseline(repl_base_snapshot)
        shipper = GenerationShipper(tmp_path / "feed", baseline)
        shipper.initialise()
        # another primary re-initialises the same directory
        Feed(tmp_path / "feed").initialise()
        out = shipper.publish_generation(
            Generation(number=1, serving=baseline.serving, applied_seq=1)
        )
        assert out == {"published": False, "error": out["error"]}
        assert "re-initialised" in out["error"]
        assert shipper.stats()["errors"] == 1
        assert not Feed(tmp_path / "feed").generation_dir(1).exists()

    def test_initialise_clears_stale_state(
        self, tmp_path, repl_base_snapshot
    ):
        feed = Feed(tmp_path / "feed")
        feed.initialise()
        feed.write_epoch({"epoch": 9, "generation": 9})
        feed.write_follower_report("ghost", {"healthy": True})
        feed.generation_dir(9).mkdir()
        (feed.generation_dir(9) / "taxonomy.json").write_text("{}")
        feed.generation_dir(3).with_name("gen-00003.tmp").mkdir()
        feed.write_generation_index([{"number": 9, "fingerprint": "x"}])
        GenerationShipper(
            tmp_path / "feed", _baseline(repl_base_snapshot)
        ).initialise()
        assert feed.read_epoch() is None
        assert feed.read_follower_reports() == {}
        assert [e["number"] for e in feed.read_generation_index()] == [0]
        assert [p.name for p in feed.generations_dir.iterdir()] == [
            "gen-00000"
        ]

    def test_generation_zero_is_the_boot_snapshot(
        self, shipped_world, repl_base_snapshot
    ):
        root, _, _ = shipped_world
        shipped = Feed(root / "feed").generation_dir(0)
        for name in (
            "taxonomy.json", "correlations.json", "entity_categories.json"
        ):
            assert (shipped / name).read_bytes() == (
                repl_base_snapshot / name
            ).read_bytes()
        assert load_serving(shipped).titles == (
            load_serving(repl_base_snapshot).titles
        )

    def test_manifest_is_format_and_nonce_only(self, shipped_world):
        root, _, _ = shipped_world
        manifest = json.loads((root / "feed" / "FEED.json").read_text())
        assert sorted(manifest) == ["format", "nonce"]
        assert manifest["format"] == "repro-replication-feed-v2"
        assert manifest["nonce"]


class TestOldFeedsAreRefused:
    def test_v1_feed_is_refused_by_name(self, feed_copy):
        manifest = Feed(feed_copy).read_manifest()
        manifest["format"] = "repro-replication-feed-v1"
        (feed_copy / "FEED.json").write_text(json.dumps(manifest))
        with pytest.raises(FeedError) as excinfo:
            Follower(feed_copy, follower_id="old").bootstrap()
        assert "repro-replication-feed-v1" in str(excinfo.value)
        assert "repro-replication-feed-v2" in str(excinfo.value)
        with pytest.raises(ApiError) as excinfo:
            open_backend(f"follower:{feed_copy}")
        assert excinfo.value.code == "invalid_argument"
        assert "repro-replication-feed-v1" in str(excinfo.value)
